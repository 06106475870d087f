"""Metropolis simulated annealing on an Ising model: a test oracle.

A single-flip, random-scan Metropolis chain.  The cross-sampler tests run
it next to the p-bit machine's Gibbs (heat-bath) chain: both target the
Boltzmann law of eq. 11 and find the same ground states on small models,
differing only in their acceptance rule.
"""

from __future__ import annotations

import numpy as np

from repro.ising.backend import AnnealResult, check_start
from repro.ising.energy import ising_energy
from repro.ising.model import IsingModel
from repro.ising.pbit import random_spins
from repro.utils.rng import ensure_rng


def simulated_annealing(
    model: IsingModel,
    beta_schedule,
    rng=None,
    initial=None,
    record_energy: bool = False,
) -> AnnealResult:
    """Anneal ``model`` with single-flip Metropolis sweeps.

    Parameters
    ----------
    model:
        Ising Hamiltonian to minimize.
    beta_schedule:
        Inverse temperature per sweep (its length = number of MCS).
    rng:
        Seed or generator.
    initial:
        Starting spins, ``(n,)`` of ``-1`` / ``+1``; random if omitted.
    record_energy:
        Store the per-sweep energy trace.
    """
    betas = np.asarray(beta_schedule, dtype=float)
    if betas.ndim != 1 or betas.size == 0:
        raise ValueError("beta_schedule must be a non-empty 1-D sequence")
    rng = ensure_rng(rng)
    coupling = np.ascontiguousarray(model.coupling)
    n = model.num_spins

    if initial is None:
        spins = random_spins(rng, n)
    else:
        spins = check_start(1, n, np.asarray(initial, dtype=float)[None])[0]

    inputs = coupling @ spins + model.fields
    energy = ising_energy(model, spins)
    best_energy = energy
    best_sample = spins.copy()
    trace = np.empty(betas.size) if record_energy else None

    for sweep, beta in enumerate(betas):
        order = rng.permutation(n)
        log_uniforms = np.log(rng.uniform(1e-300, 1.0, size=n))
        for step, i in enumerate(order):
            delta = 2.0 * spins[i] * inputs[i]
            # Metropolis: accept if delta <= 0, else with prob exp(-beta*delta)
            if delta <= 0.0 or -beta * delta > log_uniforms[step]:
                new_spin = -spins[i]
                inputs += coupling[i] * (new_spin - spins[i])
                spins[i] = new_spin
                energy += delta
        if energy < best_energy:
            best_energy = energy
            best_sample = spins.copy()
        if record_energy:
            trace[sweep] = energy
    return AnnealResult(
        last_sample=spins,
        last_energy=energy,
        best_sample=best_sample,
        best_energy=best_energy,
        num_sweeps=betas.size,
        energy_trace=trace,
    )
