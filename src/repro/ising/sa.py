"""Metropolis simulated annealing on an Ising model.

The penalty-method baselines in the paper (Tables II-IV) run standard
simulated annealing [25] over the penalized QUBO.  This module provides a
single-flip Metropolis variant; the p-bit machine in :mod:`repro.ising.pbit`
provides the Gibbs (heat-bath) variant.  Both find the same ground states on
the validation problems — they differ only in acceptance rule.
"""

from __future__ import annotations

import math

import numpy as np

from repro.ising._lockstep import AnnealProgram, lockstep_anneal
from repro.ising.backend import (
    AnnealResult,
    BatchAnnealResult,
    batch_from_runs,
    check_start,
    resolve_dtype,
)
from repro.ising.energy import ising_energy
from repro.ising.model import IsingModel
from repro.ising.pbit import random_spins
from repro.utils.rng import ensure_rng


class MetropolisMachine:
    """Metropolis-SA exposed through the programmable-IM interface.

    Demonstrates the paper's claim that SAIM works with *any* programmable
    IM: this machine implements the same
    :class:`repro.ising.backend.AnnealingBackend` protocol as
    :class:`repro.ising.pbit.PBitMachine` but runs single-flip Metropolis
    instead of Gibbs sampling.  Pass it to
    ``SaimEngine(config, machine_factory=MetropolisMachine)`` or select it
    as ``repro.solve(..., backend="metropolis")``.

    The serial path uses random-scan sweeps (one spin permutation per
    sweep); the vectorized ``R > 1`` path uses systematic scan order shared
    by all replicas (the p-bit machine's sweep style) so replicas stay in
    lock-step — both are valid Metropolis chains with the same stationary
    distribution.  ``kernel`` selects the ``R = 1`` path: ``"serial"``
    (default — the historical random-scan reference) or ``"lockstep"``
    (the prepared-program block kernel, i.e. the systematic-scan chain the
    R > 1 path runs; substantially faster at large N).  The coupling's
    block decomposition is programmed once per machine as an
    :class:`repro.ising._lockstep.AnnealProgram` and reused across
    ``set_fields`` calls.  ``dtype`` selects the coefficient storage /
    batched-scan precision (energies stay float64-accumulated).
    """

    KERNELS = ("serial", "lockstep")

    def __init__(self, model: IsingModel, rng=None, dtype=None,
                 kernel: str = "serial"):
        if kernel not in self.KERNELS:
            raise ValueError(
                f"kernel must be one of {self.KERNELS}, got {kernel!r}"
            )
        self._dtype = resolve_dtype(dtype)
        self._coupling = np.ascontiguousarray(model.coupling, dtype=self._dtype)
        # Programmed lazily on first lock-step use (the default serial R=1
        # chain never needs the block decomposition).
        self._program = None
        self._fields = np.asarray(model.fields, dtype=self._dtype).copy()
        self._offset = model.offset
        self._kernel = kernel
        self._rng = ensure_rng(rng)

    @property
    def num_spins(self) -> int:
        """Number of spins."""
        return self._fields.size

    @property
    def dtype(self) -> np.dtype:
        """Coefficient storage precision of the machine."""
        return self._dtype

    @property
    def model(self) -> IsingModel:
        """Current Hamiltonian."""
        return IsingModel(self._coupling, self._fields.copy(), self._offset)

    @property
    def kernel(self) -> str:
        """R = 1 kernel selection (``"serial"`` or ``"lockstep"``)."""
        return self._kernel

    @property
    def program(self) -> AnnealProgram:
        """The machine's standing :class:`AnnealProgram` (built on first
        lock-step run)."""
        if self._program is None:
            self._program = AnnealProgram(self._coupling, dtype=self._dtype)
        return self._program

    def set_fields(self, fields, offset: float | None = None) -> None:
        """Reprogram the linear fields (and optionally the offset).

        One cast, one copy, into the machine-owned buffer (the caller may
        reuse its ``fields`` array across calls).
        """
        fields = np.asarray(fields)
        if fields.shape != self._fields.shape:
            raise ValueError(
                f"fields must have shape {self._fields.shape}, got {fields.shape}"
            )
        self._fields[...] = fields
        if offset is not None:
            self._offset = float(offset)

    def anneal(self, beta_schedule, initial=None, record_energy: bool = False):
        """One Metropolis annealing run (the random-scan reference chain)."""
        return simulated_annealing(
            self.model,
            beta_schedule,
            rng=self._rng,
            initial=initial,
            record_energy=record_energy,
        )

    def anneal_many(
        self, beta_schedule, num_replicas: int, initial=None,
        record_energy: bool = False,
    ) -> BatchAnnealResult:
        """Anneal ``num_replicas`` independent Metropolis replicas.

        ``R = 1`` delegates to the serial random-scan reference (unless the
        machine was built with ``kernel="lockstep"``); ``R > 1`` runs the
        lock-step vectorized kernel (systematic scan, speculative block
        decisions — see :mod:`repro.ising.pbit` for the scheme, here with
        the Metropolis acceptance rule ``m_i I_i < -log(u) / 2 beta``).
        ``record_energy`` stores per-sweep traces in ``energy_traces``.
        """
        betas = np.asarray(beta_schedule, dtype=float)
        if betas.ndim != 1 or betas.size == 0:
            raise ValueError("beta_schedule must be a non-empty 1-D sequence")
        states = check_start(num_replicas, self.num_spins, initial)
        if states is None:
            states = random_spins(self._rng, (num_replicas, self.num_spins))
        if num_replicas == 1 and self._kernel == "serial":
            run = simulated_annealing(
                self.model, betas, rng=self._rng, initial=states[0],
                record_energy=record_energy,
            )
            return batch_from_runs([run])
        return self._anneal_vectorized(betas, states, record_energy)

    def _anneal_vectorized(
        self, betas: np.ndarray, states: np.ndarray, record_energy: bool = False
    ) -> BatchAnnealResult:
        rng = self._rng
        num_replicas, n = states.shape

        def thresholds_for(beta):
            uniforms = rng.uniform(1e-300, 1.0, size=(n, num_replicas))
            # Accept a flip of spin i iff delta = 2 m_i I_i satisfies
            # delta <= 0 or exp(-beta delta) > u; both collapse to the
            # threshold test m_i I_i < -log(u) / (2 beta) since log(u) < 0.
            with np.errstate(divide="ignore"):
                return np.log(uniforms) / (-2.0 * beta)

        def decide(thr_rows, input_rows, spin_rows):
            flip = spin_rows * input_rows < thr_rows
            return np.where(flip, -2.0 * spin_rows, 0.0)

        spins, energies, best_spins, best_energies, traces = lockstep_anneal(
            self._coupling, self._fields, self._offset,
            betas, states, thresholds_for, decide,
            record_energy=record_energy, dtype=self._dtype,
            program=self.program,
        )
        return BatchAnnealResult(
            last_samples=spins.T.copy(),
            last_energies=energies,
            best_samples=best_spins.T.copy(),
            best_energies=best_energies,
            num_sweeps=betas.size,
            energy_traces=traces,
        )


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

    exp = math.exp
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
