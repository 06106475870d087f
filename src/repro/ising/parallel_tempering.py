"""Parallel tempering (replica exchange) sampler.

Software stand-in for the parallel-tempering mode of Fujitsu's Digital
Annealer (PT-DA [17]) that the paper benchmarks against.  ``num_replicas``
Metropolis chains run at a geometric ladder of inverse temperatures; after
every sweep, adjacent replicas attempt a state swap with the usual
replica-exchange acceptance ``min(1, exp((beta_a - beta_b) (E_a - E_b)))``.

The paper's comparator used 26 replicas; that is this module's default.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.ising.energy import ising_energies
from repro.ising.model import IsingModel
from repro.ising.pbit import random_spins
from repro.utils.rng import ensure_rng


@dataclass
class PTResult:
    """Outcome of a parallel-tempering run.

    ``best_sample``/``best_energy`` are the lowest-energy state seen in any
    replica.  ``replica_samples`` holds the final state of every replica
    (coldest first) so callers can harvest several candidate solutions.
    """

    best_sample: np.ndarray
    best_energy: float
    replica_samples: np.ndarray
    replica_energies: np.ndarray
    num_sweeps: int
    swap_acceptance: float


def geometric_beta_ladder(beta_min: float, beta_max: float, num_replicas: int) -> np.ndarray:
    """Geometric inverse-temperature ladder from hottest to coldest."""
    if beta_min <= 0 or beta_max <= 0:
        raise ValueError("beta_min and beta_max must be positive")
    if beta_max < beta_min:
        raise ValueError("beta_max must be >= beta_min")
    if num_replicas < 2:
        raise ValueError(f"need at least 2 replicas, got {num_replicas}")
    return np.geomspace(beta_min, beta_max, num_replicas)


def parallel_tempering(
    model: IsingModel,
    num_sweeps: int,
    num_replicas: int = 26,
    beta_min: float = 0.1,
    beta_max: float = 10.0,
    rng=None,
    swap_interval: int = 1,
) -> PTResult:
    """Run replica-exchange Metropolis sampling on ``model``.

    Parameters
    ----------
    model:
        Ising Hamiltonian to minimize.
    num_sweeps:
        Monte-Carlo sweeps per replica (total MCS = sweeps * replicas).
    num_replicas:
        Number of parallel chains (26 in the PT-DA comparison).
    beta_min / beta_max:
        End points of the geometric temperature ladder.
    swap_interval:
        Sweeps between swap attempts.
    """
    if num_sweeps <= 0:
        raise ValueError(f"num_sweeps must be positive, got {num_sweeps}")
    if swap_interval <= 0:
        raise ValueError(f"swap_interval must be positive, got {swap_interval}")
    rng = ensure_rng(rng)
    betas = geometric_beta_ladder(beta_min, beta_max, num_replicas)
    coupling = np.ascontiguousarray(model.coupling)
    n = model.num_spins

    states = random_spins(rng, (num_replicas, n))
    inputs = states @ coupling + model.fields
    energies = ising_energies(model, states)
    best_idx = int(np.argmin(energies))
    best_energy = float(energies[best_idx])
    best_sample = states[best_idx].copy()

    swaps_attempted = 0
    swaps_accepted = 0
    for sweep in range(num_sweeps):
        noise = rng.uniform(0.0, 1.0, size=(num_replicas, n))
        log_noise = np.log(np.clip(noise, 1e-300, None))
        for i in range(n):
            delta = 2.0 * states[:, i] * inputs[:, i]
            accept = (delta <= 0.0) | (-betas * delta > log_noise[:, i])
            if not np.any(accept):
                continue
            flipped = np.nonzero(accept)[0]
            energies[flipped] += delta[flipped]
            new_spins = -states[flipped, i]
            inputs[flipped] += (new_spins - states[flipped, i])[:, None] * coupling[i]
            states[flipped, i] = new_spins

        round_best = int(np.argmin(energies))
        if energies[round_best] < best_energy:
            best_energy = float(energies[round_best])
            best_sample = states[round_best].copy()

        if (sweep + 1) % swap_interval == 0:
            # Alternate even / odd neighbour pairs so every link is exercised.
            start = (sweep // swap_interval) % 2
            for a in range(start, num_replicas - 1, 2):
                b = a + 1
                swaps_attempted += 1
                log_ratio = (betas[a] - betas[b]) * (energies[a] - energies[b])
                if log_ratio >= 0.0 or log_ratio > np.log(rng.uniform(1e-300, 1.0)):
                    swaps_accepted += 1
                    states[[a, b]] = states[[b, a]]
                    inputs[[a, b]] = inputs[[b, a]]
                    energies[[a, b]] = energies[[b, a]]

    order = np.argsort(-betas)  # coldest first
    acceptance = swaps_accepted / swaps_attempted if swaps_attempted else 0.0
    return PTResult(
        best_sample=best_sample,
        best_energy=best_energy,
        replica_samples=states[order].copy(),
        replica_energies=energies[order].copy(),
        num_sweeps=num_sweeps,
        swap_acceptance=acceptance,
    )
