"""Sampler diagnostics: flip rates, autocorrelation, distribution checks.

Quality assurance for the Monte-Carlo substrate.  Hardware IM papers track
these to validate emulations against devices; here they are the oracles
the sampler tests check the machines against:

- :func:`flip_rate_profile` — fraction of spins flipped per sweep along an
  anneal (should fall from ~0.5 toward ~0 as beta rises);
- :func:`energy_autocorrelation` — normalized autocorrelation of an energy
  trace at fixed beta (mixing-speed proxy);
- :func:`empirical_distribution` / :func:`boltzmann_distance` — total
  variation distance between sampled states and the exact Boltzmann law
  (eq. 11), exact for small models.
"""

from __future__ import annotations

import numpy as np

from repro.ising.exhaustive import enumerate_energies


def flip_rate_profile(machine, beta_schedule, rng_state=None) -> np.ndarray:
    """Fraction of spins that changed between consecutive sweeps.

    Runs one anneal on ``machine`` (a :class:`PBitMachine`-compatible
    object) recording state snapshots; returns ``len(schedule) - 1`` rates.
    """
    betas = np.asarray(beta_schedule, dtype=float)
    if betas.size < 2:
        raise ValueError("need at least two sweeps to measure flip rates")
    previous = None
    rates = []
    state = None
    for beta in betas:
        result = machine.anneal(np.array([beta]), initial=state)
        state = result.last_sample
        if previous is not None:
            rates.append(float(np.mean(state != previous)))
        previous = state.copy()
    return np.asarray(rates)


def energy_autocorrelation(energy_trace, max_lag: int = 50) -> np.ndarray:
    """Normalized autocorrelation ``rho(1..max_lag)`` of an energy trace."""
    trace = np.asarray(energy_trace, dtype=float)
    if trace.size < 2:
        raise ValueError("need at least two energy samples")
    max_lag = min(max_lag, trace.size - 1)
    centered = trace - trace.mean()
    variance = float(centered @ centered)
    if variance == 0.0:
        return np.zeros(max_lag)
    rhos = np.empty(max_lag)
    for lag in range(1, max_lag + 1):
        rhos[lag - 1] = float(centered[:-lag] @ centered[lag:]) / variance
    return rhos


def integrated_autocorrelation_time(energy_trace, max_lag: int = 50) -> float:
    """``tau = 1 + 2 sum rho(k)`` truncated at the first negative rho."""
    rhos = energy_autocorrelation(energy_trace, max_lag)
    tau = 1.0
    for rho in rhos:
        if rho <= 0:
            break
        tau += 2.0 * rho
    return tau


def empirical_distribution(samples) -> np.ndarray:
    """State-code histogram of ±1 samples (bit i of the code = spin i up)."""
    samples = np.asarray(samples)
    if samples.ndim != 2:
        raise ValueError("samples must be (num_samples, n)")
    n = samples.shape[1]
    codes = ((samples > 0).astype(np.int64) * (2 ** np.arange(n))).sum(axis=1)
    return np.bincount(codes, minlength=2**n) / codes.size


def boltzmann_distance(model, samples, beta: float) -> float:
    """Total variation distance between samples and the exact eq.-11 law."""
    if beta <= 0:
        raise ValueError(f"beta must be positive, got {beta}")
    empirical = empirical_distribution(samples)
    energies = enumerate_energies(model)
    weights = np.exp(-beta * (energies - energies.min()))
    exact = weights / weights.sum()
    return 0.5 * float(np.abs(empirical - exact).sum())
