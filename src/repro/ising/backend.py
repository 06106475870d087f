"""The batched annealing-backend protocol every Ising machine speaks.

The paper's claim that SAIM "is compatible with any programmable Ising
machine" is realized here as a small structural contract: a backend owns one
Hamiltonian, lets the driver reprogram the linear fields cheaply, and anneals
``R`` independent replicas in one call, returning array-shaped results.
Everything above this layer — the SAIM engine, the ``repro.solve`` front
door, the benchmarks — talks to machines exclusively through this surface.

Hardware IMs are massively parallel, so the batch call is the only one the
engine makes: ``anneal_many(schedule, R)`` is one programmed "shot" of ``R``
replicas, and a machine's single-run ``anneal`` is just the ``R = 1`` view
of it.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Protocol, runtime_checkable

import numpy as np

from repro.utils.validation import check_integer

#: Coefficient-storage precisions the machines support.  ``float64`` is the
#: exact reference; ``float32`` halves memory traffic and doubles BLAS
#: throughput on the big-R batched kernels.  Energies are always accumulated
#: in float64 regardless of the storage dtype, so integer-weight Hamiltonians
#: (whose coefficients float32 represents exactly) report exact energies in
#: both precisions.
SUPPORTED_DTYPES = ("float64", "float32")


def resolve_dtype(dtype) -> np.dtype:
    """Canonicalize a machine-storage dtype spec (``None`` means float64).

    Accepts the strings ``"float64"`` / ``"float32"``, numpy dtypes, or the
    numpy scalar types; anything else raises with the supported list.
    """
    if dtype is None:
        return np.dtype(np.float64)
    try:
        resolved = np.dtype(dtype)
    except TypeError:
        raise ValueError(
            f"unsupported backend dtype {dtype!r}; choose from {SUPPORTED_DTYPES}"
        ) from None
    if resolved.name not in SUPPORTED_DTYPES:
        raise ValueError(
            f"unsupported backend dtype {dtype!r}; choose from {SUPPORTED_DTYPES}"
        )
    return resolved


def check_replicas(num_replicas) -> None:
    """Raise ``ValueError`` unless ``num_replicas`` is an integer >= 1.

    A ``bool`` is not a replica count, and neither is a float or a string
    that holds a whole number.
    """
    check_integer(num_replicas, "num_replicas", 1)


def check_start(num_replicas, num_spins: int, initial=None):
    """Check one ``anneal_many`` call's replica count and start spins.

    Every machine's ``anneal_many`` calls this.  Returns ``initial``
    as a fresh float ``(R, n)`` array, or ``None`` when it is omitted (the
    machine draws the start).  Raises ``ValueError`` unless
    ``num_replicas`` passes :func:`check_replicas` and ``initial`` has
    shape ``(num_replicas, num_spins)`` with every entry ``-1`` or ``+1``.
    """
    check_replicas(num_replicas)
    if initial is None:
        return None
    states = np.array(initial, dtype=float)
    if states.shape != (num_replicas, num_spins):
        raise ValueError(
            f"initial must have shape ({num_replicas}, {num_spins}), "
            f"got {states.shape}"
        )
    bad = np.abs(states) != 1.0
    if bad.any():
        raise ValueError(
            f"initial must hold only -1 and +1 spins, got "
            f"{float(states[bad][0])!r}"
        )
    return states


@dataclass
class AnnealResult:
    """Outcome of one annealing run.

    Attributes
    ----------
    last_sample:
        Spin state after the final sweep — what the paper's Algorithm 1 reads.
    last_energy:
        Hamiltonian value of ``last_sample``.
    best_sample / best_energy:
        Lowest-energy state seen during the run (tracked for analysis; SAIM
        itself only consumes the last sample).
    num_sweeps:
        Monte-Carlo sweeps performed.
    energy_trace:
        Per-sweep energy if requested, else ``None``.
    """

    last_sample: np.ndarray
    last_energy: float
    best_sample: np.ndarray
    best_energy: float
    num_sweeps: int
    energy_trace: np.ndarray | None = None


@dataclass
class BatchAnnealResult:
    """Array-shaped outcome of ``R`` independent annealing replicas.

    Attributes
    ----------
    last_samples:
        ``(R, n)`` spin states after each replica's final sweep.
    last_energies:
        ``(R,)`` Hamiltonian values of ``last_samples``.
    best_samples / best_energies:
        ``(R, n)`` / ``(R,)`` lowest-energy states seen per replica.
    num_sweeps:
        Monte-Carlo sweeps performed (same for every replica).
    energy_traces:
        ``(R, num_sweeps)`` per-sweep energies if requested, else ``None``.
    """

    last_samples: np.ndarray
    last_energies: np.ndarray
    best_samples: np.ndarray
    best_energies: np.ndarray
    num_sweeps: int
    energy_traces: np.ndarray | None = None

    def __post_init__(self):
        self.last_samples = np.asarray(self.last_samples, dtype=float)
        self.last_energies = np.asarray(self.last_energies, dtype=float)
        self.best_samples = np.asarray(self.best_samples, dtype=float)
        self.best_energies = np.asarray(self.best_energies, dtype=float)
        if self.last_samples.ndim != 2:
            raise ValueError(
                f"last_samples must be (R, n), got shape {self.last_samples.shape}"
            )
        replicas = self.last_samples.shape[0]
        if self.best_samples.shape != self.last_samples.shape:
            raise ValueError(
                f"best_samples shape {self.best_samples.shape} != "
                f"last_samples shape {self.last_samples.shape}"
            )
        if self.last_energies.shape != (replicas,):
            raise ValueError(
                f"last_energies must be ({replicas},), got {self.last_energies.shape}"
            )
        if self.best_energies.shape != (replicas,):
            raise ValueError(
                f"best_energies must be ({replicas},), got {self.best_energies.shape}"
            )

    @property
    def num_replicas(self) -> int:
        """Number of replicas ``R``."""
        return self.last_samples.shape[0]

    @property
    def num_spins(self) -> int:
        """Number of spins ``n``."""
        return self.last_samples.shape[1]

    def per_run(self, index: int) -> AnnealResult:
        """A copy of replica ``index`` as a classic :class:`AnnealResult`."""
        trace = None
        if self.energy_traces is not None:
            trace = self.energy_traces[index].copy()
        return AnnealResult(
            last_sample=self.last_samples[index].copy(),
            last_energy=float(self.last_energies[index]),
            best_sample=self.best_samples[index].copy(),
            best_energy=float(self.best_energies[index]),
            num_sweeps=self.num_sweeps,
            energy_trace=trace,
        )


@runtime_checkable
class AnnealingBackend(Protocol):
    """Structural interface of a programmable, replica-parallel Ising machine.

    Any object with these members can be driven by
    :class:`repro.core.engine.SaimEngine` — that is the repo's rendering of
    the paper's "compatible with any programmable IM" claim.
    """

    @property
    def num_spins(self) -> int:
        """Number of spins the machine samples."""
        ...

    def set_fields(self, fields, offset: float | None = None) -> None:
        """Reprogram the linear fields ``h`` (and optionally the offset).

        The caller keeps ownership of ``fields`` and may reuse the array
        for the next reprogram (the SAIM engine loops one buffer), so
        implementations must copy the values, never alias the argument.
        """
        ...

    def anneal_many(
        self, beta_schedule, num_replicas: int, initial=None
    ) -> BatchAnnealResult:
        """Run ``num_replicas`` independent annealed replicas in one call."""
        ...


def batch_from_runs(runs) -> BatchAnnealResult:
    """Stack per-run :class:`AnnealResult` objects into a batch result."""
    runs = list(runs)
    if not runs:
        raise ValueError("need at least one run to build a BatchAnnealResult")
    traces = None
    if all(run.energy_trace is not None for run in runs):
        traces = np.stack([run.energy_trace for run in runs])
    return BatchAnnealResult(
        last_samples=np.stack([run.last_sample for run in runs]),
        last_energies=np.array([run.last_energy for run in runs]),
        best_samples=np.stack([run.best_sample for run in runs]),
        best_energies=np.array([run.best_energy for run in runs]),
        num_sweeps=runs[0].num_sweeps,
        energy_traces=traces,
    )
