"""The Self-Adaptive Ising Machine — Algorithm 1 of the paper.

SAIM alternates two processes at different time scales:

- fast: an Ising machine minimizes the current Lagrangian
  ``L_k = f + P ||g||^2 + lambda_k^T g`` (one annealed run per iteration);
- slow: the multipliers climb the dual function by the surrogate subgradient
  ``lambda_{k+1} = lambda_k + eta * g(x_k)`` where ``x_k`` is the run's
  read-out sample.

Feasible read-outs are banked along the way and the best one is returned.
The quadratic penalty ``P`` is set once by the density heuristic
``P = alpha * d * N`` and never tuned — closing the optimality gap is the
multipliers' job (Fig. 1d).

This module holds the hyper-parameters (:class:`SaimConfig`) and the
outcome (:class:`SaimResult`); the loop itself runs in
:class:`repro.core.engine.SaimEngine`, behind :func:`repro.solve`.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, replace

import numpy as np

from repro.core.results import SolveTrace
from repro.core.schedule import (
    geometric_beta_schedule,
    linear_beta_schedule,
)

_SCHEDULES = {
    "linear": linear_beta_schedule,
    "geometric": geometric_beta_schedule,
}

_ETA_DECAYS = {
    "constant": lambda k: 1.0,
    "sqrt": lambda k: 1.0 / np.sqrt(k + 1.0),
    "harmonic": lambda k: 1.0 / (k + 1.0),
}

# Machine coefficient precisions (see repro.ising.backend.SUPPORTED_DTYPES;
# duplicated as plain strings so the config layer stays import-light).
_DTYPES = ("float64", "float32")


@dataclass(frozen=True)
class SaimConfig:
    """Hyper-parameters of Algorithm 1 (paper Table I).

    Attributes
    ----------
    num_iterations:
        ``K`` — number of annealing runs / multiplier updates.
    mcs_per_run:
        Monte-Carlo sweeps per annealing run.
    beta_max:
        End point of the beta schedule (start is 0 for the linear default).
    eta:
        Multiplier step size of the subgradient ascent.
    alpha:
        Coefficient of the ``P = alpha * d * N`` penalty heuristic.
    penalty:
        Explicit ``P`` overriding the heuristic when not ``None``.
    schedule:
        ``"linear"`` (paper) or ``"geometric"`` (ablation).
    eta_decay:
        Multiplier step-size schedule: ``"constant"`` (the paper's choice),
        ``"sqrt"`` (``eta / sqrt(k+1)``) or ``"harmonic"`` (``eta / (k+1)``).
        The decaying variants are the classical diminishing-step subgradient
        schedules; they damp the oscillation of constant steps on small
        instances and are exercised by the ablation benchmarks.
    normalize_step:
        Use the normalized subgradient ``g / ||g||_2`` in the multiplier
        update.  The paper uses the raw residual; the normalized variant
        makes the multiplier climb rate instance-independent, which is what
        keeps heavily-reduced iteration budgets robust across instances
        whose lambda* differ by orders of magnitude (used by the CI-scale
        benchmark presets and studied in the eta ablation).
    read_best:
        Read each run's best-energy sample instead of its last sample.  The
        paper reads the last sample; this switch exists for ablations.
    record_trace:
        Keep the full per-iteration history (costs, feasibility, lambdas).
    target_cost:
        Stop early once a feasible incumbent reaches this original-scale
        cost (``None`` disables; the paper always runs the full budget).
    patience:
        Stop early after this many iterations without incumbent improvement
        (``None`` disables).  Counts only iterations after the first
        feasible sample, so the multiplier transient is never cut short.
    dtype:
        Coefficient storage / annealing-scan precision of the machine the
        engine builds: ``"float64"`` (exact reference) or ``"float32"``
        (the big-R fast path; halves kernel memory traffic).  The default
        ``None`` leaves the choice to the machine factory (float64 for
        every registered backend unless ``backend_options`` say
        otherwise); an explicit value *pins* the precision — it overrides
        the factory's own default and conflicts loudly with a differing
        ``backend_options`` dtype.  Energy read-outs are
        float64-accumulated at either setting, and the machine factory
        must accept a ``dtype`` keyword for ``"float32"`` (all registered
        backends do).
    """

    num_iterations: int = 2000
    mcs_per_run: int = 1000
    beta_max: float = 10.0
    eta: float = 20.0
    alpha: float = 2.0
    penalty: float | None = None
    schedule: str = "linear"
    eta_decay: str = "constant"
    normalize_step: bool = False
    read_best: bool = False
    record_trace: bool = True
    target_cost: float | None = None
    patience: int | None = None
    dtype: str | None = None

    def __post_init__(self):
        for name in ("num_iterations", "mcs_per_run"):
            value = getattr(self, name)
            if not isinstance(value, numbers.Integral) or value <= 0:
                raise ValueError(
                    f"{name} must be a positive integer, got {value!r}"
                )
        for name in ("beta_max", "eta", "alpha"):
            value = getattr(self, name)
            if not (math.isfinite(value) and value > 0):
                raise ValueError(
                    f"{name} must be positive and finite, got {value}"
                )
        if self.penalty is not None and not math.isfinite(self.penalty):
            raise ValueError(f"penalty must be finite, got {self.penalty}")
        if self.schedule not in _SCHEDULES:
            raise ValueError(
                f"unknown schedule {self.schedule!r}; choose from {sorted(_SCHEDULES)}"
            )
        if self.eta_decay not in _ETA_DECAYS:
            raise ValueError(
                f"unknown eta_decay {self.eta_decay!r}; choose from {sorted(_ETA_DECAYS)}"
            )
        if self.patience is not None and (
            not isinstance(self.patience, numbers.Integral) or self.patience < 1
        ):
            raise ValueError(
                f"patience must be an integer >= 1, got {self.patience!r}"
            )
        if self.dtype is not None and self.dtype not in _DTYPES:
            raise ValueError(
                f"unknown dtype {self.dtype!r}; choose from {_DTYPES}"
            )

    @classmethod
    def qkp_paper(cls, **overrides) -> "SaimConfig":
        """Paper Table I settings for QKP: P=2dN, 1000 MCS, 2000 runs,
        beta_max=10, eta=20."""
        params = dict(
            num_iterations=2000,
            mcs_per_run=1000,
            beta_max=10.0,
            eta=20.0,
            alpha=2.0,
        )
        params.update(overrides)
        return cls(**params)

    @classmethod
    def mkp_paper(cls, **overrides) -> "SaimConfig":
        """Paper Table I settings for MKP: P=5dN, 1000 MCS, 5000 runs,
        beta_max=50, eta=0.05."""
        params = dict(
            num_iterations=5000,
            mcs_per_run=1000,
            beta_max=50.0,
            eta=0.05,
            alpha=5.0,
        )
        params.update(overrides)
        return cls(**params)

    def scaled(
        self,
        iteration_factor: float = 1.0,
        mcs_factor: float = 1.0,
        compensate_eta: bool = False,
    ) -> "SaimConfig":
        """Return a budget-scaled copy (used by the CI-sized benchmarks).

        With ``compensate_eta`` the multiplier step grows by
        ``1 / iteration_factor`` so the total multiplier climb
        ``K * eta * mean(g)`` is budget-invariant — without it, a K scaled
        far below the paper's value leaves the multipliers too small to ever
        reach the feasible region (most visible for MKP, where the paper's
        eta = 0.05 assumes K = 5000).
        """
        eta = self.eta / iteration_factor if compensate_eta else self.eta
        return replace(
            self,
            num_iterations=max(1, int(round(self.num_iterations * iteration_factor))),
            mcs_per_run=max(1, int(round(self.mcs_per_run * mcs_factor))),
            eta=eta,
        )


@dataclass
class SaimResult:
    """Outcome of one SAIM solve.

    ``best_x``/``best_cost`` are in the original problem's variables and
    objective scale; ``best_x`` is ``None`` when no feasible sample was ever
    read out.  ``feasible_ratio`` matches the parenthesized percentages the
    paper reports next to average accuracies.

    ``num_iterations`` is always the number of multiplier updates ``K``,
    whatever the replica count; replica-aware sweep accounting lives in the
    dedicated ``total_mcs`` field (``K * R * mcs_per_run`` by default).
    """

    best_x: np.ndarray | None
    best_cost: float
    feasible_records: list
    penalty: float
    final_lambdas: np.ndarray
    num_iterations: int
    mcs_per_run: int
    trace: SolveTrace | None = None
    num_replicas: int = 1
    total_mcs: int | None = None

    def __post_init__(self):
        if self.total_mcs is None:
            self.total_mcs = (
                self.num_iterations * self.num_replicas * self.mcs_per_run
            )

    @property
    def found_feasible(self) -> bool:
        """True iff at least one feasible sample was read out."""
        return self.best_x is not None

    @property
    def num_feasible(self) -> int:
        """Count of feasible read-out samples."""
        return len(self.feasible_records)

    @property
    def feasible_ratio(self) -> float:
        """Fraction of iterations whose lead read-out was feasible."""
        return self.num_feasible / self.num_iterations

    def average_feasible_cost(self) -> float:
        """Mean original-objective cost over feasible samples (nan if none)."""
        if not self.feasible_records:
            return float("nan")
        return float(np.mean([record.cost for record in self.feasible_records]))
