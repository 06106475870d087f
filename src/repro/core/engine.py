"""The unified SAIM engine — one Algorithm 1 loop for any replica count.

Algorithm 1 of the paper alternates an Ising-machine minimization of the
current Lagrangian with a subgradient ascent on the multipliers.  The paper
runs *one* annealing run per multiplier update; hardware IMs are massively
parallel, so the natural generalization runs ``R`` independent replicas of
the same Lagrangian per iteration and feeds the multiplier update from their
aggregate:

- ``"best"`` — the subgradient at the lowest-energy replica (a closer
  surrogate for the true ``argmin L``, per the surrogate-gradient view);
- ``"mean"`` — the average residual over replicas (a smoothed subgradient).

:class:`SaimRun` is the single implementation of everything between two
anneals of one problem: the Lagrangian build (normalize, penalty, the PUBO
check), warm-start validation, reprogramming into a standing fields buffer,
the read-out with incumbent harvest over every replica, the subgradient
step, the early exits and the final :class:`~repro.core.saim.SaimResult`.
Three solvers run it and own only the machines around it:

- :class:`SaimEngine` builds one machine and makes one batched
  ``anneal_many`` call per iteration, optionally warm-restarted.  With
  ``num_replicas=1`` it reproduces the paper's serial Algorithm 1
  bit-for-bit.
- :class:`repro.core.fleet_engine.FleetEngine` advances ``B`` runs through
  one fused fleet kernel call per iteration.
- :class:`repro.core.adaptive_penalty.AdaptivePenaltySaim` escalates its
  run's penalty between feasibility windows.

So every configuration knob — schedule choice, eta decay, normalized
steps, warm-started multipliers, early exits — works identically at any
replica count and in every solver.

The engine drives machines exclusively through the
:class:`repro.ising.backend.AnnealingBackend` protocol; machines exposing
only a serial ``anneal`` are adapted automatically via
:func:`repro.ising.backend.dispatch_anneal_many`.
"""

from __future__ import annotations

import inspect
import math
import numbers

import numpy as np

from repro.core.encoding import (
    EncodedProblem,
    encode_with_slacks,
    normalize_problem,
)
from repro.core.lagrangian import LagrangianIsing
from repro.core.penalty import density_heuristic_penalty
from repro.core.poly import PolyLagrangianIsing, PolyProblem
from repro.core.problem import ConstrainedProblem
from repro.core.results import FeasibleRecord, SolveTrace
from repro.core.saim import _ETA_DECAYS, _SCHEDULES, SaimConfig, SaimResult
from repro.ising.backend import dispatch_anneal_many
from repro.ising.pbit import PBitMachine
from repro.utils.rng import ensure_rng

AGGREGATES = ("best", "mean")
RESTARTS = ("random", "warm")


def check_loop_knobs(num_replicas: int, aggregate: str, restart: str) -> None:
    """Raise ``ValueError`` unless :class:`SaimEngine` runs this replica
    count, replica aggregate and restart policy."""
    if isinstance(num_replicas, bool) or not isinstance(
        num_replicas, numbers.Integral
    ):
        raise ValueError(
            f"num_replicas must be an integer, got {num_replicas!r}"
        )
    if num_replicas < 1:
        raise ValueError(f"num_replicas must be >= 1, got {num_replicas}")
    if aggregate not in AGGREGATES:
        raise ValueError(
            f"aggregate must be one of {AGGREGATES}, got {aggregate!r}"
        )
    if restart not in RESTARTS:
        raise ValueError(
            f"restart must be one of {RESTARTS}, got {restart!r}"
        )


def check_initial_lambdas(initial_lambdas, num_multipliers: int) -> np.ndarray:
    """``initial_lambdas`` as a fresh float vector, raising ``ValueError``
    unless it is finite with one entry per multiplier (constraint row)."""
    lambdas = np.array(initial_lambdas, dtype=float)
    if lambdas.shape != (num_multipliers,) or not np.all(np.isfinite(lambdas)):
        raise ValueError(
            f"initial_lambdas must be a finite vector of shape "
            f"({num_multipliers},), got shape {lambdas.shape} "
            f"values {lambdas}"
        )
    return lambdas


class SaimEngine:
    """Replica-parameterized driver of Algorithm 1.

    Parameters
    ----------
    config:
        The usual SAIM hyper-parameters (:class:`repro.core.saim.SaimConfig`).
    num_replicas:
        Annealing replicas per iteration; each iteration is one batched
        ``anneal_many`` call on the backend.  ``1`` is the paper's serial
        algorithm.
    aggregate:
        How replicas feed the multiplier update: ``"best"`` (lowest-energy
        replica's subgradient) or ``"mean"`` (average residual).
    machine_factory:
        Any callable ``factory(model, rng) -> machine`` whose machine
        exposes ``set_fields(fields, offset)`` and either ``anneal_many``
        (the :class:`~repro.ising.backend.AnnealingBackend` protocol) or a
        serial ``anneal``.  Defaults to the p-bit machine of Section III-B.
        ``set_fields`` must **copy** its argument: the engine reprograms
        through one standing buffer that it overwrites every iteration (a
        machine that stores the array by reference would see its fields
        silently rewritten mid-solve).  All registered backends copy; the
        contract is pinned in ``tests/ising/test_backend.py``.
    restart:
        Where each iteration's annealing replicas start: ``"random"``
        (the paper — fresh uniform spins every run) or ``"warm"`` — each
        run resumes from the previous iteration's final spins.  Warm
        restarts make annealing state *solve-resident*: the lock-step
        machines recognize the returning spins and reprogram their input
        fields from the field delta instead of recomputing the
        ``O(N^2 R)`` start-of-run matmul, and the anneal continues from an
        already-low-energy state (the beta schedule still re-heats it each
        iteration, which is what keeps the chain exploring).
    """

    def __init__(
        self,
        config: SaimConfig | None = None,
        num_replicas: int = 1,
        aggregate: str = "best",
        machine_factory=None,
        restart: str = "random",
    ):
        check_loop_knobs(num_replicas, aggregate, restart)
        self.config = config if config is not None else SaimConfig()
        self.num_replicas = num_replicas
        self.aggregate = aggregate
        self.restart = restart
        self.machine_factory = (
            machine_factory if machine_factory is not None else PBitMachine
        )

    def _build_machine(self, model, rng, dtype: str | None):
        """Build the backend, threading an explicit ``config.dtype``.

        The default ``None`` keeps the historical two-argument factory
        contract (the factory's own precision default applies), so user
        factories without a dtype knob keep working.  An explicit dtype is
        forwarded so it overrides any builder-time default; a factory
        whose signature takes no ``dtype`` can still honor an explicit
        ``"float64"`` (that IS its default) but fails loudly on
        ``"float32"``.  A TypeError raised *inside* a dtype-aware factory
        propagates untouched.
        """
        if dtype is None:
            return self.machine_factory(model, rng=rng)
        try:
            parameters = inspect.signature(self.machine_factory).parameters
            accepts_dtype = "dtype" in parameters or any(
                p.kind is inspect.Parameter.VAR_KEYWORD
                for p in parameters.values()
            )
        except (TypeError, ValueError):  # builtins/extensions: just try it
            accepts_dtype = True
        if accepts_dtype:
            return self.machine_factory(model, rng=rng, dtype=dtype)
        if dtype == "float64":
            return self.machine_factory(model, rng=rng)
        raise ValueError(
            f"SaimConfig(dtype={dtype!r}) needs a dtype-aware machine "
            f"factory, but {self.machine_factory!r} takes no dtype keyword"
        )

    def solve(self, problem: ConstrainedProblem, rng=None,
              initial_lambdas=None) -> SaimResult:
        """Run the engine loop on ``problem``; returns the best feasible find.

        ``problem`` may contain inequalities — they are slack-encoded and
        normalized internally, and all reported solutions/costs refer back
        to the original problem.  ``initial_lambdas`` warm-starts the
        multipliers (the paper always starts from zero).
        """
        encoded = encode_with_slacks(problem)
        return self.solve_encoded(encoded, rng=rng, initial_lambdas=initial_lambdas)

    def solve_encoded(self, encoded: EncodedProblem, rng=None,
                      initial_lambdas=None) -> SaimResult:
        """Run the engine loop on an already slack-encoded problem."""
        run = SaimRun(
            encoded, self.config, self.num_replicas, self.aggregate,
            initial_lambdas, self.machine_factory,
        )
        machine = self._build_machine(
            run.lagrangian.base_ising, ensure_rng(rng), self.config.dtype
        )
        # With restart="warm" each run resumes from the previous one's
        # final spins (solve-resident annealing); with "random" (the
        # paper) every run starts fresh.
        initial = None
        for k in range(self.config.num_iterations):
            machine.set_fields(*run.program(k))
            batch = dispatch_anneal_many(
                machine, run.schedule, self.num_replicas, initial=initial
            )
            if self.restart == "warm":
                initial = batch.last_samples
            if not run.advance(batch, k):
                break
        return run.result()


class SaimRun:
    """One problem's Algorithm 1 state between two anneals.

    The caller owns the machine.  For each iteration ``k`` it programs the
    machine with :meth:`program`, anneals, and passes the batch to
    :meth:`advance`; it stops when that returns ``False`` or the budget
    is spent, and :meth:`result` assembles the
    :class:`~repro.core.saim.SaimResult`.

    Parameters
    ----------
    encoded:
        The slack-encoded problem.  It is normalized here; every reported
        solution and cost refers back to ``encoded.source``.
    config, num_replicas, aggregate:
        As for :class:`SaimEngine`, which validates them.
    initial_lambdas:
        Warm-start multipliers: ``None`` (the paper's zero start) or a
        finite vector with one entry per equality row.
    machine_factory:
        What the caller builds its machine with.  Only its
        ``accepts_poly`` flag and name are read: a polynomial (PUBO)
        objective is refused unless the machine accepts one.
    """

    lagrangian: LagrangianIsing | PolyLagrangianIsing

    def __init__(self, encoded: EncodedProblem, config: SaimConfig,
                 num_replicas: int = 1, aggregate: str = "best",
                 initial_lambdas=None, machine_factory=PBitMachine):
        self.encoded = encoded
        self.config = config
        self.num_replicas = num_replicas
        self.aggregate = aggregate
        self.schedule = _SCHEDULES[config.schedule](
            config.beta_max, config.mcs_per_run
        )
        self.normalized, _scales = normalize_problem(encoded.problem)
        if isinstance(self.normalized, PolyProblem) and not getattr(
            machine_factory, "accepts_poly", False
        ):
            label = getattr(machine_factory, "backend_name", None) or getattr(
                machine_factory, "__name__", repr(machine_factory)
            )
            raise ValueError(
                "problem has a polynomial (PUBO) objective; the "
                f"{label!r} backend only handles quadratic "
                "models — solve with backend='higher_order'"
            )
        if config.penalty is not None:
            self.set_penalty(float(config.penalty))
        else:
            self.set_penalty(
                density_heuristic_penalty(self.normalized, alpha=config.alpha)
            )

        num_multipliers = self.lagrangian.num_multipliers
        if initial_lambdas is None:
            self.lambdas = np.zeros(num_multipliers)
        else:
            self.lambdas = check_initial_lambdas(initial_lambdas,
                                                 num_multipliers)
        k_total = config.num_iterations
        self.history = SolveTrace(
            sample_costs=np.empty(k_total),
            feasible=np.zeros(k_total, dtype=bool),
            lambdas=np.empty((k_total, num_multipliers)),
            energies=np.empty(k_total),
        )
        self.best_x: np.ndarray | None = None
        self.best_cost = np.inf
        self.feasible_records: list[FeasibleRecord] = []
        self.k_ran = 0
        self._stall = 0
        self._fields = np.empty(self.lagrangian.num_spins)

    def set_penalty(self, penalty: float) -> None:
        """(Re)build the Lagrangian at quadratic penalty ``P``.

        The multipliers carry over (``lambda`` and ``P`` shape the
        landscape independently); the caller rebuilds its machine from
        the new ``lagrangian.base_ising``.
        """
        self.penalty = penalty
        if isinstance(self.normalized, PolyProblem):
            self.lagrangian = PolyLagrangianIsing(self.normalized, penalty)
        else:
            self.lagrangian = LagrangianIsing(self.normalized, penalty)

    def program(self, k: int) -> tuple[np.ndarray, float]:
        """Record ``lambda_k``; return the ``(fields, offset)`` to program.

        One ``program_for`` matvec into one standing buffer: machines copy
        on ``set_fields``, so the loop allocates no field arrays.
        """
        self.history.lambdas[k] = self.lambdas
        return self.lagrangian.program_for(self.lambdas, out=self._fields)

    def advance(self, batch, k: int) -> bool:
        """Read out iteration ``k``'s anneal and step the multipliers.

        Returns ``False`` once an early exit fires (``target_cost`` or
        ``patience``; both off by default — the paper always spends the
        full budget).
        """
        config = self.config
        replicas = self.num_replicas
        source = self.encoded.source
        # One coherent read-out view: with read_best the consumed samples
        # AND the energies that rank/trace them come from the per-replica
        # best, never mixed with the last-sweep arrays.
        if config.read_best:
            samples, energies = batch.best_samples, batch.best_energies
        else:
            samples, energies = batch.last_samples, batch.last_energies
        samples, energies = np.asarray(samples), np.asarray(energies)
        n = self.lagrangian.num_spins
        if samples.shape != (replicas, n) or energies.shape != (replicas,):
            raise ValueError(
                f"batch samples {samples.shape} / energies {energies.shape} "
                f"do not match this run's ({replicas}, {n}) / ({replicas},)"
            )
        # The batch as 0/1 once: int8 rows are what a kept solution
        # stores, float rows what every check and product reads.
        bits = ((samples + 1) / 2).astype(np.int8)
        xs = bits.astype(float)
        n0 = self.encoded.num_original

        # Harvest every replica's read-out for the incumbent.
        improved = False
        feasible = []
        costs = {}
        kept = {}  # the (n0,) solutions copied out, by replica
        for r in range(replicas):
            feasible.append(source.is_feasible(xs[r, :n0]))
            if not feasible[r]:
                continue
            cost = costs[r] = source.objective(xs[r, :n0])
            if cost < self.best_cost:
                self.best_cost = cost
                self.best_x = kept[r] = bits[r, :n0].copy()
                improved = True

        # The lead replica feeds the trace and (for "best") the update.
        mean = self.aggregate == "mean" and replicas > 1
        lead = int(np.argmin(energies)) if replicas > 1 and not mean else 0
        if feasible[lead]:
            cost_lead = costs[lead]
        else:
            cost_lead = source.objective(xs[lead, :n0])
        self.history.sample_costs[k] = cost_lead
        self.history.energies[k] = energies[lead]
        if feasible[lead]:
            self.history.feasible[k] = True
            x_lead = kept[lead] if lead in kept else bits[lead, :n0].copy()
            self.feasible_records.append(
                FeasibleRecord(iteration=k, x=x_lead, cost=cost_lead)
            )

        if mean:
            residual = np.mean(
                [self.lagrangian.residuals(x) for x in xs], axis=0
            )
        else:
            residual = self.lagrangian.residuals(xs[lead])
        step = config.eta * _ETA_DECAYS[config.eta_decay](k)
        direction = residual
        if config.normalize_step:
            # What np.linalg.norm computes for a vector, without its
            # dispatch.
            norm = math.sqrt(residual.dot(residual))
            if norm > 1e-12:
                direction = residual / norm
        self.lambdas = self.lambdas + step * direction
        self.k_ran = k + 1

        if self.best_x is None:
            return True
        if (
            config.target_cost is not None
            and self.best_cost <= config.target_cost + 1e-12
        ):
            return False
        if config.patience is not None:
            self._stall = 0 if improved else self._stall + 1
            if self._stall >= config.patience:
                return False
        return True

    def result(self) -> SaimResult:
        """The run's :class:`~repro.core.saim.SaimResult` so far."""
        k = self.k_ran
        trace = None
        if self.config.record_trace:
            history = self.history
            trace = SolveTrace(
                sample_costs=history.sample_costs[:k],
                feasible=history.feasible[:k],
                lambdas=history.lambdas[:k],
                energies=history.energies[:k],
            )
        return SaimResult(
            best_x=self.best_x,
            best_cost=float(self.best_cost),
            feasible_records=self.feasible_records,
            penalty=self.penalty,
            final_lambdas=self.lambdas,
            num_iterations=k,
            mcs_per_run=self.config.mcs_per_run,
            trace=trace,
            num_replicas=self.num_replicas,
        )
