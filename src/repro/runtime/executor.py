"""Sharded batch execution of :func:`repro.solve` jobs.

The paper's pitch is massively parallel Ising hardware; in software the
matching axis of parallelism is *across solves* — instances, seeds, methods,
backends, configurations are all independent once a job is specified.  This
module turns the pure front door into a batch service entry point:

- :class:`SolveJob` declares one solve — everything :func:`repro.solve`
  accepts, as picklable data (backends by registry *name*, seeds as ints).
- :func:`iter_solve_many` fans a list of jobs across a
  ``ProcessPoolExecutor`` and yields :class:`JobOutcome` objects *as they
  complete* (each carrying a :class:`repro.core.report.SolveReport`), so
  callers can stream results.
- :func:`solve_many` consumes the stream, restores job order, and aggregates
  wall-time/quality statistics into a :class:`SolveManyReport`.

Execution strategies
--------------------
``solve_many(jobs, strategy=...)`` picks *how* the batch runs:

- ``"process"`` (default) — each job is an independent :func:`repro.solve`
  call, sharded across ``max_workers`` processes.  Works for every job.
- ``"fused"`` — the whole batch becomes ONE :func:`repro.solve_fleet` call:
  one in-process fleet that anneals every instance with the p-bit kernel
  once per SAIM iteration.  Requires a *shareable* batch: every job SAIM on the p-bit backend with
  the same config/replicas/aggregate (see :func:`fused_blockers`).  Results
  are bit-identical to ``"process"`` for the same per-job generators.
- ``"auto"`` — ``"fused"`` when the batch is shareable and the instances
  are small, else ``"process"``.

:func:`fleet_jobs` builds a batch whose per-job generators are the
``spawn_rngs`` children of one seed — exactly the streams the fused path
derives itself — so the two strategies are interchangeable run-for-run.

With ``max_workers=1`` no processes are spawned: jobs run in-process, in
order, and the results are bit-identical to looping ``repro.solve`` by hand
(this is also the path tests use, and the only path that accepts
non-picklable job fields such as live ``numpy`` generators).

Picklability contract
---------------------
With ``max_workers > 1`` every job is executed in a worker process, so each
job's fields must pickle, and the job's *backend name* must resolve in the
worker's registry.  The built-in backends register at ``import repro`` time
and always resolve; custom backends registered dynamically via
``repro.register_backend`` from ``__main__`` or a REPL exist only in the
parent process — register them at import time of a module importable by the
workers, or run with ``max_workers=1``.

Usage::

    import repro
    from repro.runtime import SolveJob, solve_many

    jobs = [
        SolveJob(problem=inst, backend=b, num_replicas=r, rng=seed,
                 config_overrides={"num_iterations": 80})
        for b in ("pbit", "quantized")
        for r in (1, 8)
        for seed in range(4)
    ]
    report = repro.solve_many(jobs, max_workers=4)
    print(report.stats.speedup_vs_serial)
    best = min(r.best_cost for r in report.results)
"""

from __future__ import annotations

import concurrent.futures
import time
import traceback
from dataclasses import dataclass, field

import numpy as np

from repro.planner.tunables import AUTO_FUSED_MIN_JOBS

STRATEGIES = ("process", "fused", "auto")


@dataclass(frozen=True)
class SolveJob:
    """One declarative :func:`repro.solve` call.

    Attributes mirror the front door's signature; ``method`` names any
    registered method (SAIM or a classical baseline) with
    ``method_options`` its method-specific settings, ``config_overrides``
    are the keyword overrides (``num_iterations=...`` etc.) merged onto
    ``config``, and ``tag`` is a free-form label carried into reports and
    error messages.  ``backend=None`` selects the method's default
    backend (backend-free methods require it to stay ``None``).
    """

    problem: object
    method: str = "saim"
    backend: str | None = None
    config: object = None
    num_replicas: int = 1
    aggregate: str = "best"
    restart: str = "random"
    rng: object = None
    initial_lambdas: object = None
    backend_options: dict | None = None
    method_options: dict | None = None
    config_overrides: dict = field(default_factory=dict)
    tag: str = ""

    def label(self, index: int) -> str:
        """Human-readable identity of the job (for logs and errors)."""
        if self.tag:
            return self.tag
        name = getattr(self.problem, "name", "") or "problem"
        backend = self.backend if self.backend is not None else "-"
        return (f"job[{index}] {name} method={self.method} "
                f"backend={backend} R={self.num_replicas} rng={self.rng}")


@dataclass
class JobOutcome:
    """Result of executing one :class:`SolveJob`.

    Exactly one of ``result`` / ``error`` is set; ``error`` is the worker's
    formatted traceback (exceptions cross the process boundary as text so
    unpicklable exception objects cannot poison the pool).
    """

    index: int
    job: SolveJob
    result: object = None
    error: str | None = None
    seconds: float = 0.0

    @property
    def ok(self) -> bool:
        """True iff the job completed without raising."""
        return self.error is None


class SolveJobError(RuntimeError):
    """A job in a :func:`solve_many` batch raised; carries the outcome."""

    def __init__(self, outcome: JobOutcome):
        self.outcome = outcome
        super().__init__(
            f"{outcome.job.label(outcome.index)} failed:\n{outcome.error}"
        )


@dataclass(frozen=True)
class SolveManyStats:
    """Wall-time and quality aggregate of one batch.

    ``job_seconds_total`` is the sum of per-job solve times — what a serial
    loop would have cost — so ``speedup_vs_serial`` is the sharding win.
    Quality fields summarize successful results exposing ``best_cost``
    (``nan`` when no job produced a feasible incumbent).  ``strategy`` is
    the *resolved* execution strategy (``"process"`` or ``"fused"`` — never
    ``"auto"``), and under the fused strategy each job's ``seconds`` is the
    indivisible fleet wall time split evenly, so ``speedup_vs_serial`` is
    1.0 by construction there (compare ``wall_seconds`` across strategies
    instead).
    """

    num_jobs: int
    num_ok: int
    num_failed: int
    wall_seconds: float
    job_seconds_total: float
    jobs_per_second: float
    speedup_vs_serial: float
    best_cost: float
    mean_best_cost: float
    strategy: str = "process"

    def summary(self) -> str:
        """One-line digest of the batch.

        Renders ``num_ok``/``num_jobs``, ``wall_seconds``, the resolved
        ``strategy`` tag, ``jobs_per_second``, ``speedup_vs_serial``, and
        the incumbent ``best_cost`` (``nan`` when no job produced a
        feasible incumbent).
        """
        return (
            f"{self.num_ok}/{self.num_jobs} jobs ok in "
            f"{self.wall_seconds:.2f}s wall "
            f"[{self.strategy}] "
            f"({self.jobs_per_second:.2f} jobs/s, "
            f"{self.speedup_vs_serial:.2f}x vs serial); "
            f"best cost {self.best_cost:g}"
        )


@dataclass
class SolveManyReport:
    """Outcomes (in job order) plus aggregate stats of one batch."""

    outcomes: list
    stats: SolveManyStats

    @property
    def results(self) -> list:
        """Per-job results in job order (``None`` for failed jobs)."""
        return [outcome.result for outcome in self.outcomes]

    def failed(self) -> list:
        """Outcomes of jobs that raised."""
        return [outcome for outcome in self.outcomes if not outcome.ok]


def _execute_job(index: int, job: SolveJob) -> JobOutcome:
    """Run one job; module-level so worker processes can unpickle it."""
    from repro.api import solve

    start = time.perf_counter()
    try:
        result = solve(
            job.problem,
            method=job.method,
            backend=job.backend,
            config=job.config,
            num_replicas=job.num_replicas,
            aggregate=job.aggregate,
            restart=job.restart,
            rng=job.rng,
            initial_lambdas=job.initial_lambdas,
            backend_options=job.backend_options,
            method_options=job.method_options,
            **(job.config_overrides or {}),
        )
        error = None
    except Exception:
        result = None
        error = traceback.format_exc()
    return JobOutcome(
        index=index,
        job=job,
        result=result,
        error=error,
        seconds=time.perf_counter() - start,
    )


def _check_jobs(jobs) -> list:
    jobs = list(jobs)
    for index, job in enumerate(jobs):
        if not isinstance(job, SolveJob):
            raise TypeError(
                f"jobs[{index}] must be a SolveJob, got {type(job).__name__}"
            )
    return jobs


def fleet_jobs(problems, rng=None, tags=None, **shared) -> list:
    """Build one :class:`SolveJob` per problem with spawned per-job streams.

    Each job's ``rng`` is the matching child of ``spawn_rngs(rng, B)`` —
    the same per-instance streams the fused fleet path derives from a
    seed — so ``solve_many(fleet_jobs(problems, rng=seed), strategy=s)``
    returns bit-identical results for ``s="process"`` and ``s="fused"``.
    Remaining keyword arguments are shared :class:`SolveJob` fields
    (``config=...``, ``num_replicas=...``, ``config_overrides=...``, ...);
    ``tags`` optionally labels each job.

    The jobs carry live generators, so the process strategy must run them
    with ``max_workers=1`` (the in-process path); pass plain integer seeds
    yourself when sharding across processes.
    """
    from repro.utils.rng import spawn_rngs

    problems = list(problems)
    if "rng" in shared:
        raise TypeError(
            "pass the fleet seed as the rng= argument, not inside the "
            "shared job fields"
        )
    if tags is not None:
        tags = list(tags)
        if len(tags) != len(problems):
            raise ValueError(
                f"need one tag per problem: got {len(tags)} tags for "
                f"{len(problems)} problems"
            )
    rngs = spawn_rngs(rng, len(problems))
    return [
        SolveJob(
            problem=problem, rng=stream,
            tag=tags[index] if tags is not None else "",
            **shared,
        )
        for index, (problem, stream) in enumerate(zip(problems, rngs))
    ]


def fused_blockers(jobs) -> list:
    """Why this batch can NOT run under ``strategy="fused"`` (empty = can).

    The fused path runs every job in one p-bit fleet under one SAIM
    engine, so the jobs must agree on everything that shapes that run: the ``method`` must be ``'saim'`` on the
    ``backend`` ``None``/``'pbit'`` with ``restart='random'`` and no
    ``method_options``, and ``num_replicas``, ``aggregate``, ``config``,
    ``config_overrides``, and ``backend_options`` must match across the
    batch (jobs[0] is the reference).  Per-job ``rng`` and
    ``initial_lambdas`` stay free — the fleet engine keeps those per
    instance.
    """
    jobs = _check_jobs(jobs)
    blockers = []
    if not jobs:
        blockers.append("batch is empty")
        return blockers
    first = jobs[0]
    for index, job in enumerate(jobs):
        label = f"jobs[{index}]"
        if job.method != "saim":
            blockers.append(f"{label}: method {job.method!r} is not 'saim'")
        if job.backend not in (None, "pbit"):
            blockers.append(
                f"{label}: backend {job.backend!r} is not the fused p-bit "
                f"kernel"
            )
        if job.restart != "random":
            blockers.append(f"{label}: restart {job.restart!r} != 'random'")
        if job.method_options:
            blockers.append(f"{label}: method_options are set")
        if job.num_replicas != first.num_replicas:
            blockers.append(
                f"{label}: num_replicas {job.num_replicas} != "
                f"{first.num_replicas}"
            )
        if job.aggregate != first.aggregate:
            blockers.append(
                f"{label}: aggregate {job.aggregate!r} != "
                f"{first.aggregate!r}"
            )
        if job.config != first.config:
            blockers.append(f"{label}: config differs from jobs[0]")
        if (job.config_overrides or {}) != (first.config_overrides or {}):
            blockers.append(
                f"{label}: config_overrides differ from jobs[0]"
            )
        if (job.backend_options or {}) != (first.backend_options or {}):
            blockers.append(
                f"{label}: backend_options differ from jobs[0]"
            )
    return blockers


def _job_num_variables(job) -> int | None:
    """Decision-variable count of a job's problem, if cheaply knowable."""
    for attr in ("num_items", "num_variables"):
        value = getattr(job.problem, attr, None)
        if value is not None:
            return int(value)
    return None


def _resolve_strategy(jobs, strategy: str) -> str:
    """Collapse ``"auto"`` to a concrete strategy; validate ``"fused"``."""
    if strategy not in STRATEGIES:
        raise ValueError(
            f"strategy must be one of {STRATEGIES}, got {strategy!r}"
        )
    if strategy == "fused":
        blockers = fused_blockers(jobs)
        if blockers:
            raise ValueError(
                "strategy='fused' needs a shareable batch; blockers:\n  "
                + "\n  ".join(blockers)
            )
        return "fused"
    if strategy == "auto":
        from repro.planner.plan import plan_batch_strategy

        # The size-cap check is the expensive-free one, so the planner
        # only runs once the batch is known shareable; the fused cap is
        # the host model's calibrated tunable when one is persisted.
        shareable = (
            len(jobs) >= AUTO_FUSED_MIN_JOBS and not fused_blockers(jobs)
        )
        sizes = [_job_num_variables(job) for job in jobs]
        return plan_batch_strategy(sizes, shareable=shareable)
    return "process"


def _execute_fused(jobs) -> list:
    """Run the whole batch as ONE ``repro.solve_fleet`` call.

    Per-job generators are coerced exactly as :func:`repro.solve` coerces
    its ``rng`` argument, so a batch built by :func:`fleet_jobs` (or one
    using plain integer seeds) produces bit-identical results to the
    process strategy.  The fused call is indivisible, so a failure is
    reported on every outcome, and each outcome's ``seconds`` is the fleet
    wall time split evenly.
    """
    from repro.api import solve_fleet
    from repro.utils.rng import ensure_rng

    first = jobs[0]
    start = time.perf_counter()
    try:
        reports = solve_fleet(
            [job.problem for job in jobs],
            backend=first.backend,
            config=first.config,
            num_replicas=first.num_replicas,
            aggregate=first.aggregate,
            restart="random",
            rng=[ensure_rng(job.rng) for job in jobs],
            initial_lambdas=[job.initial_lambdas for job in jobs],
            backend_options=first.backend_options,
            **(first.config_overrides or {}),
        )
    except Exception:
        error = traceback.format_exc()
        share = (time.perf_counter() - start) / len(jobs)
        return [
            JobOutcome(index=index, job=job, error=error, seconds=share)
            for index, job in enumerate(jobs)
        ]
    return [
        JobOutcome(
            index=index, job=job, result=report,
            seconds=report.wall_seconds,
        )
        for index, (job, report) in enumerate(zip(jobs, reports))
    ]


def iter_solve_many(jobs, max_workers: int = 1, strategy: str = "process"):
    """Execute jobs and yield :class:`JobOutcome` objects as they complete.

    ``max_workers=1`` runs in-process, in job order (deterministically
    identical to a plain ``repro.solve`` loop); ``max_workers > 1`` shards
    across a ``ProcessPoolExecutor`` and yields in *completion* order — read
    ``outcome.index`` to restore job order.  Failures are reported in the
    outcome's ``error`` field, never raised from here.

    ``strategy`` picks the execution path (see the module docstring): the
    fused path runs the batch as one in-process fleet call and yields all
    outcomes at its end, in job order, ignoring ``max_workers``.
    """
    if max_workers < 1:
        raise ValueError(f"max_workers must be >= 1, got {max_workers}")
    jobs = _check_jobs(jobs)
    if not jobs:
        return
    if _resolve_strategy(jobs, strategy) == "fused":
        yield from _execute_fused(jobs)
        return
    if max_workers == 1 or len(jobs) == 1:
        for index, job in enumerate(jobs):
            yield _execute_job(index, job)
        return
    workers = min(max_workers, len(jobs))
    with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
        futures = {
            pool.submit(_execute_job, index, job): (index, job)
            for index, job in enumerate(jobs)
        }
        for future in concurrent.futures.as_completed(futures):
            try:
                yield future.result()
            except Exception:
                # Failures that bypass the worker's own error capture —
                # submit-side pickling errors, a crashed pool — still come
                # back through the outcome channel, not as a raw raise.
                index, job = futures[future]
                yield JobOutcome(
                    index=index, job=job, error=traceback.format_exc()
                )


def solve_many(
    jobs,
    max_workers: int = 1,
    raise_on_error: bool = True,
    progress=None,
    strategy: str = "process",
) -> SolveManyReport:
    """Solve a batch of jobs, sharded across processes; aggregate stats.

    Parameters
    ----------
    jobs:
        Iterable of :class:`SolveJob`.
    max_workers:
        Process count; ``1`` (default) runs in-process and bit-identical to
        a serial ``repro.solve`` loop.  Ignored by the fused strategy.
    raise_on_error:
        When true (default) the first failed job raises
        :class:`SolveJobError` after the batch drains; when false, failures
        are recorded per-outcome and execution continues.
    progress:
        Optional callback invoked with each :class:`JobOutcome` as it
        completes (streaming hook for CLIs and services).
    strategy:
        ``"process"`` (default), ``"fused"``, or ``"auto"`` — see the
        module docstring.  ``"fused"`` raises ``ValueError`` listing the
        blockers when the batch is not shareable
        (:func:`fused_blockers`); ``"auto"`` falls back to ``"process"``
        instead.  The resolved choice is recorded in ``stats.strategy``.

    Returns a :class:`SolveManyReport` with outcomes in *job* order.
    """
    jobs = _check_jobs(jobs)
    resolved = _resolve_strategy(jobs, strategy) if jobs else "process"
    start = time.perf_counter()
    outcomes: list[JobOutcome | None] = [None] * len(jobs)
    for outcome in iter_solve_many(
        jobs, max_workers=max_workers, strategy=resolved
    ):
        outcomes[outcome.index] = outcome
        if progress is not None:
            progress(outcome)
    wall = time.perf_counter() - start
    if raise_on_error:
        for outcome in outcomes:
            if outcome is not None and not outcome.ok:
                raise SolveJobError(outcome)
    stats = _aggregate(outcomes, wall, strategy=resolved)
    return SolveManyReport(outcomes=outcomes, stats=stats)


def _aggregate(outcomes, wall_seconds: float,
               strategy: str = "process") -> SolveManyStats:
    num_jobs = len(outcomes)
    ok = [o for o in outcomes if o is not None and o.ok]
    job_seconds = float(sum(o.seconds for o in outcomes if o is not None))
    best_costs = []
    for outcome in ok:
        cost = getattr(outcome.result, "best_cost", None)
        found = getattr(outcome.result, "found_feasible", cost is not None)
        if cost is not None and found and np.isfinite(cost):
            best_costs.append(float(cost))
    return SolveManyStats(
        num_jobs=num_jobs,
        num_ok=len(ok),
        num_failed=num_jobs - len(ok),
        wall_seconds=wall_seconds,
        job_seconds_total=job_seconds,
        jobs_per_second=(num_jobs / wall_seconds) if wall_seconds > 0 else 0.0,
        speedup_vs_serial=(
            job_seconds / wall_seconds if wall_seconds > 0 else 0.0
        ),
        best_cost=min(best_costs) if best_costs else float("nan"),
        mean_best_cost=(
            float(np.mean(best_costs)) if best_costs else float("nan")
        ),
        strategy=strategy,
    )
