"""Stateful solve sessions: warm-started resolves of perturbed instances.

The paper's Section IV points at re-solving *families* of related
instances — demand shifts a capacity, prices jitter item values — where
the learned Lagrange multipliers of one solve are a far better starting
point for the next than the paper's cold ``lambda = 0``.  The engine has
accepted ``initial_lambdas`` since PR 1; :class:`SolverSession` is the
missing service surface on top of the front door that *manages* that
state:

- every :meth:`SolverSession.resolve` routes through :func:`repro.solve`
  with the session's pinned method/backend/config;
- the final multipliers of each solve are cached under the problem's
  *structural fingerprint* (family, variable count, constraint count) —
  the shape the multiplier vector depends on — so a perturbed variant of
  an already-solved instance warm-starts from the learned multipliers
  instead of climbing from zero;
- :meth:`SolverSession.reset` drops the cache, returning to cold solves.

Usage::

    import repro

    session = repro.SolverSession(num_iterations=60, mcs_per_run=200, rng=7)
    first = session.resolve(instance)               # cold: lambda = 0
    report = session.resolve(perturbed_instance)    # warm: learned lambdas

Warm-starting needs a method with multipliers (``saim``); sessions pinned
to any other method still work as a convenient stateful handle but never
warm-start.
"""

from __future__ import annotations

from collections import OrderedDict

import numpy as np

from repro.api import method_info, solve
from repro.core.report import SolveReport


def problem_fingerprint(problem) -> tuple:
    """Structural identity of a problem: what the multiplier shape hangs on.

    Two instances share a fingerprint iff they are the same problem family
    with the same variable count and the same constraint counts — exactly
    the conditions under which a multiplier vector learned on one has the
    right shape (one entry per constraint) and a meaningful scale for the
    other.  Values (weights, profits, capacities) are deliberately *not*
    hashed: perturbing them is the warm-start use case.
    """
    instance = problem
    if hasattr(problem, "to_problem"):
        problem = problem.to_problem()
    return (
        type(instance).__name__,
        int(problem.num_variables),
        int(problem.equalities.num_constraints),
        int(problem.inequalities.num_constraints),
    )


class SolverSession:
    """A stateful handle over :func:`repro.solve` with multiplier re-use.

    Parameters mirror the front door and are pinned for the session's
    lifetime; per-call ``rng``/keyword overrides go to :meth:`resolve`.
    ``warm_start=False`` pins cold solves while keeping the session
    bookkeeping (reports, solve counts).

    The multiplier cache is LRU-bounded by ``max_entries`` (default
    generous — one entry per distinct problem *fingerprint*, not per
    instance, so most workloads never evict): a long-running daemon
    resolving an unbounded stream of problem shapes stays at bounded
    memory, and :attr:`num_evictions` surfaces the churn.
    """

    def __init__(
        self,
        method: str = "saim",
        backend: str | None = None,
        config=None,
        *,
        num_replicas: int = 1,
        aggregate: str = "best",
        rng=None,
        backend_options: dict | None = None,
        method_options: dict | None = None,
        warm_start: bool = True,
        max_entries: int = 1024,
        **config_overrides,
    ):
        spec = method_info(method)  # raises on unknown methods up front
        if max_entries < 1:
            raise ValueError(f"max_entries must be >= 1, got {max_entries}")
        self.method = method
        self.backend = backend
        self.config = config
        self.num_replicas = num_replicas
        self.aggregate = aggregate
        self.rng = rng
        self.backend_options = backend_options
        self.method_options = method_options
        self.config_overrides = config_overrides
        self.warm_start = bool(warm_start) and spec.uses_lambdas
        self.max_entries = int(max_entries)
        self._uses_lambdas = spec.uses_lambdas
        self._lambdas: OrderedDict[tuple, np.ndarray] = OrderedDict()
        self._num_solves = 0
        self._num_warm = 0
        self._num_evictions = 0

    @property
    def num_solves(self) -> int:
        """Total resolves issued through this session."""
        return self._num_solves

    @property
    def num_warm_starts(self) -> int:
        """Resolves that started from cached multipliers."""
        return self._num_warm

    @property
    def num_cached(self) -> int:
        """Distinct problem fingerprints with cached multipliers."""
        return len(self._lambdas)

    @property
    def num_evictions(self) -> int:
        """Cache entries dropped by the ``max_entries`` LRU bound."""
        return self._num_evictions

    def cached_lambdas(self, problem) -> np.ndarray | None:
        """The multipliers a resolve of ``problem`` would warm-start from."""
        lam = self._lambdas.get(problem_fingerprint(problem))
        return None if lam is None else lam.copy()

    def resolve(
        self, problem, rng=None, warm_start: bool | None = None,
        **config_overrides,
    ) -> SolveReport:
        """Solve ``problem``, warm-starting from any cached multipliers.

        ``rng``, ``warm_start``, and keyword config overrides take
        precedence over the session defaults for this call only
        (``warm_start=False`` forces a cold solve — bit-identical to the
        front door — while still refreshing the cache for later warm
        calls).  The solve's final multipliers (when the method exposes
        them) replace the cache entry for the problem's fingerprint.
        """
        return self._resolve(problem, problem_fingerprint(problem), rng,
                             warm_start, config_overrides)

    def _resolve(self, problem, key: tuple, rng, warm_start,
                 config_overrides: dict) -> SolveReport:
        """:meth:`resolve` under ``key``, the problem's fingerprint as the
        caller already computed it (a service worker derives it once per
        request, since it builds the whole constrained problem)."""
        if warm_start is None:
            warm = self.warm_start
        else:
            warm = bool(warm_start) and self._uses_lambdas
        initial = None
        if warm and key in self._lambdas:
            initial = self._lambdas[key]
            self._lambdas.move_to_end(key)
        overrides = {**self.config_overrides, **config_overrides}
        report = solve(
            problem,
            method=self.method,
            backend=self.backend,
            config=self.config,
            num_replicas=self.num_replicas,
            aggregate=self.aggregate,
            rng=self.rng if rng is None else rng,
            initial_lambdas=None if initial is None else initial.copy(),
            backend_options=self.backend_options,
            method_options=self.method_options,
            **overrides,
        )
        # Bookkeeping only counts solves that actually ran.
        self._num_solves += 1
        if initial is not None:
            self._num_warm += 1
        final = getattr(report.detail, "final_lambdas", None)
        if final is not None:
            self._lambdas[key] = np.asarray(final, dtype=float).copy()
            self._lambdas.move_to_end(key)
            while len(self._lambdas) > self.max_entries:
                self._lambdas.popitem(last=False)
                self._num_evictions += 1
        return report

    def reset(self) -> None:
        """Drop all cached multipliers (next resolves are cold)."""
        self._lambdas.clear()

    def __repr__(self) -> str:
        return (
            f"SolverSession(method={self.method!r}, backend={self.backend!r}, "
            f"solves={self._num_solves}, warm_starts={self._num_warm}, "
            f"cached={self.num_cached})"
        )
