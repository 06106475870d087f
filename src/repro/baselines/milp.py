"""Exact MKP solutions via scipy's HiGHS MILP solver.

The paper obtains Table V's reference optima with Matlab's ``intlinprog``
branch & bound; ``scipy.optimize.milp`` (HiGHS) is the equivalent here.
Solve time is recorded as the paper does to indicate instance difficulty.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

import numpy as np

from repro.problems.mkp import MkpInstance


@dataclass
class MilpResult:
    """Exact solver outcome: optimal selection, profit, and wall time."""

    x: np.ndarray
    profit: float
    solve_seconds: float
    status: str


def solve_mkp_exact(instance: MkpInstance, time_limit: float | None = None) -> MilpResult:
    """Solve ``max h^T x  s.t.  A x <= B`` exactly (binary ``x``).

    Raises ``RuntimeError`` if HiGHS does not prove optimality within the
    optional time limit (callers treat the incumbent as a bound instead).
    """
    from scipy.optimize import Bounds, LinearConstraint, milp

    n = instance.num_items
    constraints = LinearConstraint(
        instance.weights, -np.inf, instance.capacities
    )
    options = {}
    if time_limit is not None:
        options["time_limit"] = float(time_limit)
    start = time.perf_counter()
    result = milp(
        c=-instance.values,  # milp minimizes
        constraints=constraints,
        integrality=np.ones(n),
        bounds=Bounds(0, 1),
        options=options,
    )
    elapsed = time.perf_counter() - start
    if result.x is None:
        raise RuntimeError(f"MILP failed on {instance.name!r}: {result.message}")
    x = np.round(result.x).astype(np.int8)
    return MilpResult(
        x=x,
        profit=float(instance.values @ x),
        solve_seconds=elapsed,
        status=result.message,
    )


def milp_solve(instance, time_limit: float | None = None) -> MilpResult:
    """Front-door entry of the ``"milp"`` method: exact linear knapsacks.

    HiGHS handles *linear* objectives, so this accepts MKP instances only;
    QKP's quadratic objective gets a pointed redirect to the exact methods
    that do handle it.
    """
    require_linear(instance)
    return solve_mkp_exact(instance, time_limit=time_limit)


def require_linear(instance) -> None:
    """Raise ``TypeError`` unless ``instance`` is a linear-objective MKP."""
    if not isinstance(instance, MkpInstance):
        raise TypeError(
            f"the milp method solves linear-objective MKP instances, got "
            f"{type(instance).__name__} (for QKP use method='bnb' or "
            f"'exhaustive')"
        )


def mkp_lp_bound(instance: MkpInstance) -> float:
    """Upper bound on the optimal profit from the LP relaxation."""
    from scipy.optimize import linprog

    result = linprog(
        c=-instance.values,
        A_ub=instance.weights,
        b_ub=instance.capacities,
        bounds=[(0, 1)] * instance.num_items,
        method="highs",
    )
    if not result.success:
        raise RuntimeError(f"LP relaxation failed on {instance.name!r}: {result.message}")
    return float(-result.fun)
