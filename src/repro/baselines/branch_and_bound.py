"""Depth-first branch & bound for MKP with an LP-relaxation bound.

An independent exact solver used to cross-validate
:func:`repro.baselines.milp.solve_mkp_exact` in the tests (two
implementations agreeing is the repo's substitute for the paper's
commercial ``intlinprog`` reference), and to expose node counts for the
difficulty column of Table V.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.baselines.greedy import greedy_mkp
from repro.problems.mkp import MkpInstance


@dataclass
class BnBResult:
    """Exact B&B outcome with search statistics."""

    x: np.ndarray
    profit: float
    nodes_explored: int
    nodes_pruned: int


def _lp_bound(instance: MkpInstance, fixed_zero: set, fixed_one: set) -> tuple[float, np.ndarray | None]:
    """LP-relaxation profit bound under partial fixing; (bound, lp_x)."""
    from scipy.optimize import linprog

    n = instance.num_items
    bounds = []
    for i in range(n):
        if i in fixed_zero:
            bounds.append((0.0, 0.0))
        elif i in fixed_one:
            bounds.append((1.0, 1.0))
        else:
            bounds.append((0.0, 1.0))
    result = linprog(
        c=-instance.values,
        A_ub=instance.weights,
        b_ub=instance.capacities,
        bounds=bounds,
        method="highs",
    )
    if not result.success:
        return -np.inf, None  # infeasible subproblem
    return float(-result.fun), result.x


def branch_and_bound_mkp(
    instance: MkpInstance,
    max_nodes: int = 100000,
) -> BnBResult:
    """Exact depth-first B&B, branching on the most fractional LP variable.

    Raises ``RuntimeError`` if the node budget is exhausted before the
    search tree is closed (the caller should fall back to the MILP solver).
    """
    incumbent = greedy_mkp(instance)
    incumbent_profit = instance.profit(incumbent)

    nodes_explored = 0
    nodes_pruned = 0
    stack = [(frozenset(), frozenset())]
    best_x = incumbent
    best_profit = incumbent_profit

    while stack:
        if nodes_explored >= max_nodes:
            raise RuntimeError(
                f"branch and bound exceeded {max_nodes} nodes on {instance.name!r}"
            )
        fixed_zero, fixed_one = stack.pop()
        nodes_explored += 1
        bound, lp_x = _lp_bound(instance, fixed_zero, fixed_one)
        if lp_x is None or bound <= best_profit + 1e-9:
            nodes_pruned += 1
            continue
        fractional = [
            i
            for i in range(instance.num_items)
            if i not in fixed_zero and i not in fixed_one and 1e-9 < lp_x[i] < 1 - 1e-9
        ]
        if not fractional:
            candidate = np.round(lp_x).astype(np.int8)
            if instance.is_feasible(candidate):
                profit = instance.profit(candidate)
                if profit > best_profit:
                    best_profit = profit
                    best_x = candidate
            continue
        branch_var = max(fractional, key=lambda i: min(lp_x[i], 1 - lp_x[i]))
        stack.append((fixed_zero | {branch_var}, fixed_one))
        stack.append((fixed_zero, fixed_one | {branch_var}))

    return BnBResult(
        x=np.asarray(best_x, dtype=np.int8),
        profit=float(best_profit),
        nodes_explored=nodes_explored,
        nodes_pruned=nodes_pruned,
    )


def bnb_solve(instance, max_nodes: int | None = None):
    """Front-door entry of the ``"bnb"`` method: exact depth-first search.

    Dispatches on the instance family — this module's LP-bounded B&B for
    MKP, :func:`repro.baselines.qkp_bounds.branch_and_bound_qkp` for QKP.
    Returns a :class:`BnBResult` or
    :class:`~repro.baselines.qkp_bounds.QkpBnBResult`.
    """
    if isinstance(instance, MkpInstance):
        kwargs = {} if max_nodes is None else {"max_nodes": max_nodes}
        return branch_and_bound_mkp(instance, **kwargs)
    from repro.problems.qkp import QkpInstance

    if isinstance(instance, QkpInstance):
        from repro.baselines.qkp_bounds import branch_and_bound_qkp

        kwargs = {} if max_nodes is None else {"max_nodes": max_nodes}
        return branch_and_bound_qkp(instance, **kwargs)
    raise TypeError(
        f"bnb_solve needs a QkpInstance or MkpInstance, "
        f"got {type(instance).__name__}"
    )
