"""Slack-variable encoding and paper-style normalization.

Section IV-A of the paper turns ``A^T x <= b`` into ``A^T x + x_S = b`` with
an integer slack ``0 <= x_S <= b`` written in binary,
``x_S = x_S^0 + 2 x_S^1 + ... + 2^(Q-1) x_S^(Q-1)`` with
``Q = floor(log2(b) + 1)`` extra variables; ``W`` and ``h`` are padded with
zeros and the constraint row is extended with the powers of two.

The paper also normalizes ``W, h`` by ``max(|W|, |h|)`` and ``A, b`` by
``max(|A|, b)`` so one beta schedule fits all instances; that scaling lives
here too so every solver applies it identically.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.poly import PolyProblem
from repro.core.problem import ConstrainedProblem, LinearConstraints
from repro.utils.binary import binary_weights


@dataclass(frozen=True)
class EncodedProblem:
    """An equality-only problem plus the bookkeeping to undo the encoding.

    Attributes
    ----------
    problem:
        The extended problem: original variables first, then one group of
        slack bits per converted inequality; all constraints are equalities.
    num_original:
        How many leading variables are the original decision variables.
    slack_slices:
        One ``slice`` into the extended vector per converted inequality.
    source:
        The problem the encoding was built from (used for feasibility checks
        on the *original* constraints, as the paper does).
    """

    problem: ConstrainedProblem | PolyProblem
    num_original: int
    slack_slices: tuple
    source: ConstrainedProblem | PolyProblem
    slack_weights: tuple = ()

    @property
    def num_slack(self) -> int:
        """Total number of slack bits added."""
        return self.problem.num_variables - self.num_original

    def restrict(self, x_extended) -> np.ndarray:
        """Project an extended assignment back to the original variables."""
        x_extended = np.asarray(x_extended)
        if x_extended.size != self.problem.num_variables:
            raise ValueError(
                f"expected {self.problem.num_variables} variables, got {x_extended.size}"
            )
        return x_extended[: self.num_original].copy()

    def slack_values(self, x_extended) -> np.ndarray:
        """Value encoded by each slack group.

        Uses the stored per-group weights (powers of two for the paper's
        binary encoding; mixed unary/binary for the hybrid encoding), so it
        is correct for any encoding that fills ``slack_weights``.
        """
        x_extended = np.asarray(x_extended, dtype=float)
        values = []
        for index, slc in enumerate(self.slack_slices):
            bits = x_extended[slc]
            if index < len(self.slack_weights):
                weights = np.asarray(self.slack_weights[index], dtype=float)
            else:
                weights = 2.0 ** np.arange(bits.size)
            values.append(float(bits @ weights))
        return np.asarray(values)


def encode_with_slacks(problem) -> EncodedProblem:
    """Convert every inequality of ``problem`` into an equality with slacks.

    Slack bounds are the constraint bounds ``b_m`` (an all-zero ``x`` is
    always "most feasible" for knapsack-type rows with non-negative ``A``),
    following the paper's ``0 <= x_S <= b`` choice.  Bounds are rounded up to
    integers before the binary decomposition.

    Accepts :class:`~repro.core.problem.ConstrainedProblem` and
    :class:`~repro.core.poly.PolyProblem`; polynomial objectives pass
    through untouched (slack bits are appended *after* the original
    variables, so monomial indices stay valid).
    """
    ineq = problem.inequalities
    n = problem.num_variables
    slack_weight_groups = []
    for bound in ineq.bounds:
        if bound < 0:
            raise ValueError(
                f"inequality bound {bound} is negative; rewrite the row before encoding"
            )
        slack_weight_groups.append(binary_weights(int(np.ceil(bound))).astype(float))

    total_slack = sum(w.size for w in slack_weight_groups)
    n_ext = n + total_slack

    num_eq = problem.equalities.num_constraints + ineq.num_constraints
    a_eq = np.zeros((num_eq, n_ext))
    b_eq = np.zeros(num_eq)
    a_eq[: problem.equalities.num_constraints, :n] = problem.equalities.coefficients
    b_eq[: problem.equalities.num_constraints] = problem.equalities.bounds

    slack_slices = []
    cursor = n
    for row, (weights, bound) in enumerate(zip(slack_weight_groups, ineq.bounds)):
        eq_row = problem.equalities.num_constraints + row
        a_eq[eq_row, :n] = ineq.coefficients[row]
        a_eq[eq_row, cursor : cursor + weights.size] = weights
        b_eq[eq_row] = bound
        slack_slices.append(slice(cursor, cursor + weights.size))
        cursor += weights.size

    if isinstance(problem, PolyProblem):
        extended = PolyProblem(
            num_variables=n_ext,
            terms=dict(problem.terms),
            offset=problem.offset,
            equalities=LinearConstraints(a_eq, b_eq),
            inequalities=LinearConstraints.empty(n_ext),
            name=problem.name,
        )
    else:
        quad = np.zeros((n_ext, n_ext))
        quad[:n, :n] = problem.quadratic
        lin = np.zeros(n_ext)
        lin[:n] = problem.linear
        extended = ConstrainedProblem(
            quadratic=quad,
            linear=lin,
            offset=problem.offset,
            equalities=LinearConstraints(a_eq, b_eq),
            inequalities=LinearConstraints.empty(n_ext),
            name=problem.name,
        )
    return EncodedProblem(
        problem=extended,
        num_original=n,
        slack_slices=tuple(slack_slices),
        source=problem,
        slack_weights=tuple(slack_weight_groups),
    )


@dataclass(frozen=True)
class NormalizationScales:
    """Scale factors applied by :func:`normalize_problem`.

    ``objective(x)_original = objective_scale * objective(x)_normalized``
    (offsets are scaled consistently); each constraint row ``m`` was divided
    by ``constraint_scales[m]``.
    """

    objective_scale: float
    constraint_scales: np.ndarray


def _max_abs(values: np.ndarray) -> float:
    """``max(|values|)`` (0 when empty) as ``max(max, -min)``: two
    reductions, no ``abs`` copy.  Exact on finite values, which every
    validated problem holds."""
    if not values.size:
        return 0.0
    return float(max(values.max(), -values.min()))


def normalize_problem(problem) -> tuple:
    """Apply the paper's normalization to an equality-form problem.

    The objective is divided by ``max(|Q|, |c|)`` and every equality row by
    ``max(|a_m|, |b_m|)`` so that coefficient magnitudes are <= 1 regardless
    of instance, letting one beta schedule serve all instances (Section
    IV-A).  Feasible sets are unchanged; objective values scale linearly.

    For a :class:`~repro.core.poly.PolyProblem` the objective scale is the
    largest monomial coefficient magnitude ``max(|w_t|)`` — same spirit,
    degree-agnostic.
    """
    if problem.inequalities.num_constraints:
        raise ValueError("normalize_problem expects an equality-form problem; encode first")

    if isinstance(problem, PolyProblem):
        obj_scale = max(
            (abs(coefficient) for coefficient in problem.terms.values()), default=0.0
        )
    else:
        obj_scale = max(_max_abs(problem.quadratic), _max_abs(problem.linear))
    if obj_scale == 0.0:
        obj_scale = 1.0

    eq = problem.equalities
    row_scales = np.ones(eq.num_constraints)
    a_scaled = eq.coefficients.copy()
    b_scaled = eq.bounds.copy()
    for m in range(eq.num_constraints):
        scale = max(float(np.max(np.abs(eq.coefficients[m]))), abs(float(eq.bounds[m])))
        if scale == 0.0:
            scale = 1.0
        row_scales[m] = scale
        a_scaled[m] /= scale
        b_scaled[m] /= scale

    if isinstance(problem, PolyProblem):
        normalized = PolyProblem(
            num_variables=problem.num_variables,
            terms={
                indices: coefficient / obj_scale
                for indices, coefficient in problem.terms.items()
            },
            offset=problem.offset / obj_scale,
            equalities=LinearConstraints(a_scaled, b_scaled),
            inequalities=LinearConstraints.empty(problem.num_variables),
            name=problem.name,
        )
    else:
        normalized = ConstrainedProblem(
            quadratic=problem.quadratic / obj_scale,
            linear=problem.linear / obj_scale,
            offset=problem.offset / obj_scale,
            equalities=LinearConstraints(a_scaled, b_scaled),
            inequalities=LinearConstraints.empty(problem.num_variables),
            name=problem.name,
        )
    return normalized, NormalizationScales(obj_scale, row_scales)
