"""Tests for repro.core.problem."""

import numpy as np
import pytest

from repro.core.problem import ConstrainedProblem, LinearConstraints
from tests.helpers import tiny_constrained_problem, tiny_knapsack_problem


class TestLinearConstraints:
    def test_residuals(self):
        block = LinearConstraints(np.array([[1.0, 2.0]]), np.array([3.0]))
        np.testing.assert_allclose(block.residuals([1, 1]), [0.0])
        np.testing.assert_allclose(block.residuals([0, 0]), [-3.0])

    def test_row_count_mismatch_rejected(self):
        with pytest.raises(ValueError, match="mismatch"):
            LinearConstraints(np.ones((2, 3)), np.ones(3))

    def test_empty_block(self):
        block = LinearConstraints.empty(4)
        assert block.num_constraints == 0
        assert block.num_variables == 4
        assert block.residuals([0, 1, 0, 1]).size == 0

    def test_single_row_from_1d(self):
        block = LinearConstraints(np.array([1.0, 1.0]), np.array([1.0]))
        assert block.num_constraints == 1


class TestConstrainedProblem:
    def test_objective_by_hand(self):
        problem = tiny_constrained_problem()
        assert problem.objective([0, 1, 1]) == pytest.approx(-5.0)

    def test_feasibility_equality(self):
        problem = tiny_constrained_problem()
        assert problem.is_feasible([0, 1, 1])
        assert problem.is_feasible([1, 1, 0])
        assert not problem.is_feasible([1, 1, 1])
        assert not problem.is_feasible([0, 0, 0])

    def test_feasibility_inequality(self):
        problem = tiny_knapsack_problem()
        assert problem.is_feasible([1, 0, 1])  # weight 6 == capacity
        assert not problem.is_feasible([1, 1, 1])  # weight 9

    def test_violations_shape(self):
        problem = tiny_knapsack_problem()
        assert problem.violations([1, 1, 1]).shape == (1,)
        assert problem.violations([1, 1, 1])[0] == pytest.approx(3.0)

    def test_violation_of_slack_side_is_zero(self):
        # Being under capacity is not a violation for inequalities.
        problem = tiny_knapsack_problem()
        assert problem.violations([0, 0, 0])[0] == 0.0

    def test_num_constraints(self):
        assert tiny_constrained_problem().num_constraints == 1
        assert tiny_knapsack_problem().num_constraints == 1

    def test_rejects_asymmetric_quadratic(self):
        quad = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            ConstrainedProblem(quad, np.zeros(2))

    def test_rejects_nonzero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            ConstrainedProblem(np.eye(2), np.zeros(2))

    def test_rejects_constraint_width_mismatch(self):
        with pytest.raises(ValueError, match="variables"):
            ConstrainedProblem(
                np.zeros((2, 2)),
                np.zeros(2),
                equalities=LinearConstraints(np.ones((1, 3)), np.ones(1)),
            )

    def test_from_objective_folds_diagonal(self):
        quad = np.array([[2.0, 1.0], [1.0, 0.0]])
        problem = ConstrainedProblem.from_objective(quadratic=quad)
        np.testing.assert_array_equal(np.diag(problem.quadratic), [0.0, 0.0])
        np.testing.assert_array_equal(problem.linear, [2.0, 0.0])

    def test_from_objective_linear_only(self):
        problem = ConstrainedProblem.from_objective(linear=np.array([1.0, -1.0]))
        assert problem.num_variables == 2
        assert problem.objective([1, 1]) == pytest.approx(0.0)

    def test_from_objective_requires_something(self):
        with pytest.raises(ValueError):
            ConstrainedProblem.from_objective()

    def test_check_solution(self):
        problem = tiny_knapsack_problem()
        cost, feasible = problem.check_solution([1, 0, 1])
        assert cost == pytest.approx(-8.0)
        assert feasible

    def test_check_solution_rejects_non_binary(self):
        with pytest.raises(ValueError):
            tiny_knapsack_problem().check_solution([2, 0, 0])


NON_FINITE = [np.nan, np.inf, -np.inf]


class TestNonFiniteRejected:
    """Every coefficient, bound and offset must be finite."""

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["coefficients", "bounds"])
    def test_linear_constraints(self, field, value):
        arrays = {"coefficients": np.ones((1, 3)), "bounds": np.ones(1)}
        arrays[field][0] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            LinearConstraints(**arrays)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["quadratic", "linear", "offset"])
    def test_constrained_problem(self, field, value):
        base = tiny_knapsack_problem()
        arrays = {"quadratic": base.quadratic.copy(),
                  "linear": base.linear.copy(), "offset": base.offset}
        if field == "offset":
            arrays["offset"] = value
        elif field == "quadratic":
            arrays["quadratic"][0, 1] = arrays["quadratic"][1, 0] = value
        else:
            arrays["linear"][0] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            ConstrainedProblem(**arrays, inequalities=base.inequalities)

    @pytest.mark.parametrize("value", NON_FINITE)
    @pytest.mark.parametrize("field", ["terms", "offset"])
    def test_poly_problem(self, field, value):
        from repro.core.poly import PolyProblem

        fields = {"terms": {(0, 1, 2): -1.0, (1,): 0.5}, "offset": 0.0}
        if field == "terms":
            fields["terms"][(0, 1, 2)] = value
        else:
            fields["offset"] = value
        with pytest.raises(ValueError, match=f"{field} must be finite"):
            PolyProblem(3, **fields)

    @pytest.mark.parametrize("field", ["values", "weights"])
    def test_front_door_rejects_nan_qkp(self, field):
        import dataclasses

        import repro

        instance = repro.generate_qkp(12, 0.5, rng=1)
        broken = getattr(instance, field).copy()
        broken[0] = np.nan
        with pytest.raises(ValueError, match="must be finite"):
            repro.solve(dataclasses.replace(instance, **{field: broken}),
                        num_iterations=5, mcs_per_run=20)


def feasible_by_violations(problem, x, tol) -> bool:
    """The definition ``is_feasible`` keeps: ``max(violations) <= tol``."""
    violations = problem.violations(x)
    return bool(violations.size == 0 or np.max(violations) <= tol)


EQUALITIES = LinearConstraints([[1.0, -2.0, 0.5]], [0.5])
INEQUALITIES = LinearConstraints([[1.0, 2.0, -1.5], [0.0, 1.0, 1.0]],
                                 [2.0, 1.0])
BLOCKS = {
    "unconstrained": {},
    "equalities": {"equalities": EQUALITIES},
    "inequalities": {"inequalities": INEQUALITIES},
    "both": {"equalities": EQUALITIES, "inequalities": INEQUALITIES},
}
# Binary points on both sides of the rows, and points whose residuals are
# NaN (0 * inf, or a NaN entry), +inf or -inf.
POINTS = [
    [0, 0, 0], [1, 0, 1], [1, 1, 1], [0, 1, 0], [1, 1, 0], [0, 0, 1],
    [np.nan, 0, 0], [np.inf, 0, 0], [-np.inf, 0, 0],
    [0, np.inf, 0], [0, -np.inf, 0], [0, 0, np.inf], [0, 0, -np.inf],
]
TOLERANCES = [1e-9, 0.0, -0.0, 0.5, 1.5, np.inf, -1e-9, -1.0, -np.inf,
              np.nan]


def blocked_problem(kind, blocks):
    if kind == "quadratic":
        quad = np.array([[0.0, 1.0, 0.0], [1.0, 0.0, -2.0], [0.0, -2.0, 0.0]])
        return ConstrainedProblem(quad, np.array([1.0, -1.0, 0.5]), **blocks)
    from repro.core.poly import PolyProblem

    return PolyProblem(3, {(0, 1, 2): -1.0, (1,): 0.5}, **blocks)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
class TestIsFeasible:
    """``is_feasible`` decides each block against ``tol`` directly; its
    accept set is the ``violations``-based one for every ``tol``."""

    @pytest.mark.parametrize("blocks", BLOCKS)
    @pytest.mark.parametrize("kind", ["quadratic", "poly"])
    def test_matches_the_violations_definition(self, kind, blocks):
        problem = blocked_problem(kind, BLOCKS[blocks])
        for x in POINTS:
            for tol in TOLERANCES:
                expected = feasible_by_violations(problem, x, tol)
                assert problem.is_feasible(x, tol) is expected, (x, tol)

    @pytest.mark.parametrize("kind", ["quadratic", "poly"])
    def test_residual_equal_to_tol_is_feasible(self, kind):
        # Equality residual -2.0 at [0, 1, 1]; inequality residual 1.0
        # (row 1) at [1, 1, 1], whose other row is below it.
        for blocks, x, residual in (
            ({"equalities": EQUALITIES}, [0, 1, 1], 2.0),
            ({"inequalities": INEQUALITIES}, [1, 1, 1], 1.0),
        ):
            problem = blocked_problem(kind, blocks)
            assert problem.is_feasible(x, residual)
            assert not problem.is_feasible(x, np.nextafter(residual, 0.0))
            assert feasible_by_violations(problem, x, residual)

    @pytest.mark.parametrize("blocks", BLOCKS)
    @pytest.mark.parametrize("kind", ["quadratic", "poly"])
    def test_negative_tol_fails_every_constrained_point(self, kind, blocks):
        # No violation is below zero: a satisfied (even slack) row fails a
        # negative tolerance, and only a problem with no rows accepts.
        problem = blocked_problem(kind, BLOCKS[blocks])
        assert problem.is_feasible([0, 0, 0], -1e-9) is (blocks ==
                                                         "unconstrained")

    def test_nan_residual_is_infeasible(self):
        problem = blocked_problem("quadratic", BLOCKS["both"])
        assert not problem.is_feasible([np.nan, 0, 0], np.inf)
        assert blocked_problem("quadratic", {}).is_feasible([np.nan, 0, 0])
