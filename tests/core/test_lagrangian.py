"""Tests for the Lagrangian relaxation machinery (repro.core.lagrangian)."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import repro
from repro.core.encoding import encode_with_slacks, normalize_problem
from repro.core.hybrid_encoding import encode_with_hybrid_slacks
from repro.core.lagrangian import LagrangianIsing
from repro.core.penalty import build_penalty_qubo, density_heuristic_penalty
from repro.core.problem import ConstrainedProblem, LinearConstraints
from repro.ising.exhaustive import brute_force_ground_state
from repro.ising.model import IsingModel, QuboModel
from repro.problems.generators import generate_mkp, generate_qkp
from tests.helpers import all_binary_vectors, tiny_constrained_problem, tiny_knapsack_problem


def _binary_to_spins(x):
    return 2.0 * np.asarray(x, dtype=float) - 1.0


class TestLagrangianEnergy:
    def test_zero_lambda_equals_penalty_energy(self):
        problem = tiny_constrained_problem()
        lag = LagrangianIsing(problem, penalty=2.0)
        qubo = build_penalty_qubo(problem, 2.0)
        for x in all_binary_vectors(3):
            assert lag.energy(x, np.zeros(1)) == pytest.approx(qubo.energy(x))

    @given(st.floats(min_value=-20, max_value=20, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_lagrangian_definition(self, lam):
        """L(x, lambda) = E(x) + lambda^T g(x) for every x."""
        problem = tiny_constrained_problem()
        lag = LagrangianIsing(problem, penalty=1.5)
        qubo = build_penalty_qubo(problem, 1.5)
        for x in all_binary_vectors(3):
            residual = problem.equalities.residuals(x)
            expected = qubo.energy(x) + lam * residual[0]
            assert lag.energy(x, np.array([lam])) == pytest.approx(expected, abs=1e-9)

    @given(st.floats(min_value=-20, max_value=20, allow_nan=False))
    @settings(max_examples=25, deadline=None)
    def test_ising_form_matches_binary_form(self, lam):
        """The reprogrammed Ising model evaluates L exactly."""
        problem = tiny_constrained_problem()
        lag = LagrangianIsing(problem, penalty=1.5)
        model = lag.ising_for(np.array([lam]))
        for x in all_binary_vectors(3):
            assert model.energy(_binary_to_spins(x)) == pytest.approx(
                lag.energy(x, np.array([lam])), abs=1e-9
            )

    def test_fields_change_but_couplings_do_not(self):
        problem = encode_with_slacks(tiny_knapsack_problem()).problem
        lag = LagrangianIsing(problem, penalty=2.0)
        model_a = lag.ising_for(np.array([0.0]))
        model_b = lag.ising_for(np.array([5.0]))
        np.testing.assert_array_equal(model_a.coupling, model_b.coupling)
        assert not np.allclose(model_a.fields, model_b.fields)

    def test_lambda_at_feasible_point_adds_nothing(self):
        """g(x) = 0 at feasible x, so lambda cannot change L there."""
        problem = tiny_constrained_problem()
        lag = LagrangianIsing(problem, penalty=2.0)
        feasible_x = np.array([0, 1, 1])
        for lam in (-3.0, 0.0, 7.0):
            assert lag.energy(feasible_x, np.array([lam])) == pytest.approx(
                lag.energy(feasible_x, np.zeros(1))
            )

    def test_residuals_are_subgradient(self):
        problem = tiny_constrained_problem()
        lag = LagrangianIsing(problem, penalty=2.0)
        np.testing.assert_allclose(lag.residuals([1, 1, 1]), [1.0])
        np.testing.assert_allclose(lag.residuals([0, 0, 0]), [-2.0])

    def test_rejects_wrong_lambda_shape(self):
        lag = LagrangianIsing(tiny_constrained_problem(), penalty=1.0)
        with pytest.raises(ValueError):
            lag.fields_for(np.zeros(2))

    def test_rejects_inequality_problems(self):
        with pytest.raises(ValueError, match="equality-form"):
            LagrangianIsing(tiny_knapsack_problem(), penalty=1.0)


class TestDualShaping:
    def test_optimal_lambda_closes_the_gap(self):
        """The core claim of Fig. 2: some lambda* makes the ground state of
        L feasible and optimal even though P < P_C."""
        problem = tiny_constrained_problem()
        small_penalty = 0.1
        lag = LagrangianIsing(problem, penalty=small_penalty)

        # With lambda = 0 the ground state is infeasible (P too small).
        state0, _ = brute_force_ground_state(lag.ising_for(np.zeros(1)))
        x0 = ((state0 + 1) / 2).astype(int)
        assert not problem.is_feasible(x0)

        # Scan lambda: some value must make the minimizer feasible-optimal.
        closed = False
        for lam in np.linspace(-5, 5, 101):
            state, _ = brute_force_ground_state(lag.ising_for(np.array([lam])))
            x = ((state + 1) / 2).astype(int)
            if problem.is_feasible(x) and problem.objective(x) == pytest.approx(-5.0):
                closed = True
                break
        assert closed

    def test_dual_value_is_lower_bound(self):
        """min_x L(x, lambda) <= OPT for every lambda (weak duality)."""
        problem = tiny_constrained_problem()
        lag = LagrangianIsing(problem, penalty=0.5)
        opt = -5.0  # penalty and lambda terms vanish at feasible x
        for lam in np.linspace(-10, 10, 21):
            _, lower_bound = brute_force_ground_state(lag.ising_for(np.array([lam])))
            assert lower_bound <= opt + 1e-9


def _equality_toy() -> ConstrainedProblem:
    """Four variables, a quadratic objective and two equality rows."""
    quad = np.array([[0.0, 1.5, -2.0, 0.0],
                     [1.5, 0.0, 0.5, -1.0],
                     [-2.0, 0.5, 0.0, 3.0],
                     [0.0, -1.0, 3.0, 0.0]])
    return ConstrainedProblem(
        quadratic=quad, linear=np.array([-1.0, 2.0, -3.0, 0.5]), offset=0.25,
        equalities=LinearConstraints(
            np.array([[1.0, 1.0, 1.0, 0.0], [0.0, 2.0, 0.0, 1.0]]),
            np.array([2.0, 1.0]),
        ),
    )


BUILD_CASES = {
    "qkp": lambda: encode_with_slacks(generate_qkp(15, 0.5, rng=1).to_problem()),
    "mkp": lambda: encode_with_slacks(generate_mkp(12, 3, rng=2).to_problem()),
    "hybrid": lambda: encode_with_hybrid_slacks(
        generate_qkp(15, 0.6, rng=3).to_problem(), unary_bits=2),
    "equality-toy": lambda: encode_with_slacks(_equality_toy()),
}


def _same_bits(left, right) -> bool:
    """Bit-for-bit equality (a signed zero or a NaN payload counts)."""
    left, right = np.asarray(left), np.asarray(right)
    return (left.dtype == right.dtype and left.shape == right.shape
            and left.tobytes() == right.tobytes())


@pytest.mark.parametrize("case", sorted(BUILD_CASES))
class TestBuildPins:
    """The Lagrangian builds its arrays from the problem directly; they
    must be exactly the penalty QUBO's Ising conversion."""

    def test_base_ising_is_the_penalty_qubo_conversion(self, case):
        normalized, _ = normalize_problem(BUILD_CASES[case]().problem)
        penalty = density_heuristic_penalty(normalized)
        model = LagrangianIsing(normalized, penalty).base_ising
        expected = build_penalty_qubo(normalized, penalty).to_ising()
        assert _same_bits(model.coupling, expected.coupling)
        assert _same_bits(model.fields, expected.fields)
        assert model.offset.hex() == expected.offset.hex()

    def test_energy_is_qubo_energy_plus_multiplier_term(self, case):
        normalized, _ = normalize_problem(BUILD_CASES[case]().problem)
        penalty = density_heuristic_penalty(normalized)
        lag = LagrangianIsing(normalized, penalty)
        qubo = build_penalty_qubo(normalized, penalty)
        rng = np.random.default_rng(7)
        for _ in range(5):
            x = (rng.random(lag.num_spins) < 0.5).astype(np.int8)
            lambdas = rng.normal(size=lag.num_multipliers)
            residuals = normalized.equalities.residuals(x)
            assert lag.energy(x, lambdas) == (
                qubo.energy(x) + float(lambdas @ residuals))


def test_qkp_solve_builds_one_ising_model_and_no_qubo(monkeypatch):
    """A solve validates the one Ising model its machine is made from;
    the penalty QUBO and the conversion's intermediate model are never
    built."""
    built = {IsingModel: 0, QuboModel: 0}
    for cls in built:
        def counting(self, cls=cls, check=cls.__post_init__):
            built[cls] += 1
            check(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    repro.solve(generate_qkp(12, 0.5, rng=2), rng=3,
                config=repro.SaimConfig(num_iterations=3, mcs_per_run=20))
    assert built == {IsingModel: 1, QuboModel: 0}
