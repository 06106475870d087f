"""Tests for the penalty method (repro.core.penalty)."""

import numpy as np
import pytest

from repro.core.encoding import encode_with_slacks
from repro.core.penalty import (
    build_penalty_qubo,
    density_heuristic_penalty,
    penalty_method_solve,
    tune_penalty,
)
from repro.core.problem import ConstrainedProblem, LinearConstraints
from repro.ising.exhaustive import brute_force_ground_state
from repro.problems.generators import generate_qkp
from tests.helpers import all_binary_vectors, tiny_constrained_problem, tiny_knapsack_problem


class TestBuildPenaltyQubo:
    def test_energy_matches_definition(self):
        problem = tiny_constrained_problem()
        penalty = 3.5
        qubo = build_penalty_qubo(problem, penalty)
        for x in all_binary_vectors(3):
            residual = problem.equalities.residuals(x)
            expected = problem.objective(x) + penalty * float(residual @ residual)
            assert qubo.energy(x) == pytest.approx(expected)

    def test_multi_constraint_energy(self):
        problem = ConstrainedProblem(
            np.zeros((3, 3)),
            np.array([-1.0, -1.0, -1.0]),
            equalities=LinearConstraints(
                np.array([[1.0, 1.0, 0.0], [0.0, 1.0, 1.0]]), np.array([1.0, 1.0])
            ),
        )
        qubo = build_penalty_qubo(problem, 2.0)
        for x in all_binary_vectors(3):
            residual = problem.equalities.residuals(x)
            expected = problem.objective(x) + 2.0 * float(residual @ residual)
            assert qubo.energy(x) == pytest.approx(expected)

    def test_large_penalty_ground_state_is_feasible_optimum(self):
        """With P >= P_C the QUBO ground state solves the constrained problem."""
        problem = tiny_constrained_problem()
        qubo = build_penalty_qubo(problem, 100.0)
        state, _ = brute_force_ground_state(qubo)
        assert problem.is_feasible(state)
        assert problem.objective(state) == pytest.approx(-5.0)  # known optimum

    def test_small_penalty_ground_state_may_be_infeasible(self):
        """With P < P_C the ground state undershoots OPT (Fig. 1b)."""
        problem = tiny_constrained_problem()
        qubo = build_penalty_qubo(problem, 0.1)
        state, energy = brute_force_ground_state(qubo)
        assert not problem.is_feasible(state)
        assert energy < -5.0  # lower bound below OPT, paper's LB_P < OPT

    def test_rejects_inequalities(self):
        with pytest.raises(ValueError, match="equality-form"):
            build_penalty_qubo(tiny_knapsack_problem(), 1.0)

    def test_rejects_nonpositive_penalty(self):
        with pytest.raises(ValueError):
            build_penalty_qubo(tiny_constrained_problem(), 0.0)


class TestDensityHeuristic:
    def test_qkp_like_dense(self):
        # Full density: P = alpha * 1 * N.
        n = 8
        quad = np.ones((n, n)) - np.eye(n)
        problem = ConstrainedProblem(
            quad - np.diag(np.diag(quad)), np.zeros(n),
            equalities=LinearConstraints(np.ones((1, n)), np.array([1.0])),
        )
        assert density_heuristic_penalty(problem, alpha=2.0) == pytest.approx(2.0 * n)

    def test_linear_objective_uses_mkp_rule(self):
        # No quadratic couplings: d = 2 / (N + 1), so P = alpha * 2N/(N+1).
        n = 9
        problem = ConstrainedProblem(
            np.zeros((n, n)), -np.ones(n),
            equalities=LinearConstraints(np.ones((1, n)), np.array([1.0])),
        )
        expected = 5.0 * (2.0 / (n + 1)) * n
        assert density_heuristic_penalty(problem, alpha=5.0) == pytest.approx(expected)

    def test_half_density(self):
        instance = generate_qkp(30, 0.5, rng=0)
        encoded = encode_with_slacks(instance.to_problem())
        penalty = density_heuristic_penalty(encoded.problem, alpha=2.0)
        n_ext = encoded.problem.num_variables
        # Density is the original W's non-zero pairs over extended-spin pairs.
        nonzero_pairs = np.count_nonzero(np.triu(instance.pair_values, k=1))
        expected_density = nonzero_pairs / (n_ext * (n_ext - 1) / 2.0)
        assert penalty == pytest.approx(2.0 * expected_density * n_ext)


class TestPenaltyMethodSolve:
    def test_finds_optimum_with_large_penalty(self):
        problem = tiny_knapsack_problem()
        encoded = encode_with_slacks(problem)
        result = penalty_method_solve(
            encoded, penalty=50.0, num_runs=20, mcs_per_run=150, rng=0
        )
        assert result.best_x is not None
        assert result.best_cost == pytest.approx(-8.0)
        assert result.feasible_ratio > 0

    @pytest.mark.parametrize("read_best, costs", [
        (False, [-1848.0, -1848.0, -2765.0, -1848.0, -1848.0]),
        (True, [-2264.0, -1848.0, -2765.0, -1848.0, -1848.0]),
    ])
    def test_seeded_result_pinned(self, read_best, costs):
        """Golden values: the runs are the rows of one seeded p-bit batch,
        read in replica order."""
        encoded = encode_with_slacks(generate_qkp(16, 0.5, rng=4).to_problem())
        result = penalty_method_solve(
            encoded, penalty=200.0, num_runs=12, mcs_per_run=100, rng=9,
            read_best=read_best,
        )
        assert result.best_cost == -2765.0
        assert result.feasible_ratio == 5 / 12
        assert result.costs == costs

    def test_total_mcs_accounting(self):
        encoded = encode_with_slacks(tiny_knapsack_problem())
        result = penalty_method_solve(encoded, 10.0, num_runs=5, mcs_per_run=20, rng=0)
        assert result.total_mcs == 100

    def test_no_feasible_reported_honestly(self):
        # A tiny penalty on a problem whose unconstrained optimum is
        # infeasible should often yield zero feasible samples.
        problem = tiny_constrained_problem()
        # encode_with_slacks is a no-op here (no inequalities).
        encoded = encode_with_slacks(problem)
        result = penalty_method_solve(
            encoded, penalty=1e-6, num_runs=10, mcs_per_run=100, rng=1
        )
        if result.best_x is None:
            assert result.feasible_ratio == 0.0
            assert result.best_cost == np.inf

    def test_rejects_bad_budgets(self):
        encoded = encode_with_slacks(tiny_knapsack_problem())
        with pytest.raises(ValueError):
            penalty_method_solve(encoded, 1.0, num_runs=0, mcs_per_run=10)
        with pytest.raises(ValueError):
            penalty_method_solve(encoded, 1.0, num_runs=1, mcs_per_run=0)


class TestTunePenalty:
    def test_reaches_target_feasibility(self):
        encoded = encode_with_slacks(tiny_knapsack_problem())
        tuned = tune_penalty(
            encoded, num_runs=20, mcs_per_run=100, rng=0,
            target_feasibility=0.2,
        )
        assert tuned.result.feasible_ratio >= 0.2
        assert tuned.tuning_mcs >= tuned.result.total_mcs

    def test_history_is_escalating(self):
        encoded = encode_with_slacks(tiny_knapsack_problem())
        tuned = tune_penalty(encoded, num_runs=10, mcs_per_run=50, rng=1)
        penalties = [p for p, _ in tuned.history]
        assert all(b > a for a, b in zip(penalties, penalties[1:]))

    def test_rejects_bad_arguments(self):
        encoded = encode_with_slacks(tiny_knapsack_problem())
        with pytest.raises(ValueError):
            tune_penalty(encoded, 5, 10, target_feasibility=0.0)
        with pytest.raises(ValueError):
            tune_penalty(encoded, 5, 10, growth=1.0)
