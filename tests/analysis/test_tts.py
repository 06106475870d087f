"""Tests for time-to-solution metrics (repro.analysis.tts)."""

import math

import pytest

from repro.analysis.tts import (
    saim_tts_from_trace,
    success_probability,
    time_to_solution,
)
from repro.core.engine import SaimEngine
from repro.core.saim import SaimConfig
from tests.helpers import tiny_knapsack_problem


class TestSuccessProbability:
    def test_minimization(self):
        assert success_probability([-5, -3, -1], target=-3) == pytest.approx(2 / 3)

    def test_maximization(self):
        assert success_probability([5, 3, 1], target=3, minimize=False) == pytest.approx(2 / 3)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            success_probability([], target=0)


class TestTimeToSolution:
    def test_standard_formula(self):
        # p = 0.5, c = 0.99: repetitions = ln(0.01)/ln(0.5) ~ 6.64.
        estimate = time_to_solution([-1, 0], target=-1, per_run_cost=10.0)
        expected = 10.0 * math.log(0.01) / math.log(0.5)
        assert estimate.tts == pytest.approx(expected)

    def test_perfect_success_floors_at_one_run(self):
        estimate = time_to_solution([-2, -2], target=-1, per_run_cost=7.0)
        assert estimate.tts == 7.0
        assert estimate.success_probability == 1.0

    def test_zero_success_is_infinite(self):
        estimate = time_to_solution([0, 0], target=-1, per_run_cost=1.0)
        assert estimate.infinite

    def test_monotone_in_success_probability(self):
        low = time_to_solution([-1, 0, 0, 0], target=-1, per_run_cost=1.0)
        high = time_to_solution([-1, -1, 0, 0], target=-1, per_run_cost=1.0)
        assert high.tts < low.tts

    def test_confidence_validation(self):
        with pytest.raises(ValueError):
            time_to_solution([-1], target=-1, per_run_cost=1.0, confidence=1.0)

    def test_cost_validation(self):
        with pytest.raises(ValueError):
            time_to_solution([-1], target=-1, per_run_cost=0.0)


class TestSaimTts:
    def test_from_trace(self):
        config = SaimConfig(num_iterations=30, mcs_per_run=100)
        result = SaimEngine(config).solve(
            tiny_knapsack_problem(), rng=0
        )
        estimate = saim_tts_from_trace(result, target_cost=-8.0)
        assert estimate.runs_observed == 30
        assert estimate.per_run_cost == 100.0
        if result.found_feasible and result.best_cost <= -8.0:
            assert not estimate.infinite

    def test_infeasible_iterations_never_count(self):
        config = SaimConfig(num_iterations=10, mcs_per_run=50)
        result = SaimEngine(config).solve(
            tiny_knapsack_problem(), rng=1
        )
        estimate = saim_tts_from_trace(result, target_cost=-8.0)
        assert estimate.success_probability <= result.feasible_ratio + 1e-9

    def test_requires_trace(self):
        config = SaimConfig(num_iterations=5, mcs_per_run=30, record_trace=False)
        result = SaimEngine(config).solve(
            tiny_knapsack_problem(), rng=0
        )
        with pytest.raises(ValueError, match="trace"):
            saim_tts_from_trace(result, target_cost=-8.0)
