"""Tests for SAIM's warm-start and early-stopping features."""

import numpy as np
import pytest

from repro.core.engine import SaimEngine
from repro.core.saim import SaimConfig
from repro.problems.generators import generate_qkp
from tests.helpers import tiny_knapsack_problem

FAST = SaimConfig(num_iterations=40, mcs_per_run=120)


class TestWarmStart:
    def test_initial_lambdas_respected(self):
        result = SaimEngine(FAST).solve(
            tiny_knapsack_problem(), rng=0, initial_lambdas=np.array([2.5])
        )
        np.testing.assert_array_equal(result.trace.lambdas[0], [2.5])

    @pytest.mark.parametrize(
        "initial_lambdas", [np.zeros(3), [np.nan], [np.inf]],
        ids=["shape", "nan", "inf"],
    )
    def test_wrong_shape_rejected(self, initial_lambdas):
        with pytest.raises(ValueError, match="initial_lambdas"):
            SaimEngine(FAST).solve(
                tiny_knapsack_problem(), rng=0,
                initial_lambdas=initial_lambdas,
            )

    def test_warm_start_from_prior_solve(self):
        """Re-solving with converged multipliers finds feasible samples
        immediately (no transient)."""
        instance = generate_qkp(20, 0.5, rng=42)
        config = SaimConfig(num_iterations=80, mcs_per_run=200)
        cold = SaimEngine(config).solve(instance.to_problem(), rng=0)
        assert cold.found_feasible

        short = SaimConfig(num_iterations=15, mcs_per_run=200)
        warm = SaimEngine(short).solve(
            instance.to_problem(), rng=1, initial_lambdas=cold.final_lambdas
        )
        cold_short = SaimEngine(short).solve(
            instance.to_problem(), rng=1
        )
        # Warm start yields at least as many feasible samples in the short
        # budget as a cold start (which spends it all in the transient).
        assert warm.num_feasible >= cold_short.num_feasible


class TestEarlyStopping:
    def test_target_cost_stops_early(self):
        config = SaimConfig(num_iterations=200, mcs_per_run=100,
                            target_cost=-8.0)
        result = SaimEngine(config).solve(
            tiny_knapsack_problem(), rng=0
        )
        assert result.found_feasible
        assert result.best_cost <= -8.0
        assert result.num_iterations < 200

    def test_trace_truncated_to_actual_iterations(self):
        config = SaimConfig(num_iterations=200, mcs_per_run=100,
                            target_cost=-8.0)
        result = SaimEngine(config).solve(
            tiny_knapsack_problem(), rng=0
        )
        assert result.trace.sample_costs.shape == (result.num_iterations,)
        assert result.trace.lambdas.shape[0] == result.num_iterations

    def test_patience_stops_after_stall(self):
        config = SaimConfig(num_iterations=300, mcs_per_run=80, patience=10)
        result = SaimEngine(config).solve(
            tiny_knapsack_problem(), rng=1
        )
        # The 3-variable problem is solved almost immediately, so patience
        # must cut the run far short of 300 iterations.
        assert result.num_iterations < 300
        assert result.found_feasible

    def test_patience_never_fires_before_first_feasible(self):
        # With patience=1 and a transient of several infeasible iterations,
        # the run must not stop during the transient.
        config = SaimConfig(num_iterations=60, mcs_per_run=150, patience=1)
        instance = generate_qkp(20, 0.5, rng=42)
        result = SaimEngine(config).solve(instance.to_problem(), rng=0)
        first = result.trace.first_feasible_iteration()
        if first is not None:
            assert result.num_iterations >= first + 1

    def test_disabled_by_default(self):
        result = SaimEngine(FAST).solve(
            tiny_knapsack_problem(), rng=0
        )
        assert result.num_iterations == FAST.num_iterations

    def test_patience_validation(self):
        with pytest.raises(ValueError, match="patience"):
            SaimConfig(patience=0)

    def test_total_mcs_reflects_actual_iterations(self):
        config = SaimConfig(num_iterations=200, mcs_per_run=100,
                            target_cost=-8.0)
        result = SaimEngine(config).solve(
            tiny_knapsack_problem(), rng=0
        )
        assert result.total_mcs == result.num_iterations * 100
