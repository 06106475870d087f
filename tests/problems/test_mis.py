"""Tests for weighted maximum independent set (repro.problems.mis)."""

import numpy as np
import pytest

from repro.core.engine import SaimEngine
from repro.core.saim import SaimConfig
from repro.problems.mis import MisInstance, random_mis


def path_instance() -> MisInstance:
    """Path 0-1-2 with weights (3, 5, 4): optimum is {0, 2} with weight 7."""
    return MisInstance(np.array([3.0, 5.0, 4.0]), ((0, 1), (1, 2)), name="path3")


class TestMisInstance:
    def test_counts(self):
        instance = path_instance()
        assert instance.num_vertices == 3
        assert instance.num_edges == 2

    def test_independence(self):
        instance = path_instance()
        assert instance.is_independent([1, 0, 1])
        assert not instance.is_independent([1, 1, 0])
        assert instance.is_independent([0, 1, 0])

    def test_total_weight(self):
        assert path_instance().total_weight([1, 0, 1]) == pytest.approx(7.0)

    def test_duplicate_edges_deduplicated(self):
        instance = MisInstance(np.ones(3), ((0, 1), (1, 0), (0, 1)))
        assert instance.num_edges == 1

    def test_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            MisInstance(np.ones(2), ((0, 0),))

    def test_rejects_out_of_range_edge(self):
        with pytest.raises(ValueError, match="range"):
            MisInstance(np.ones(2), ((0, 5),))


class TestExactOptimum:
    def test_path_optimum(self):
        x, weight = path_instance().exact_optimum()
        assert weight == pytest.approx(7.0)
        np.testing.assert_array_equal(x, [1, 0, 1])

    def test_optimum_is_independent(self):
        instance = random_mis(12, edge_probability=0.4, rng=0)
        x, weight = instance.exact_optimum()
        assert instance.is_independent(x)
        assert instance.total_weight(x) == pytest.approx(weight)

    def test_matches_brute_force(self):
        instance = random_mis(10, edge_probability=0.3, rng=1)
        _, exact = instance.exact_optimum()
        best = 0.0
        for code in range(2**10):
            x = ((code >> np.arange(10)) & 1).astype(np.int8)
            if instance.is_independent(x):
                best = max(best, instance.total_weight(x))
        assert exact == pytest.approx(best)

    def test_empty_graph_takes_everything(self):
        instance = MisInstance(np.array([1.0, 2.0, 3.0]), ())
        _, weight = instance.exact_optimum()
        assert weight == pytest.approx(6.0)


class TestToProblem:
    def test_one_constraint_per_edge(self):
        instance = random_mis(10, edge_probability=0.4, rng=2)
        problem = instance.to_problem()
        assert problem.inequalities.num_constraints == instance.num_edges

    def test_feasibility_agrees(self):
        instance = random_mis(10, edge_probability=0.3, rng=3)
        problem = instance.to_problem()
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = (rng.uniform(0, 1, 10) < 0.4).astype(np.int8)
            assert problem.is_feasible(x) == instance.is_independent(x)

    def test_objective_is_negative_weight(self):
        instance = path_instance()
        problem = instance.to_problem()
        assert problem.objective([1, 0, 1]) == pytest.approx(-7.0)


class TestSaimOnMis:
    def test_saim_finds_near_optimal_set(self):
        """Stress test: one Lagrange multiplier per edge."""
        instance = random_mis(14, edge_probability=0.3, rng=4)
        _, optimum = instance.exact_optimum()
        config = SaimConfig(
            num_iterations=100, mcs_per_run=250,
            eta=1.0, eta_decay="sqrt", normalize_step=True, alpha=2.0,
        )
        result = SaimEngine(config).solve(instance.to_problem(), rng=2)
        assert result.found_feasible
        assert instance.is_independent(result.best_x)
        assert -result.best_cost >= 0.9 * optimum

    def test_multiplier_vector_matches_edge_count(self):
        instance = random_mis(10, edge_probability=0.4, rng=5)
        config = SaimConfig(num_iterations=15, mcs_per_run=80)
        result = SaimEngine(config).solve(instance.to_problem(), rng=0)
        assert result.final_lambdas.size == instance.num_edges
