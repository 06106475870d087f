"""End-to-end integration: public API flows a user would actually run."""

import pytest

import repro
from repro import (
    SaimConfig,
    SaimEngine,
    encode_with_slacks,
    generate_mkp,
    generate_qkp,
    penalty_method_solve,
    tune_penalty,
)
from repro.baselines.exact_qkp import exact_qkp_bruteforce
from repro.baselines.milp import solve_mkp_exact


class TestPublicApi:
    def test_version(self):
        assert repro.__version__ == "2.7.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert getattr(repro, name) is not None


class TestQkpPipeline:
    def test_docstring_quickstart(self):
        instance = generate_qkp(num_items=40, density=0.5, rng=1)
        saim = SaimEngine(
            SaimConfig(num_iterations=30, mcs_per_run=150)
        )
        result = saim.solve(instance.to_problem(), rng=7)
        assert result.num_iterations == 30
        if result.found_feasible:
            assert instance.is_feasible(result.best_x)

    def test_saim_beats_untuned_penalty_method(self):
        """The paper's core comparison at a fixed small P = 2dN."""
        instance = generate_qkp(20, 0.5, rng=3)
        problem = instance.to_problem()
        encoded = encode_with_slacks(problem)

        from repro.core.encoding import normalize_problem
        from repro.core.penalty import density_heuristic_penalty

        normalized, _ = normalize_problem(encoded.problem)
        small_p = density_heuristic_penalty(normalized, alpha=2.0)
        penalty = penalty_method_solve(
            encoded, small_p, num_runs=60, mcs_per_run=200, rng=5
        )
        saim = SaimEngine(
            SaimConfig(num_iterations=60, mcs_per_run=200)
        ).solve(problem, rng=5)

        assert saim.found_feasible
        # Same budget, same P: SAIM must find at least as good a solution
        # (typically the penalty method finds nothing feasible at all).
        if penalty.best_x is not None:
            assert saim.best_cost <= penalty.best_cost + 1e-9

    def test_penalty_tuning_pipeline(self):
        encoded = encode_with_slacks(generate_qkp(15, 0.5, rng=4).to_problem())
        tuned = tune_penalty(encoded, num_runs=20, mcs_per_run=100, rng=0)
        assert tuned.result.feasible_ratio > 0
        assert tuned.tuned_penalty >= 0


class TestMkpPipeline:
    def test_saim_solves_mkp_near_optimally(self):
        instance = generate_mkp(20, 3, rng=0)
        exact = solve_mkp_exact(instance)
        # Budget-compensated step: paper eta = 0.05 assumes K = 5000.
        config = SaimConfig.mkp_paper().scaled(
            80 / 5000, 200 / 1000, compensate_eta=True
        )
        result = SaimEngine(config).solve(instance.to_problem(), rng=2)
        assert result.found_feasible
        assert -result.best_cost >= 0.9 * exact.profit

    def test_multiple_lambdas_tracked(self):
        instance = generate_mkp(15, 4, rng=1)
        config = SaimConfig.mkp_paper(num_iterations=20, mcs_per_run=100)
        result = SaimEngine(config).solve(instance.to_problem(), rng=0)
        assert result.trace.lambdas.shape == (20, 4)
        assert result.final_lambdas.shape == (4,)


class TestCrossSolverConsistency:
    def test_saim_never_beats_exact(self):
        instance = generate_qkp(14, 0.5, rng=6)
        _, opt = exact_qkp_bruteforce(instance)
        config = SaimConfig(num_iterations=50, mcs_per_run=150)
        result = SaimEngine(config).solve(instance.to_problem(), rng=1)
        if result.found_feasible:
            assert -result.best_cost <= opt + 1e-9

    def test_feasible_records_verified_against_instance(self):
        instance = generate_qkp(16, 0.5, rng=7)
        config = SaimConfig(num_iterations=40, mcs_per_run=150)
        result = SaimEngine(config).solve(instance.to_problem(), rng=2)
        for record in result.feasible_records:
            assert instance.is_feasible(record.x)
            assert instance.cost(record.x) == pytest.approx(record.cost)
