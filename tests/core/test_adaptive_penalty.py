"""Tests for the adaptive-penalty extension (repro.core.adaptive_penalty)."""

import numpy as np
import pytest

from repro.core.adaptive_penalty import (
    AdaptivePenaltyConfig,
    AdaptivePenaltySaim,
    reduced_capacity_problem,
)
from repro.core.engine import SaimEngine
from repro.core.saim import SaimConfig
from repro.problems.generators import generate_mkp, generate_qkp
from tests.helpers import sweep_kernel, tiny_knapsack_problem

BASE = SaimConfig(num_iterations=60, mcs_per_run=120,
                  eta=5.0, eta_decay="sqrt", normalize_step=True)


class TestConfig:
    def test_defaults(self):
        config = AdaptivePenaltyConfig(BASE)
        assert config.window == 25
        assert config.growth == 2.0

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"window": 0},
            {"feasibility_floor": 1.5},
            {"growth": 1.0},
            {"max_escalations": -1},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            AdaptivePenaltyConfig(BASE, **kwargs)


class TestAdaptivePenaltySaim:
    def test_solves_tiny_knapsack(self):
        solver = AdaptivePenaltySaim(AdaptivePenaltyConfig(BASE, window=10))
        outcome = solver.solve(tiny_knapsack_problem(), rng=0)
        assert outcome.result.found_feasible
        assert outcome.result.best_cost == pytest.approx(-8.0)

    def test_escalates_when_never_feasible(self):
        """Force infeasibility (absurdly small penalty + tiny eta) and check
        the outer loop raises P."""
        config = AdaptivePenaltyConfig(
            SaimConfig(num_iterations=40, mcs_per_run=60, eta=1e-6,
                       penalty=1e-6),
            window=10,
            feasibility_floor=0.5,
            growth=3.0,
            max_escalations=3,
        )
        instance = generate_qkp(15, 0.5, rng=7)
        outcome = AdaptivePenaltySaim(config).solve(instance.to_problem(), rng=0)
        assert len(outcome.escalations) >= 1
        # Final penalty reflects the recorded escalations.
        assert outcome.result.penalty == pytest.approx(
            1e-6 * 3.0 ** len(outcome.escalations)
        )

    def test_no_escalation_when_feasibility_is_fine(self):
        config = AdaptivePenaltyConfig(
            BASE, window=15, feasibility_floor=0.01
        )
        outcome = AdaptivePenaltySaim(config).solve(tiny_knapsack_problem(), rng=1)
        if outcome.result.feasible_ratio > 0.1:
            assert outcome.escalations == []

    def test_escalation_cap_respected(self):
        config = AdaptivePenaltyConfig(
            SaimConfig(num_iterations=50, mcs_per_run=40, eta=1e-6,
                       penalty=1e-9),
            window=5,
            feasibility_floor=1.0,
            max_escalations=2,
        )
        instance = generate_mkp(12, 3, rng=8)
        outcome = AdaptivePenaltySaim(config).solve(instance.to_problem(), rng=0)
        assert len(outcome.escalations) <= 2

    def test_mkp_feasibility_improves_with_adaptation(self):
        """The paper's suggestion: escalating P raises MKP feasibility."""
        instance = generate_mkp(15, 4, rng=9)
        static_cfg = SaimConfig(num_iterations=80, mcs_per_run=100,
                                eta=2.0, eta_decay="sqrt",
                                normalize_step=True, penalty=0.05)

        static = SaimEngine(static_cfg).solve(
            instance.to_problem(), rng=3
        )
        adaptive = AdaptivePenaltySaim(
            AdaptivePenaltyConfig(static_cfg, window=10,
                                  feasibility_floor=0.2, growth=3.0)
        ).solve(instance.to_problem(), rng=3)
        assert adaptive.result.feasible_ratio >= static.feasible_ratio


class TestEscalationGolden:
    """An escalating run pinned bit-for-bit against values captured from
    the pre-``SaimRun`` adaptive loop: one escalation at iteration 20,
    after which the run keeps finding feasible samples."""

    @pytest.fixture(scope="class")
    def outcome(self):
        config = AdaptivePenaltyConfig(
            SaimConfig(num_iterations=40, mcs_per_run=60, eta=2.0,
                       eta_decay="sqrt", normalize_step=True, penalty=0.02),
            window=10, feasibility_floor=0.3, growth=3.0,
        )
        instance = generate_mkp(15, 4, rng=9)
        return AdaptivePenaltySaim(config).solve(instance.to_problem(), rng=5)

    def test_escalations(self, outcome):
        assert outcome.escalations == [(20, pytest.approx(0.06))]
        assert outcome.result.penalty == pytest.approx(0.06)

    def test_incumbent(self, outcome):
        assert outcome.result.best_cost == -6323.0
        assert outcome.result.best_x.tolist() == [
            0, 1, 0, 0, 1, 0, 0, 1, 1, 0, 1, 0, 1, 0, 1
        ]

    def test_multipliers_and_trace(self, outcome):
        result = outcome.result
        assert result.final_lambdas.tolist() == [
            1.7883385085312271, 1.9022630693896756,
            0.9636376321378258, 0.5266379355730825,
        ]
        assert float(result.trace.sample_costs.sum()) == -270234.0
        # Energies round with the kernel's maintained inputs (samples,
        # costs and multipliers do not): pinned exactly per kernel.
        assert float(result.trace.energies.sum()) == {
            "compiled": -222.01687251088663,
            "numpy": -222.01687251088669,
        }[sweep_kernel()]
        assert float(result.trace.lambdas.sum()) == 204.6726255840735
        assert result.trace.feasible.astype(int).tolist() == [
            0, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 1,
            0, 0, 1, 0, 1, 0, 1, 0, 1, 0, 1, 0, 0, 1, 0, 0, 0, 0, 0, 1,
        ]
        assert result.num_feasible == 12
        assert result.num_iterations == 40


class TestSharedLoopBody:
    """Without an escalation the adaptive solver IS the serial engine, so
    every SaimConfig knob behaves as it does there."""

    @pytest.mark.parametrize("overrides", [
        {},
        {"schedule": "geometric"},
        {"target_cost": -8.0},
        {"patience": 2},
        {"record_trace": False},
        {"read_best": True},
    ], ids=["default", "geometric", "target_cost", "patience",
            "no_trace", "read_best"])
    def test_matches_engine_without_escalation(self, overrides):
        config = SaimConfig(num_iterations=30, mcs_per_run=60, eta=5.0,
                            eta_decay="sqrt", normalize_step=True,
                            **overrides)
        outcome = AdaptivePenaltySaim(
            AdaptivePenaltyConfig(config, window=10, max_escalations=0)
        ).solve(tiny_knapsack_problem(), rng=4)
        engine = SaimEngine(config).solve(tiny_knapsack_problem(), rng=4)
        result = outcome.result
        assert outcome.escalations == []
        assert result.best_cost == engine.best_cost
        assert result.num_iterations == engine.num_iterations
        np.testing.assert_array_equal(
            result.final_lambdas, engine.final_lambdas
        )
        if engine.trace is None:
            assert result.trace is None
        else:
            np.testing.assert_array_equal(
                result.trace.energies, engine.trace.energies
            )
            np.testing.assert_array_equal(
                result.trace.sample_costs, engine.trace.sample_costs
            )


class TestReducedCapacity:
    def test_bounds_shrink(self):
        problem = tiny_knapsack_problem()
        reduced = reduced_capacity_problem(problem, 0.5)
        np.testing.assert_allclose(reduced.inequalities.bounds, [3.0])

    def test_feasible_for_reduced_implies_feasible_for_original(self):
        problem = generate_qkp(12, 0.5, rng=10).to_problem()
        reduced = reduced_capacity_problem(problem, 0.7)
        rng = np.random.default_rng(0)
        for _ in range(30):
            x = (rng.uniform(0, 1, 12) < 0.4).astype(np.int8)
            if reduced.is_feasible(x):
                assert problem.is_feasible(x)

    def test_objective_untouched(self):
        problem = tiny_knapsack_problem()
        reduced = reduced_capacity_problem(problem, 0.5)
        assert reduced.objective([1, 0, 1]) == problem.objective([1, 0, 1])

    def test_shrink_validation(self):
        with pytest.raises(ValueError):
            reduced_capacity_problem(tiny_knapsack_problem(), 0.0)
        with pytest.raises(ValueError):
            reduced_capacity_problem(tiny_knapsack_problem(), 1.5)
