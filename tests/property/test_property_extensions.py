"""Property-based tests on the extension modules (the exact dual function,
quantization, TTS, hybrid encoding, GAP)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.analysis.tts import time_to_solution
from repro.core.hybrid_encoding import hybrid_slack_weights
from repro.core.lagrangian import LagrangianIsing
from repro.core.problem import ConstrainedProblem, LinearConstraints
from repro.ising.quantization import QuantizationSpec, quantize_ising
from repro.problems.gap import generate_gap
from tests.helpers import dual_value, random_ising

seeds = st.integers(min_value=0, max_value=10**6)


@st.composite
def small_equality_problem(draw):
    """Random tiny problem with one equality constraint."""
    seed = draw(seeds)
    rng = np.random.default_rng(seed)
    n = int(rng.integers(2, 6))
    linear = rng.integers(-9, 10, size=n).astype(float)
    coefficients = rng.integers(1, 4, size=n).astype(float)
    bound = float(rng.integers(1, int(coefficients.sum()) + 1))
    return ConstrainedProblem(
        quadratic=np.zeros((n, n)),
        linear=linear,
        equalities=LinearConstraints(coefficients[None, :], np.array([bound])),
    )


class TestWeakDualityProperty:
    @given(small_equality_problem(),
           st.floats(min_value=-5, max_value=5, allow_nan=False))
    @settings(max_examples=40, deadline=None)
    def test_dual_never_exceeds_feasible_objectives(self, problem, lam):
        """q(lambda) <= f(x) for every feasible x and every lambda."""
        lagrangian = LagrangianIsing(problem, penalty=0.5)
        bound = dual_value(lagrangian, np.array([lam]))
        n = problem.num_variables
        for code in range(2**n):
            x = ((code >> np.arange(n)) & 1).astype(np.int8)
            if problem.is_feasible(x):
                assert bound <= problem.objective(x) + 1e-7

    @given(small_equality_problem())
    @settings(max_examples=30, deadline=None)
    def test_dual_concave_along_random_grid(self, problem):
        lagrangian = LagrangianIsing(problem, penalty=0.5)
        grid = np.linspace(-3, 3, 13)
        values = [dual_value(lagrangian, np.array([lam])) for lam in grid]
        assert np.all(np.diff(values, 2) <= 1e-7)


class TestQuantizationProperties:
    @given(seeds, st.integers(min_value=2, max_value=16))
    @settings(max_examples=40, deadline=None)
    def test_quantization_error_bounded_by_half_step(self, seed, bits):
        """Every coefficient moves by at most half a quantization step."""
        model = random_ising(6, rng=seed)
        quantized = quantize_ising(model, bits)
        scale = max(np.max(np.abs(model.coupling)), np.max(np.abs(model.fields)))
        if scale == 0:
            return
        step = scale / (2 ** (bits - 1) - 1)
        assert np.max(np.abs(quantized.coupling - model.coupling)) <= step / 2 + 1e-12
        assert np.max(np.abs(quantized.fields - model.fields)) <= step / 2 + 1e-12

    @given(seeds, st.integers(min_value=2, max_value=12))
    @settings(max_examples=40, deadline=None)
    def test_quantization_idempotent(self, seed, bits):
        model = random_ising(5, rng=seed)
        once = quantize_ising(model, bits)
        scale = max(np.max(np.abs(model.coupling)), np.max(np.abs(model.fields)))
        spec = QuantizationSpec(bits)
        np.testing.assert_allclose(
            spec.quantize(once.coupling, scale=scale), once.coupling, atol=1e-12
        )


class TestTtsProperties:
    @given(
        st.lists(st.integers(min_value=0, max_value=1), min_size=2, max_size=50),
        st.floats(min_value=0.1, max_value=100),
    )
    @settings(max_examples=60, deadline=None)
    def test_tts_at_least_one_run(self, outcomes, cost):
        """TTS can never be below the cost of a single run."""
        # outcome 0 = hit target (cost 0 <= 0), 1 = miss.
        estimate = time_to_solution(outcomes, target=0, per_run_cost=cost)
        assert estimate.tts >= cost - 1e-9 or math.isinf(estimate.tts)

    @given(st.floats(min_value=0.01, max_value=0.98))
    @settings(max_examples=40, deadline=None)
    def test_tts_formula_consistency(self, p):
        count = 1000
        hits = int(round(p * count))
        achieved = [0.0] * hits + [1.0] * (count - hits)
        estimate = time_to_solution(achieved, target=0.0, per_run_cost=1.0)
        p_emp = hits / count
        if p_emp == 0:
            assert estimate.infinite
        elif p_emp >= 0.99:
            assert estimate.tts == 1.0
        else:
            expected = math.log(0.01) / math.log(1 - p_emp)
            assert estimate.tts == pytest.approx(expected)


class TestHybridEncodingProperties:
    @given(st.integers(min_value=1, max_value=10**5),
           st.integers(min_value=0, max_value=10))
    @settings(max_examples=60, deadline=None)
    def test_weights_sum_at_least_bound(self, bound, unary_bits):
        assert hybrid_slack_weights(bound, unary_bits).sum() >= bound

    @given(st.integers(min_value=1, max_value=2000),
           st.integers(min_value=1, max_value=8))
    @settings(max_examples=40, deadline=None)
    def test_unary_chunks_equal(self, bound, unary_bits):
        weights = hybrid_slack_weights(bound, unary_bits)
        unary = weights[:unary_bits]
        assert np.all(unary == unary[0])


class TestGapProperties:
    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_generated_instances_are_feasible(self, seed):
        """The hidden-assignment construction guarantees feasibility."""
        from repro.problems.gap import solve_gap_exact

        instance = generate_gap(4, 2, rng=seed)
        x, cost = solve_gap_exact(instance)
        assert instance.is_feasible(x)
        assert cost >= 0

    @given(seeds)
    @settings(max_examples=30, deadline=None)
    def test_feasible_implies_one_hot(self, seed):
        rng = np.random.default_rng(seed)
        instance = generate_gap(4, 3, rng=seed)
        x = (rng.uniform(0, 1, instance.num_variables) < 0.3).astype(np.int8)
        if instance.is_feasible(x):
            grid = x.reshape(instance.num_jobs, instance.num_agents)
            assert np.all(grid.sum(axis=1) == 1)
