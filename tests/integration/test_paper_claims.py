"""Scaled-down checks of the paper's qualitative claims.

These are the reproduction's regression tests: each test pins one claim from
the paper (Figs. 1-5, Tables II-V narratives) at a problem size small enough
for CI.  The benchmark harness re-verifies them at larger scale.
"""

import numpy as np
import pytest

from repro.core.encoding import encode_with_slacks, normalize_problem
from repro.core.lagrangian import LagrangianIsing
from repro.core.penalty import build_penalty_qubo, density_heuristic_penalty
from repro.core.engine import SaimEngine
from repro.core.saim import SaimConfig
from repro.ising.exhaustive import brute_force_ground_state
from repro.problems.generators import generate_mkp, generate_qkp
from tests.helpers import tiny_constrained_problem


class TestFig1PenaltyTradeoff:
    """Fig. 1b: small P gives infeasible lower bounds, large P fixes it."""

    def test_small_p_lower_bound_below_opt(self):
        problem = tiny_constrained_problem()  # OPT = -5
        qubo = build_penalty_qubo(problem, 0.05)
        state, lower_bound = brute_force_ground_state(qubo)
        assert lower_bound < -5.0
        assert not problem.is_feasible(state)

    def test_large_p_ground_state_feasible(self):
        problem = tiny_constrained_problem()
        qubo = build_penalty_qubo(problem, 50.0)
        state, lower_bound = brute_force_ground_state(qubo)
        assert problem.is_feasible(state)
        assert lower_bound == pytest.approx(-5.0)

    def test_critical_penalty_exists_and_is_monotone(self):
        """Feasibility of the ground state is monotone in P (defines P_C)."""
        problem = tiny_constrained_problem()
        feasible_flags = []
        for penalty in np.geomspace(0.01, 100, 30):
            state, _ = brute_force_ground_state(build_penalty_qubo(problem, penalty))
            feasible_flags.append(problem.is_feasible(state))
        # Once feasible, stays feasible.
        first_true = feasible_flags.index(True)
        assert all(feasible_flags[first_true:])


class TestFig2LagrangeClosesGap:
    """Fig. 2: with P < P_C, the optimal lambda* recovers LB = OPT."""

    def test_gap_closed_by_dual_ascent(self):
        problem = tiny_constrained_problem()
        penalty = 0.05  # far below critical
        lag = LagrangianIsing(problem, penalty)

        def lower_bound(lam):
            _, value = brute_force_ground_state(lag.ising_for(np.array([lam])))
            return value

        # Subgradient ascent on the dual, exactly as SAIM does but with an
        # exact minimization oracle.
        lam = 0.0
        for _ in range(200):
            state, _ = brute_force_ground_state(lag.ising_for(np.array([lam])))
            x = ((state + 1) / 2).astype(int)
            residual = lag.residuals(x)[0]
            lam += 0.05 * residual
        assert lower_bound(lam) == pytest.approx(-5.0, abs=0.2)


class TestFig3SaimDynamics:
    """Fig. 3: unfeasible transient, then lambda stabilizes and feasible
    samples appear."""

    def test_transient_then_feasible(self):
        instance = generate_qkp(20, 0.5, rng=42)
        config = SaimConfig(num_iterations=80, mcs_per_run=200)
        result = SaimEngine(config).solve(instance.to_problem(), rng=0)
        trace = result.trace
        assert result.found_feasible
        # Feasible samples concentrate after the transient: the second half
        # of the run must contain at least as many as the first half.
        half = config.num_iterations // 2
        early = int(trace.feasible[:half].sum())
        late = int(trace.feasible[half:].sum())
        assert late >= early

    def test_lambda_moves_from_zero(self):
        instance = generate_qkp(20, 0.5, rng=43)
        config = SaimConfig(num_iterations=40, mcs_per_run=150)
        result = SaimEngine(config).solve(instance.to_problem(), rng=0)
        assert np.any(result.trace.lambdas[-1] != 0)


class TestTable2Narrative:
    """Table II: SAIM with fixed P = 2dN beats the same-budget penalty
    method, which mostly cannot even find feasible samples."""

    def test_same_budget_comparison(self):
        from repro.core.penalty import penalty_method_solve

        wins = 0
        for seed in range(3):
            instance = generate_qkp(18, 0.25, rng=100 + seed)
            problem = instance.to_problem()
            encoded = encode_with_slacks(problem)
            normalized, _ = normalize_problem(encoded.problem)
            small_p = density_heuristic_penalty(normalized, alpha=2.0)

            penalty = penalty_method_solve(
                encoded, small_p, num_runs=40, mcs_per_run=150, rng=seed
            )
            saim = SaimEngine(
                SaimConfig(num_iterations=40, mcs_per_run=150)
            ).solve(problem, rng=seed)

            saim_profit = -saim.best_cost if saim.found_feasible else 0.0
            penalty_profit = -penalty.best_cost if penalty.best_x is not None else 0.0
            if saim_profit >= penalty_profit:
                wins += 1
        assert wins >= 2  # SAIM wins the clear majority


class TestFig5MkpDynamics:
    """Fig. 5: multipliers increase from zero while constraints are violated,
    then stabilize; SAIM finds near-optimal MKP solutions."""

    def test_multipliers_rise_then_feasible(self):
        instance = generate_mkp(20, 5, rng=7)
        config = SaimConfig.mkp_paper(num_iterations=100, mcs_per_run=150)
        result = SaimEngine(config).solve(instance.to_problem(), rng=1)
        lambdas = result.trace.lambdas
        # Multipliers start at zero and must have grown (violated knapsacks
        # push lambda up since A x - b >= 0 initially when everything is
        # over capacity).
        assert np.all(lambdas[0] == 0)
        assert lambdas[-1].max() > 0
        assert result.found_feasible


class TestMcsAccounting:
    """Fig. 4b: sample-count bookkeeping behind the speedup table."""

    def test_total_mcs_is_runs_times_sweeps(self):
        instance = generate_qkp(15, 0.5, rng=8)
        config = SaimConfig(num_iterations=25, mcs_per_run=80)
        result = SaimEngine(config).solve(instance.to_problem(), rng=0)
        assert result.total_mcs == 25 * 80

    def test_paper_budget_reference(self):
        # The paper's QKP setting spends 2M MCS; verify the config arithmetic.
        config = SaimConfig.qkp_paper()
        assert config.num_iterations * config.mcs_per_run == 2_000_000
