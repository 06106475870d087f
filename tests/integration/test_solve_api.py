"""Tests for the registry-backed front door (repro.solve)."""

import numpy as np
import pytest

import repro
from repro.core.penalty import PenaltyMethodResult
from repro.core.report import SolveReport
from repro.core.saim import SaimConfig, SaimResult
from repro.problems.generators import generate_mkp, generate_qkp
from tests.helpers import tiny_knapsack_problem

FAST = dict(num_iterations=15, mcs_per_run=100, eta=5.0,
            eta_decay="sqrt", normalize_step=True)


class TestRegistry:
    def test_default_methods_registered(self):
        for name in ("saim", "penalty", "greedy", "ga", "milp", "bnb",
                     "exhaustive"):
            assert name in repro.available_methods()

    def test_unknown_method_lists_available(self):
        # "auto" (the retired perf-model planner) is unknown like any other.
        for name in ("quantum", "auto"):
            with pytest.raises(ValueError,
                               match=f"unknown method '{name}'; available"):
                repro.solve(tiny_knapsack_problem(), method=name)

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ValueError, match="unknown backend"):
            repro.solve(tiny_knapsack_problem(), backend="dilution-fridge")

    def test_descriptions_cover_registry(self):
        methods = repro.describe_methods()
        assert set(methods) == set(repro.available_methods())
        assert all(methods.values()), "every method needs a description"
        backends = repro.describe_backends()
        assert set(backends) == set(repro.available_backends())
        assert all(backends.values()), "every backend needs a description"

    def test_method_info_flags(self):
        assert repro.method_info("saim").uses_backend
        assert repro.method_info("saim").uses_lambdas
        for name in ("greedy", "ga", "milp", "bnb", "exhaustive"):
            spec = repro.method_info(name)
            assert not spec.uses_backend
            assert not spec.uses_config

    @pytest.mark.parametrize("method", ["penalty", "saim"])
    def test_annealing_methods_default_to_pbit(self, method):
        # The default is the p-bit machine itself, not just its label:
        # naming it changes nothing.
        problem = generate_qkp(12, 0.5, rng=6)
        implicit = repro.solve(problem, method=method, rng=4, **FAST)
        explicit = repro.solve(problem, method=method, backend="pbit",
                               rng=4, **FAST)
        assert implicit.backend == "pbit"
        assert implicit == explicit

    def test_register_method_takes_no_default_backend(self):
        # Every annealing method runs on the same default machine, so the
        # registry has no per-method default to declare.
        with pytest.raises(TypeError, match="default_backend"):
            repro.register_method("sentinel-method", lambda problem, **_: None,
                                  default_backend="pbit")
        assert "sentinel-method" not in repro.available_methods()

    def test_custom_registration_round_trip(self):
        def runner(problem, **kwargs):
            return "sentinel"

        repro.register_method("sentinel-method", runner)
        try:
            assert "sentinel-method" in repro.available_methods()
            report = repro.solve(
                tiny_knapsack_problem(), method="sentinel-method"
            )
            # Legacy runners returning arbitrary objects are coerced into
            # the schema, with the raw value as the detail payload.
            assert isinstance(report, SolveReport)
            assert report.detail == "sentinel"
            assert not report.feasible
        finally:
            from repro import api

            del api._METHODS["sentinel-method"]


class TestSolveReportSchema:
    """Acceptance: every registered method returns the same schema."""

    @pytest.fixture(scope="class")
    def mkp(self):
        return generate_mkp(12, 2, rng=3)

    @pytest.mark.parametrize("method", ["saim", "penalty", "greedy", "ga",
                                        "milp", "bnb", "exhaustive"])
    def test_every_method_returns_solve_report(self, mkp, method):
        kwargs = {}
        if repro.method_info(method).uses_config:
            kwargs = dict(num_iterations=10, mcs_per_run=60)
        if method == "ga":
            kwargs = dict(
                method_options={"population_size": 10, "num_children": 100}
            )
        report = repro.solve(mkp, method=method, rng=0, **kwargs)
        assert isinstance(report, SolveReport)
        assert report.method == method
        assert report.problem_name == mkp.name
        assert report.wall_seconds > 0
        assert report.num_iterations >= 1
        if repro.method_info(method).uses_backend:
            assert report.backend == "pbit"
        else:
            assert report.backend is None
        if report.feasible:
            assert mkp.is_feasible(report.best_x)
            assert report.best_cost == pytest.approx(-mkp.profit(report.best_x))

    def test_exact_methods_agree(self, mkp):
        costs = {
            method: repro.solve(mkp, method=method).best_cost
            for method in ("milp", "bnb", "exhaustive")
        }
        assert len({round(c, 6) for c in costs.values()}) == 1, costs

    def test_heuristics_bounded_by_exact(self, mkp):
        exact = repro.solve(mkp, method="milp").best_cost
        for method, kwargs in (
            ("greedy", {}),
            ("ga", dict(method_options={"population_size": 10,
                                        "num_children": 200}, rng=0)),
        ):
            report = repro.solve(mkp, method=method, **kwargs)
            assert report.best_cost >= exact - 1e-9

    def test_detail_payload_types(self, mkp):
        from repro.baselines.branch_and_bound import BnBResult
        from repro.baselines.exact_qkp import ExhaustiveResult
        from repro.baselines.ga import GaResult
        from repro.baselines.greedy import GreedyResult
        from repro.baselines.milp import MilpResult

        expected = {
            "greedy": GreedyResult,
            "milp": MilpResult,
            "bnb": BnBResult,
            "exhaustive": ExhaustiveResult,
        }
        for method, kind in expected.items():
            assert isinstance(
                repro.solve(mkp, method=method).detail, kind
            )
        ga = repro.solve(
            mkp, method="ga", rng=0,
            method_options={"population_size": 10, "num_children": 50},
        )
        assert isinstance(ga.detail, GaResult)

    def test_ga_runs_on_qkp(self):
        instance = generate_qkp(12, 0.5, rng=1)
        report = repro.solve(
            instance, method="ga", rng=0,
            method_options={"population_size": 10, "num_children": 200},
        )
        assert report.feasible
        assert instance.is_feasible(report.best_x)

    def test_exhaustive_solves_bare_problem(self):
        report = repro.solve(tiny_knapsack_problem(), method="exhaustive")
        assert report.feasible
        assert report.best_cost == pytest.approx(-8.0)
        assert report.detail.num_feasible >= 1

    def test_greedy_rejects_bare_problem(self):
        with pytest.raises(ValueError, match="typed QKP or MKP instance"):
            repro.solve(tiny_knapsack_problem(), method="greedy")

    def test_milp_redirects_qkp(self):
        with pytest.raises(ValueError, match="linear-objective"):
            repro.solve(generate_qkp(10, 0.5, rng=0), method="milp")

    def test_unknown_method_options_rejected(self, mkp):
        with pytest.raises(ValueError, match="unknown method_options"):
            repro.solve(mkp, method="greedy",
                        method_options={"temperature": 3})

    def test_summary_mentions_method_and_problem(self, mkp):
        report = repro.solve(mkp, method="greedy")
        assert "greedy" in report.summary()
        assert mkp.name in report.summary()


class TestBackendFreeRejections:
    """Backend knobs on backend-free methods must raise, not be ignored."""

    @pytest.fixture(scope="class")
    def qkp(self):
        return generate_qkp(10, 0.5, rng=2)

    def test_rejects_explicit_backend(self, qkp):
        with pytest.raises(ValueError, match="backend-free"):
            repro.solve(qkp, method="greedy", backend="pbit")

    @pytest.mark.parametrize("method", ["bnb", "exhaustive", "ga", "greedy",
                                        "milp"])
    def test_every_backend_free_method_rejects_a_backend(self, qkp, method):
        assert not repro.method_info(method).uses_backend
        with pytest.raises(ValueError, match=f"method {method!r} is "
                                             "backend-free"):
            repro.solve(qkp, method=method, backend="pbit")

    def test_rejects_replicas(self, qkp):
        with pytest.raises(ValueError, match="no replica loop"):
            repro.solve(qkp, method="greedy", num_replicas=4)

    def test_rejects_backend_options(self, qkp):
        with pytest.raises(ValueError, match="backend_options"):
            repro.solve(qkp, method="greedy", backend_options={"bits": 8})

    def test_rejects_lambdas(self, qkp):
        with pytest.raises(ValueError, match="no Lagrange multipliers"):
            repro.solve(qkp, method="greedy", initial_lambdas=np.zeros(1))

    def test_rejects_aggregate(self, qkp):
        with pytest.raises(ValueError, match="no replica aggregate"):
            repro.solve(qkp, method="greedy", aggregate="mean")

    @pytest.mark.parametrize("aggregate", ["bogus", "mean"])
    def test_penalty_rejects_aggregate(self, qkp, aggregate):
        """The fixed-penalty baseline has no replica loop to aggregate."""
        with pytest.raises(ValueError, match="penalty method has no replica "
                                             "aggregate"):
            repro.solve(qkp, method="penalty", aggregate=aggregate,
                        num_iterations=2, mcs_per_run=2)

    @pytest.mark.parametrize("method, options, message", [
        ("greedy", {"temperature": 3}, "unknown method_options for 'greedy'"),
        ("ga", {"population_size": -4}, "population_size must be >= 4"),
        ("bnb", {"nodes": 1}, "unknown method_options for 'bnb'"),
        ("exhaustive", {"x": 1}, "unknown method_options for 'exhaustive'"),
    ])
    def test_method_options_checked_before_solving(self, qkp, method,
                                                   options, message):
        """``check_solve`` (both front doors' refusals) reads each
        baseline's method_options, so nothing refuses them later."""
        with pytest.raises(ValueError, match=message):
            repro.api.check_solve(qkp, method, method_options=options)

    def test_rejects_saim_config(self, qkp):
        with pytest.raises(ValueError, match="no SaimConfig"):
            repro.solve(qkp, method="greedy", num_iterations=10)
        with pytest.raises(ValueError, match="no SaimConfig"):
            repro.solve(qkp, method="greedy", config=SaimConfig())


class TestSolveFrontDoor:
    def test_solves_problem_object(self):
        report = repro.solve(tiny_knapsack_problem(), rng=0, **FAST)
        assert isinstance(report, SolveReport)
        assert isinstance(report.detail, SaimResult)
        assert report.feasible and report.found_feasible
        assert report.best_cost == pytest.approx(-8.0)
        assert report.method == "saim"
        assert report.backend == "pbit"

    def test_accepts_instance_with_to_problem(self):
        instance = generate_qkp(12, 0.5, rng=1)
        report = repro.solve(instance, rng=1, **FAST)
        assert isinstance(report.detail, SaimResult)
        if report.feasible:
            assert instance.is_feasible(report.best_x)

    def test_config_object_plus_overrides(self):
        config = SaimConfig(**FAST)
        report = repro.solve(
            tiny_knapsack_problem(), config=config, num_iterations=7, rng=0
        )
        assert report.num_iterations == 7
        assert report.mcs_per_run == 100  # delegated to the SaimResult

    def test_config_dict(self):
        report = repro.solve(
            tiny_knapsack_problem(), config=dict(FAST), rng=0
        )
        assert report.num_iterations == 15

    def test_bad_config_type_rejected(self):
        with pytest.raises(TypeError):
            repro.solve(tiny_knapsack_problem(), config=42)

    def test_unknown_config_field_lists_valid_names(self):
        """Regression: a typo'd config key used to raise a raw TypeError
        from the dataclass constructor."""
        with pytest.raises(ValueError, match="unknown SaimConfig field"):
            repro.solve(tiny_knapsack_problem(), num_itertions=10)
        with pytest.raises(ValueError) as excinfo:
            repro.solve(tiny_knapsack_problem(), config={"etaa": 2.0})
        assert "etaa" in str(excinfo.value)
        assert "eta" in str(excinfo.value)  # valid fields are listed

    def test_replicas_and_accounting(self):
        report = repro.solve(
            tiny_knapsack_problem(), num_replicas=4, rng=0, **FAST
        )
        assert report.num_replicas == 4
        assert report.total_mcs == 15 * 4 * 100
        assert report.num_iterations == 15

    @pytest.mark.parametrize("backend", ["pbit", "quantized", "chromatic"])
    def test_every_backend_solves_tiny_knapsack(self, backend):
        report = repro.solve(
            tiny_knapsack_problem(), backend=backend, rng=0, **FAST
        )
        assert isinstance(report.detail, SaimResult)
        assert report.feasible
        assert report.best_cost == pytest.approx(-8.0)
        assert report.backend == backend

    def test_quantized_backend_options(self):
        report = repro.solve(
            tiny_knapsack_problem(), backend="quantized",
            backend_options={"bits": 12}, rng=0, **FAST
        )
        assert report.feasible

    @pytest.mark.parametrize("backend, options, named", [
        ("pbit", {"kernel": "bogus"}, "kernel"),
        ("quantized", {"kernel": "bogus"}, "kernel"),
        ("quantized", {"bits": 0}, "bits"),
        ("quantized", {"bits": 2.5}, "bits"),
        ("chromatic", {"storage": "bogus"}, "storage"),
    ])
    def test_bad_option_values_refused_by_the_builder(
            self, backend, options, named):
        """The builder refuses a value its machine would refuse, so no
        machine is ever built with it."""
        with pytest.raises(ValueError, match=named):
            repro.make_backend_factory(backend, **options)
        with pytest.raises(ValueError, match=named):
            repro.solve(tiny_knapsack_problem(), backend=backend,
                        backend_options=options, num_iterations=2,
                        mcs_per_run=5)

    @pytest.mark.parametrize("backend", ["pbit", "quantized"])
    def test_retired_program_cache_option_is_type_error(self, backend):
        """The service-resident program knob is gone: each machine builds
        its own program, so the builders refuse it like any typo."""
        option = "program_" + "cache"  # spelled in two parts, as in test_cli
        with pytest.raises(TypeError, match=f"unexpected keyword argument '{option}'"):
            repro.solve(
                tiny_knapsack_problem(), backend=backend,
                backend_options={option: None}, num_iterations=5,
                mcs_per_run=20,
            )

    def test_penalty_method(self):
        report = repro.solve(
            tiny_knapsack_problem(), method="penalty",
            num_iterations=40, mcs_per_run=100, rng=0,
        )
        assert isinstance(report, SolveReport)
        assert isinstance(report.detail, PenaltyMethodResult)
        assert report.best_x is not None
        assert report.num_iterations == 40
        assert report.detail.num_runs == 40

    def test_penalty_method_rejects_other_backends(self):
        with pytest.raises(ValueError, match="'pbit' backend only"):
            repro.solve(
                tiny_knapsack_problem(), method="penalty",
                backend="quantized", num_iterations=5, mcs_per_run=20,
            )

    def test_penalty_method_rejects_replicas(self):
        with pytest.raises(ValueError, match="no replica loop"):
            repro.solve(
                tiny_knapsack_problem(), method="penalty",
                num_replicas=8, num_iterations=5, mcs_per_run=20,
            )

    def test_penalty_method_rejects_backend_options(self):
        """Regression: backend_options used to be silently discarded."""
        with pytest.raises(ValueError, match="no backend_options"):
            repro.solve(
                tiny_knapsack_problem(), method="penalty",
                backend_options={"bits": 8}, num_iterations=5,
                mcs_per_run=20,
            )

    def test_penalty_method_accepts_empty_backend_options(self):
        report = repro.solve(
            tiny_knapsack_problem(), method="penalty",
            backend_options={}, num_iterations=5, mcs_per_run=20, rng=0,
        )
        assert isinstance(report.detail, PenaltyMethodResult)

    def test_penalty_method_rejects_lambdas(self):
        with pytest.raises(ValueError, match="no Lagrange multipliers"):
            repro.solve(
                tiny_knapsack_problem(), method="penalty",
                initial_lambdas=np.zeros(1), num_iterations=5,
                mcs_per_run=20,
            )

    def test_saim_rejects_method_options(self):
        with pytest.raises(ValueError, match="no method_options"):
            repro.solve(
                tiny_knapsack_problem(), method_options={"x": 1},
                num_iterations=5, mcs_per_run=20,
            )
