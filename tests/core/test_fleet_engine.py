"""FleetEngine: fused SAIM over B problems == serial per-problem solves.

The equivalence contract (``repro.core.fleet_engine``): every instance of
``solve_fleet(problems, rng=seed)`` is *exactly* the result of
``repro.solve(problems[b], rng=spawn_rngs(seed, B)[b])`` — costs, samples,
multiplier trajectories, iteration counts — including instances that
early-exit and get masked out of the fused kernel while others anneal on.
"""

import numpy as np
import pytest

import repro
from repro.core.fleet_engine import FleetEngine
from repro.core.saim import SaimConfig
from repro.utils.rng import spawn_rngs


def fleet_problems():
    """Seeded mixed QKP/MKP fleet, small enough for fast exact comparison."""
    qkps = [
        repro.generate_qkp(num_items=14, density=0.5, rng=10 + index)
        for index in range(3)
    ]
    mkps = [
        repro.generate_mkp(num_items=12, num_constraints=2, rng=20 + index)
        for index in range(2)
    ]
    return qkps + mkps


def small_config(**overrides):
    settings = dict(num_iterations=18, mcs_per_run=60, eta=80.0,
                    eta_decay="sqrt", normalize_step=True)
    settings.update(overrides)
    return SaimConfig(**settings)


def assert_reports_equal(fleet_report, solo_report):
    assert fleet_report.best_cost == solo_report.best_cost
    assert fleet_report.feasible == solo_report.feasible
    assert fleet_report.num_iterations == solo_report.num_iterations
    if solo_report.best_x is None:
        assert fleet_report.best_x is None
    else:
        np.testing.assert_array_equal(fleet_report.best_x, solo_report.best_x)
    fleet_detail, solo_detail = fleet_report.detail, solo_report.detail
    np.testing.assert_array_equal(
        fleet_detail.final_lambdas, solo_detail.final_lambdas
    )
    assert fleet_detail.total_mcs == solo_detail.total_mcs
    np.testing.assert_array_equal(
        fleet_detail.trace.sample_costs, solo_detail.trace.sample_costs
    )
    np.testing.assert_array_equal(
        fleet_detail.trace.energies, solo_detail.trace.energies
    )
    np.testing.assert_array_equal(
        fleet_detail.trace.lambdas, solo_detail.trace.lambdas
    )


@pytest.mark.usefixtures("kernel")
class TestSolveFleetEquivalence:
    @pytest.mark.parametrize("num_replicas, aggregate", [
        pytest.param(1, "best", id="1"),
        pytest.param(3, "best", id="3"),
        pytest.param(3, "mean", id="3-mean"),
    ])
    def test_matches_serial_solve_loop(self, num_replicas, aggregate):
        problems = fleet_problems()
        config = small_config()
        fleet = repro.solve_fleet(
            problems, config=config, num_replicas=num_replicas,
            aggregate=aggregate, rng=42,
        )
        streams = spawn_rngs(42, len(problems))
        for problem, stream, fleet_report in zip(problems, streams, fleet):
            solo = repro.solve(
                problem, config=config, num_replicas=num_replicas,
                aggregate=aggregate, rng=stream,
            )
            assert_reports_equal(fleet_report, solo)

    def test_early_exit_masks_instances_independently(self):
        """target_cost/patience stop instances at different iterations; the
        survivors' chains must not move when others leave the fleet."""
        problems = fleet_problems()
        config = small_config(target_cost=-1e9, patience=3)
        fleet = repro.solve_fleet(problems, config=config, rng=7)
        streams = spawn_rngs(7, len(problems))
        iteration_counts = set()
        for problem, stream, fleet_report in zip(problems, streams, fleet):
            solo = repro.solve(problem, config=config, rng=stream)
            assert_reports_equal(fleet_report, solo)
            iteration_counts.add(fleet_report.num_iterations)
        # The fixture must actually exercise masking: if every instance
        # stalls at the same iteration the active set never shrinks and
        # this test pins nothing.
        assert len(iteration_counts) > 1

    def test_read_best_mode(self):
        problems = fleet_problems()[:3]
        config = small_config(read_best=True)
        fleet = repro.solve_fleet(problems, config=config, rng=3)
        streams = spawn_rngs(3, len(problems))
        for problem, stream, fleet_report in zip(problems, streams, fleet):
            assert_reports_equal(
                fleet_report, repro.solve(problem, config=config, rng=stream)
            )

    def test_explicit_generator_list(self):
        """Passing the spawned streams explicitly == passing the seed."""
        problems = fleet_problems()[:3]
        config = small_config(num_iterations=8)
        by_seed = repro.solve_fleet(problems, config=config, rng=5)
        by_list = repro.solve_fleet(
            problems, config=config, rng=spawn_rngs(5, len(problems))
        )
        for a, b in zip(by_seed, by_list):
            assert_reports_equal(a, b)

    def test_initial_lambdas_per_instance(self):
        problems = fleet_problems()[:2]
        config = small_config(num_iterations=6)
        warm = [np.full(1, 3.0), None]
        fleet = repro.solve_fleet(
            problems, config=config, rng=1, initial_lambdas=warm
        )
        streams = spawn_rngs(1, len(problems))
        for problem, stream, start, fleet_report in zip(
            problems, streams, warm, fleet
        ):
            solo = repro.solve(
                problem, config=config, rng=stream, initial_lambdas=start
            )
            assert_reports_equal(fleet_report, solo)


class TestFleetEngineValidation:
    def test_empty_fleet_returns_empty(self):
        assert FleetEngine(small_config()).solve_fleet([]) == []

    def test_warm_restart_rejected(self):
        with pytest.raises(ValueError, match="restart='random'"):
            FleetEngine(small_config(), restart="warm")

    def test_bad_aggregate_rejected(self):
        with pytest.raises(ValueError, match="aggregate"):
            FleetEngine(small_config(), aggregate="median")

    def test_rng_list_length_checked(self):
        engine = FleetEngine(small_config(num_iterations=2))
        with pytest.raises(ValueError, match="one rng per instance"):
            engine.solve_fleet(
                fleet_problems()[:2], rng=[np.random.default_rng(0)]
            )

    def test_initial_lambdas_length_checked(self):
        engine = FleetEngine(small_config(num_iterations=2))
        with pytest.raises(ValueError, match="one initial_lambdas entry"):
            engine.solve_fleet(
                fleet_problems()[:2], initial_lambdas=[None]
            )

    @pytest.mark.parametrize(
        "start", [np.zeros(9), [np.nan], [np.inf]], ids=["shape", "nan", "inf"]
    )
    def test_initial_lambdas_shape_checked(self, start):
        # The engine's contract is ConstrainedProblem (the front door
        # converts instances); one QKP has exactly one multiplier.
        engine = FleetEngine(small_config(num_iterations=2))
        problem = fleet_problems()[0].to_problem()
        with pytest.raises(ValueError, match="shape"):
            engine.solve_fleet([problem], initial_lambdas=[start])


class TestSolveFleetApi:
    def test_non_pbit_backend_rejected(self):
        with pytest.raises(ValueError, match="pbit"):
            repro.solve_fleet(
                fleet_problems()[:1], backend="quantized", num_iterations=2
            )

    def test_unknown_backend_lists_available(self):
        with pytest.raises(ValueError, match="available"):
            repro.solve_fleet(
                fleet_problems()[:1], backend="nope", num_iterations=2
            )

    def test_backend_options_dtype_only(self):
        with pytest.raises(ValueError, match="dtype"):
            repro.solve_fleet(
                fleet_problems()[:1], backend_options={"bits": 8},
                num_iterations=2,
            )

    def test_conflicting_dtypes_rejected(self):
        with pytest.raises(ValueError, match="conflicting dtypes"):
            repro.solve_fleet(
                fleet_problems()[:1],
                config=small_config(num_iterations=2, dtype="float64"),
                backend_options={"dtype": "float32"},
            )

    def test_reports_carry_fleet_metadata(self):
        problems = fleet_problems()[:2]
        reports = repro.solve_fleet(
            problems, config=small_config(num_iterations=4), rng=0
        )
        assert [r.problem_name for r in reports] == [
            p.name for p in problems
        ]
        assert all(r.method == "saim" for r in reports)
        assert all(r.backend == "pbit" for r in reports)
        assert all(r.wall_seconds > 0 for r in reports)
