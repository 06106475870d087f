"""Tests for the sharded solve_many executor (repro.runtime.executor)."""

import json
import pickle

import numpy as np
import pytest

import repro
from repro.core.saim import SaimConfig
from repro.planner.plan import plan_batch_strategy
from repro.planner.tunables import AUTO_FUSED_MAX_VARIABLES, AUTO_FUSED_MIN_JOBS
from repro.problems.generators import generate_qkp
from repro.problems.max3sat import generate_max3sat
from repro.runtime import (
    JobOutcome,
    SolveJob,
    SolveJobError,
    fleet_jobs,
    fused_blockers,
    iter_solve_many,
    solve_many,
)
from tests.helpers import tiny_knapsack_problem

FAST = SaimConfig(num_iterations=10, mcs_per_run=60, eta=5.0,
                  eta_decay="sqrt", normalize_step=True)


def fast_jobs(seeds=(0, 1, 2)):
    return [
        SolveJob(problem=tiny_knapsack_problem(), config=FAST, rng=seed)
        for seed in seeds
    ]


class TestValidation:
    def test_rejects_non_job(self):
        with pytest.raises(TypeError, match="SolveJob"):
            solve_many([tiny_knapsack_problem()])

    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError, match="max_workers"):
            list(iter_solve_many(fast_jobs(), max_workers=0))

    def test_empty_batch(self):
        report = solve_many([])
        assert report.outcomes == []
        assert report.stats.num_jobs == 0
        assert np.isnan(report.stats.best_cost)


class TestInProcessFallback:
    def test_results_in_job_order(self):
        jobs = fast_jobs((5, 6, 7))
        report = solve_many(jobs, max_workers=1)
        assert [o.index for o in report.outcomes] == [0, 1, 2]
        assert [o.job.rng for o in report.outcomes] == [5, 6, 7]

    def test_bit_identical_to_direct_solve_loop(self):
        """The acceptance contract: max_workers=1 == a plain solve loop."""
        instance = generate_qkp(12, 0.5, rng=2)
        jobs = [
            SolveJob(problem=instance, config=FAST, rng=seed,
                     num_replicas=replicas)
            for seed in (0, 1)
            for replicas in (1, 3)
        ]
        report = solve_many(jobs, max_workers=1)
        for job, result in zip(jobs, report.results):
            direct = repro.solve(
                instance, config=FAST, rng=job.rng,
                num_replicas=job.num_replicas,
            )
            assert result.best_cost == direct.best_cost
            np.testing.assert_array_equal(
                result.final_lambdas, direct.final_lambdas
            )
            np.testing.assert_array_equal(
                result.trace.sample_costs, direct.trace.sample_costs
            )

    def test_restart_knob_forwarded(self):
        """SolveJob.restart reaches the engine (warm == direct warm solve)."""
        instance = generate_qkp(12, 0.5, rng=2)
        job = SolveJob(problem=instance, config=FAST, rng=4, restart="warm")
        report = solve_many([job], max_workers=1)
        direct = repro.solve(instance, config=FAST, rng=4, restart="warm")
        assert report.results[0].best_cost == direct.best_cost
        np.testing.assert_array_equal(
            report.results[0].trace.sample_costs, direct.trace.sample_costs
        )

    def test_accepts_unpicklable_rng_in_process(self):
        job = SolveJob(problem=tiny_knapsack_problem(), config=FAST,
                       rng=np.random.default_rng(3))
        report = solve_many([job], max_workers=1)
        assert report.outcomes[0].ok

    def test_streaming_yields_outcomes(self):
        seen = []
        for outcome in iter_solve_many(fast_jobs(), max_workers=1):
            seen.append(outcome.index)
            assert isinstance(outcome, JobOutcome)
            assert outcome.ok
        assert seen == [0, 1, 2]


class TestErrorPropagation:
    def failing_jobs(self):
        good = SolveJob(problem=tiny_knapsack_problem(), config=FAST, rng=0)
        bad = SolveJob(problem=tiny_knapsack_problem(), config=FAST,
                       backend="no-such-machine", rng=1, tag="doomed")
        return [good, bad]

    def test_raises_solve_job_error_by_default(self):
        with pytest.raises(SolveJobError, match="doomed") as excinfo:
            solve_many(self.failing_jobs(), max_workers=1)
        assert "unknown backend" in str(excinfo.value)
        assert excinfo.value.outcome.index == 1

    def test_collect_mode_records_error_and_continues(self):
        report = solve_many(
            self.failing_jobs(), max_workers=1, raise_on_error=False
        )
        ok, failed = report.outcomes
        assert ok.ok and ok.result.found_feasible
        assert not failed.ok
        assert failed.result is None
        assert "unknown backend" in failed.error
        assert report.failed() == [failed]
        assert report.stats.num_failed == 1
        assert report.stats.num_ok == 1


class TestStats:
    def test_aggregates(self):
        report = solve_many(fast_jobs(), max_workers=1)
        stats = report.stats
        assert stats.num_jobs == 3
        assert stats.num_ok == 3
        assert stats.num_failed == 0
        assert stats.wall_seconds > 0
        assert stats.job_seconds_total > 0
        assert stats.jobs_per_second > 0
        assert stats.best_cost == pytest.approx(-8.0)
        assert stats.mean_best_cost <= 0.0
        assert "3/3 jobs ok" in stats.summary()

    def test_progress_callback_streams(self):
        seen = []
        solve_many(fast_jobs(), max_workers=1, progress=seen.append)
        assert sorted(o.index for o in seen) == [0, 1, 2]


class TestProcessPool:
    """max_workers > 1 shards across processes; results must match."""

    def test_sharded_matches_in_process(self):
        jobs = fast_jobs((0, 1, 2, 3))
        serial = solve_many(jobs, max_workers=1)
        sharded = solve_many(jobs, max_workers=2)
        assert [o.index for o in sharded.outcomes] == [0, 1, 2, 3]
        for a, b in zip(serial.results, sharded.results):
            assert a.best_cost == b.best_cost
            np.testing.assert_array_equal(a.final_lambdas, b.final_lambdas)

    def test_sharded_error_propagates(self):
        bad = SolveJob(problem=tiny_knapsack_problem(), config=FAST,
                       backend="no-such-machine", tag="doomed")
        with pytest.raises(SolveJobError, match="doomed"):
            solve_many([*fast_jobs((0,)), bad], max_workers=2)

    def test_unpicklable_job_stays_in_error_channel(self):
        """Submit-side pickling failures must come back as failed outcomes,
        not raw exceptions that lose the rest of the batch."""
        bad = SolveJob(problem=tiny_knapsack_problem(), config=FAST,
                       rng=lambda: 1, tag="unpicklable")
        report = solve_many(
            [*fast_jobs((0,)), bad], max_workers=2, raise_on_error=False
        )
        ok, failed = report.outcomes
        assert ok.ok and ok.result.found_feasible
        assert not failed.ok
        assert "pickle" in failed.error.lower()
        with pytest.raises(SolveJobError, match="unpicklable"):
            solve_many([*fast_jobs((0,)), bad], max_workers=2)


class TestJobPickling:
    """Jobs must survive the process boundary with every field intact."""

    def test_round_trip_with_method_and_options(self):
        job = SolveJob(
            problem=tiny_knapsack_problem(),
            method="ga",
            method_options={"population_size": 12, "num_children": 300},
            rng=4,
            tag="pickled-ga",
        )
        clone = pickle.loads(pickle.dumps(job))
        assert clone.method == "ga"
        assert clone.method_options == {"population_size": 12,
                                        "num_children": 300}
        assert clone.backend is None
        assert clone.rng == 4
        assert clone.tag == "pickled-ga"

    def test_round_trip_full_annealing_job(self):
        job = SolveJob(
            problem=tiny_knapsack_problem(),
            method="saim",
            backend="quantized",
            config=FAST,
            num_replicas=3,
            aggregate="mean",
            rng=7,
            backend_options={"bits": 10},
            config_overrides={"num_iterations": 5},
        )
        clone = pickle.loads(pickle.dumps(job))
        assert clone.backend == "quantized"
        assert clone.num_replicas == 3
        assert clone.aggregate == "mean"
        assert clone.backend_options == {"bits": 10}
        assert clone.config_overrides == {"num_iterations": 5}
        assert clone.config == FAST

    def test_pickled_job_executes_identically(self):
        from repro.runtime.executor import _execute_job

        job = SolveJob(problem=tiny_knapsack_problem(), config=FAST, rng=0)
        clone = pickle.loads(pickle.dumps(job))
        assert _execute_job(0, job).result == _execute_job(0, clone).result


class TestMethodJobs:
    """Baseline methods flow through the same executor pipe."""

    def test_mixed_method_batch(self):
        from repro.problems.generators import generate_mkp

        instance = generate_mkp(12, 2, rng=3)
        jobs = [
            SolveJob(problem=instance, method="saim", config=FAST, rng=0),
            SolveJob(problem=instance, method="greedy"),
            SolveJob(problem=instance, method="milp"),
            SolveJob(problem=instance, method="ga", rng=0,
                     method_options={"population_size": 10,
                                     "num_children": 100}),
        ]
        report = solve_many(jobs, max_workers=1)
        assert report.stats.num_ok == 4
        methods = [outcome.result.method for outcome in report.outcomes]
        assert methods == ["saim", "greedy", "milp", "ga"]
        exact = report.outcomes[2].result.best_cost
        assert report.stats.best_cost == pytest.approx(exact)

    def test_unknown_method_fails_only_its_own_job(self):
        instance = generate_qkp(10, 0.5, rng=3)
        jobs = [
            SolveJob(problem=instance, method="auto"),
            SolveJob(problem=instance, method="greedy"),
        ]
        report = solve_many(jobs, raise_on_error=False)
        lost, done = report.outcomes
        assert not lost.ok
        assert "unknown method 'auto'; available" in lost.error
        assert done.ok and done.result.method == "greedy"

    def test_reports_equal_serial_solves(self):
        """Acceptance: max_workers=1 report == the direct solve, under
        SolveReport equality (which ignores wall time)."""
        import repro

        jobs = fast_jobs((0, 1, 2))
        report = solve_many(jobs, max_workers=1)
        for job, result in zip(jobs, report.results):
            direct = repro.solve(job.problem, config=FAST, rng=job.rng)
            assert result == direct

    def test_sharded_reports_equal_serial_reports(self):
        jobs = fast_jobs((0, 1, 2, 3))
        serial = solve_many(jobs, max_workers=1)
        sharded = solve_many(jobs, max_workers=2)
        for a, b in zip(serial.results, sharded.results):
            assert a == b


class TestExports:
    def test_front_door_exports(self):
        assert repro.solve_many is solve_many
        assert repro.SolveJob is SolveJob
        for name in ("solve_many", "iter_solve_many", "SolveJob",
                     "SolveJobError", "SolveManyReport", "SolveManyStats",
                     "sweep_backends", "BackendSweep"):
            assert name in repro.__all__

    def test_job_label(self):
        job = SolveJob(problem=tiny_knapsack_problem(), backend="quantized",
                       num_replicas=4, rng=9)
        label = job.label(2)
        assert "tiny-knap" in label
        assert "quantized" in label and "R=4" in label
        assert SolveJob(problem=None, tag="custom").label(0) == "custom"


class TestFleetJobs:
    """fleet_jobs: one spawned stream per job, shared solve settings."""

    def test_streams_match_spawn_rngs(self):
        from repro.utils.rng import spawn_rngs

        problems = [generate_qkp(10, 0.5, rng=index) for index in range(3)]
        jobs = fleet_jobs(problems, rng=11, config=FAST)
        expected = spawn_rngs(11, len(problems))
        for job, stream in zip(jobs, expected):
            draw_a = job.rng.integers(0, 10**9)
            draw_b = stream.integers(0, 10**9)
            assert draw_a == draw_b
        assert all(job.config is FAST for job in jobs)

    def test_tags(self):
        problems = [generate_qkp(8, 0.5, rng=0)]
        (job,) = fleet_jobs(problems, rng=0, tags=["alpha"])
        assert job.tag == "alpha"
        with pytest.raises(ValueError, match="one tag per problem"):
            fleet_jobs(problems, rng=0, tags=["a", "b"])

    def test_rng_in_shared_fields_rejected(self):
        with pytest.raises(TypeError, match="rng"):
            fleet_jobs([generate_qkp(8, 0.5, rng=0)], 3, rng=4)


class TestFusedStrategy:
    """strategy='fused': one solve_fleet call, bit-identical to process."""

    def _fleet(self, seed):
        problems = [
            generate_qkp(12, 0.5, rng=100 + index) for index in range(4)
        ]
        return fleet_jobs(problems, rng=seed, config=FAST)

    def test_fused_equals_process(self):
        fused = solve_many(self._fleet(42), strategy="fused")
        process = solve_many(self._fleet(42), strategy="process")
        assert fused.stats.strategy == "fused"
        assert process.stats.strategy == "process"
        for a, b in zip(fused.results, process.results):
            assert a.best_cost == b.best_cost
            assert a.feasible == b.feasible
            np.testing.assert_array_equal(
                a.detail.final_lambdas, b.detail.final_lambdas
            )
            np.testing.assert_array_equal(
                a.detail.trace.energies, b.detail.trace.energies
            )

    def test_int_seed_jobs_fuse_identically(self):
        jobs = [
            SolveJob(problem=generate_qkp(10, 0.5, rng=index), config=FAST,
                     rng=7)
            for index in range(3)
        ]
        fused = solve_many(jobs, strategy="fused")
        process = solve_many(jobs, strategy="process")
        for a, b in zip(fused.results, process.results):
            assert a.best_cost == b.best_cost

    def test_blockers_reported(self):
        mixed = [
            SolveJob(problem=tiny_knapsack_problem(), method="greedy"),
            SolveJob(problem=tiny_knapsack_problem(), config=FAST),
        ]
        blockers = fused_blockers(mixed)
        assert any("greedy" in blocker for blocker in blockers)
        assert any("config differs" in blocker for blocker in blockers)
        with pytest.raises(ValueError, match="shareable"):
            solve_many(mixed, strategy="fused")
        assert fused_blockers(self._fleet(0)) == []
        assert fused_blockers([]) == ["batch is empty"]

    def test_fused_outcome_seconds_split_evenly(self):
        report = solve_many(self._fleet(1), strategy="fused")
        seconds = {outcome.seconds for outcome in report.outcomes}
        assert len(seconds) == 1  # indivisible fleet wall, shared evenly
        assert seconds.pop() > 0

    def test_fused_failure_reported_on_every_outcome(self):
        jobs = self._fleet(2)
        bad = [
            SolveJob(problem=job.problem, config=FAST, rng=job.rng,
                     initial_lambdas=np.zeros(9))
            for job in jobs
        ]
        report = solve_many(bad, strategy="fused", raise_on_error=False)
        assert all(not outcome.ok for outcome in report.outcomes)
        assert all("shape" in outcome.error for outcome in report.outcomes)
        with pytest.raises(SolveJobError):
            solve_many(self._fleet_bad(), strategy="fused")

    def _fleet_bad(self):
        return [
            SolveJob(problem=job.problem, config=FAST, rng=job.rng,
                     initial_lambdas=np.zeros(9))
            for job in self._fleet(3)
        ]

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="strategy"):
            solve_many(fast_jobs(), strategy="magic")


class TestAutoStrategy:
    def test_small_shareable_batch_fuses(self):
        problems = [generate_qkp(10, 0.5, rng=index) for index in range(3)]
        report = solve_many(fleet_jobs(problems, rng=0, config=FAST),
                            strategy="auto")
        assert report.stats.strategy == "fused"

    def test_non_shareable_batch_falls_back(self):
        jobs = [
            SolveJob(problem=tiny_knapsack_problem(), method="greedy"),
            SolveJob(problem=tiny_knapsack_problem(), config=FAST),
        ]
        report = solve_many(jobs, strategy="auto", raise_on_error=False)
        assert report.stats.strategy == "process"

    def test_single_job_stays_process(self):
        report = solve_many(fast_jobs((0,)), strategy="auto")
        assert report.stats.strategy == "process"

    def test_large_instances_stay_process(self):
        problems = [generate_qkp(150, 0.3, rng=index) for index in range(2)]
        jobs = fleet_jobs(
            problems, rng=0, config=FAST,
            config_overrides={"num_iterations": 1, "mcs_per_run": 2},
        )
        assert solve_many(
            jobs, strategy="auto"
        ).stats.strategy == "process"

    def test_instances_at_the_cap_fuse(self):
        problems = [generate_qkp(AUTO_FUSED_MAX_VARIABLES, 0.3, rng=index)
                    for index in range(AUTO_FUSED_MIN_JOBS)]
        jobs = fleet_jobs(
            problems, rng=0, config=FAST,
            config_overrides={"num_iterations": 1, "mcs_per_run": 2},
        )
        assert solve_many(jobs, strategy="auto").stats.strategy == "fused"

    def test_stats_summary_names_strategy(self):
        problems = [generate_qkp(10, 0.5, rng=index) for index in range(2)]
        report = solve_many(fleet_jobs(problems, rng=0, config=FAST),
                            strategy="fused")
        assert "[fused]" in report.stats.summary()
        assert "jobs/s" in report.stats.summary()

    def test_host_cache_files_do_not_steer_the_rule(self, monkeypatch,
                                                    tmp_path):
        """The batch alone decides: a perf-model file in the user cache
        asking for a zero fused cap changes nothing."""
        cache = tmp_path / ".cache" / "repro"
        cache.mkdir(parents=True)
        (cache / "perf_model.json").write_text(json.dumps(
            {"version": 1, "tunables": {"fused_max_variables": 0}}
        ))
        monkeypatch.setenv("HOME", str(tmp_path))
        monkeypatch.delenv("REPRO_PERF_MODEL", raising=False)
        problems = [generate_qkp(40, 0.5, rng=index) for index in range(30)]
        jobs = fleet_jobs(
            problems, rng=0, config=FAST,
            config_overrides={"num_iterations": 1, "mcs_per_run": 2},
        )
        assert solve_many(jobs, strategy="auto").stats.strategy == "fused"


class TestBatchStrategy:
    """``plan_batch_strategy``: the rule behind ``strategy="auto"``."""

    def test_fused_when_small_shareable_and_enough_jobs(self):
        sizes = [24] * max(AUTO_FUSED_MIN_JOBS, 2)
        assert plan_batch_strategy(sizes, shareable=True) == "fused"

    def test_not_shareable_forces_process(self):
        assert plan_batch_strategy([24, 24, 24], shareable=False) == "process"

    def test_unknown_size_forces_process(self):
        sizes = [24, None, 24]
        assert plan_batch_strategy(sizes, shareable=True) == "process"

    def test_too_few_jobs_forces_process(self):
        sizes = [24] * (AUTO_FUSED_MIN_JOBS - 1)
        assert plan_batch_strategy(sizes, shareable=True) == "process"

    def test_oversized_instance_forces_process(self):
        sizes = [AUTO_FUSED_MAX_VARIABLES + 1] * max(AUTO_FUSED_MIN_JOBS, 2)
        assert plan_batch_strategy(sizes, shareable=True) == "process"

    @pytest.mark.parametrize("sizes, expected", [
        pytest.param([AUTO_FUSED_MAX_VARIABLES] * AUTO_FUSED_MIN_JOBS,
                     "fused", id="at-the-cap"),
        pytest.param([1] * AUTO_FUSED_MIN_JOBS, "fused", id="minimum-batch"),
        pytest.param([8] * 10 + [AUTO_FUSED_MAX_VARIABLES + 1], "process",
                     id="one-oversized-among-many"),
        pytest.param([], "process", id="empty"),
        pytest.param([None] * 3, "process", id="all-unknown"),
        pytest.param(iter([16, 16, 16]), "fused", id="one-shot-iterator"),
    ])
    def test_boundaries(self, sizes, expected):
        assert plan_batch_strategy(sizes, shareable=True) == expected


class TestPolynomialBatch:
    @pytest.mark.parametrize("strategy", ["process", "auto"])
    def test_pubo_on_pbit_fails_cleanly(self, strategy):
        """A Max-3-SAT batch is shareable, so "auto" fuses it; either way
        the quadratic p-bit kernel refuses it with the same ValueError
        pointing at backend='higher_order' (never a crash inside the
        penalty build)."""
        problems = [generate_max3sat(8, 20, rng=index) for index in range(3)]
        report = solve_many(fleet_jobs(problems, rng=0, config=FAST),
                            strategy=strategy, raise_on_error=False)
        expected = "fused" if strategy == "auto" else "process"
        assert report.stats.strategy == expected
        for outcome in report.outcomes:
            assert not outcome.ok
            assert "ValueError: " in outcome.error
            assert ("the 'pbit' backend only handles quadratic models — "
                    "solve with backend='higher_order'") in outcome.error

    @pytest.mark.parametrize("strategy", ["process", "auto"])
    def test_pubo_on_higher_order_runs_as_independent_solves(self, strategy):
        """The polynomial route: ``backend="higher_order"`` is not the
        fused p-bit kernel, so "auto" keeps the batch as independent
        solves, each equal to the direct front-door call."""
        problems = [generate_max3sat(8, 20, rng=index) for index in range(3)]
        jobs = [
            SolveJob(problem=problem, backend="higher_order", config=FAST,
                     rng=index)
            for index, problem in enumerate(problems)
        ]
        report = solve_many(jobs, strategy=strategy)
        assert report.stats.strategy == "process"
        for job, result in zip(jobs, report.results):
            assert result.backend == "higher_order"
            assert result == repro.solve(job.problem, backend="higher_order",
                                         config=FAST, rng=job.rng)
