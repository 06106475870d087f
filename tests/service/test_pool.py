"""Worker-pool tests: residency, bit-identity, backpressure, logging."""

import io
import json

import numpy as np
import pytest

import repro
from repro.problems.generators import generate_qkp
from repro.runtime import SolveJob
from repro.service.codec import job_from_wire, job_to_wire
from repro.service.log import RequestLogger
from repro.service.pool import ServicePool, WorkerRuntime
from repro.service.queue import QueueFullError

FAST = dict(num_iterations=10, mcs_per_run=60)


def wire_job(instance, seed, *, warm_start=False, **kwargs):
    job = SolveJob(instance, rng=seed, config_overrides=dict(FAST), **kwargs)
    return job_to_wire(job, warm_start=warm_start)


def admitted(instance, seed, **kwargs):
    """``(SolveJob, warm_start)`` as admission hands it to a worker."""
    return job_from_wire(wire_job(instance, seed, **kwargs))


class TestWorkerRuntime:
    def test_bit_identity_with_front_door(self):
        instance = generate_qkp(16, 0.5, rng=3)
        runtime = WorkerRuntime()
        response = runtime.execute(*admitted(instance, 42))
        assert response["ok"], response.get("error")
        from repro.service.codec import report_from_wire

        served = report_from_wire(response["report"])
        direct = repro.solve(instance, rng=42, **FAST)
        assert served == direct
        assert np.array_equal(served.best_x, direct.best_x)

    def test_warm_repeat_stays_bit_identical(self):
        """A repeated request on a live worker is answered exactly as the
        first: nothing one solve leaves behind changes the next."""
        instance = generate_qkp(16, 0.5, rng=3)
        runtime = WorkerRuntime()
        first = runtime.execute(*admitted(instance, 42))
        second = runtime.execute(*admitted(instance, 42))
        from repro.service.codec import report_from_wire

        # Wire dicts differ only in wall_seconds; report equality is the
        # contract (identity fields + best_x).
        assert (report_from_wire(second["report"])
                == report_from_wire(first["report"]))

    def test_warm_start_resumes_session_lambdas(self):
        instance = generate_qkp(16, 0.5, rng=3)
        runtime = WorkerRuntime()
        runtime.execute(*admitted(instance, 1))
        response = runtime.execute(*admitted(instance, 2, warm_start=True))
        assert response["ok"]
        assert response["warm_start"] is True
        stats = runtime.stats()
        assert stats["session_warm_starts"] == 1
        assert stats["lambda_entries"] >= 1

    def test_session_map_is_a_bounded_lru(self):
        """A client sweeping a config knob cannot grow a worker without
        bound: sessions past MAX_SESSIONS drop least recently used first."""
        from repro.service.pool import MAX_SESSIONS

        instance = generate_qkp(8, 0.5, rng=3)
        runtime = WorkerRuntime()

        def execute(eta, warm_start=False):
            job = SolveJob(instance, rng=1, config_overrides=dict(
                num_iterations=2, mcs_per_run=5, eta=eta))
            response = runtime.execute(job, warm_start)
            assert response["ok"], response.get("error")
            return response["stats"]

        etas = [1.0 + k for k in range(3 * MAX_SESSIONS)]
        for eta in etas:
            execute(eta)
        assert len(runtime._sessions) == MAX_SESSIONS
        assert runtime.stats()["sessions"] == MAX_SESSIONS
        # The most recent configuration is resident and warm-starts ...
        assert execute(etas[-1], warm_start=True)["session_warm_starts"] == 1
        # ... a hit refreshes recency, so the oldest resident, once touched,
        # outlives one more new configuration ...
        oldest = etas[-MAX_SESSIONS]
        execute(oldest)
        execute(0.5)
        assert execute(oldest, warm_start=True)["session_warm_starts"] == 2
        # ... and the first configuration was dropped: it starts cold.
        assert execute(etas[0], warm_start=True)["session_warm_starts"] == 2
        assert len(runtime._sessions) == MAX_SESSIONS
        # Dropping the warm-started sessions keeps their counts in the total.
        for eta in etas[:MAX_SESSIONS]:
            execute(eta)
        assert runtime.stats()["session_warm_starts"] == 2

    @pytest.mark.parametrize("warm_start", [False, True])
    def test_two_problem_builds_per_saim_request(self, monkeypatch,
                                                 warm_start):
        """A served ``saim`` request builds its constrained problem twice:
        once for the fingerprint that the worker and its session share,
        and once in the solve."""
        instance = generate_qkp(16, 0.5, rng=3)
        runtime = WorkerRuntime()
        runtime.execute(*admitted(instance, 1))
        builds = []
        to_problem = type(instance).to_problem

        def counting(self):
            builds.append(self)
            return to_problem(self)

        monkeypatch.setattr(type(instance), "to_problem", counting)
        job, warm = admitted(instance, 2, warm_start=warm_start)
        builds.clear()
        response = runtime.execute(job, warm)
        assert response["ok"], response.get("error")
        assert response["warm_start"] is warm_start
        assert len(builds) == 2
        assert runtime.stats()["session_warm_starts"] == int(warm_start)

    def test_solver_errors_travel_as_data(self):
        runtime = WorkerRuntime()
        job = SolveJob(generate_qkp(10, 0.5, rng=3), method="not-a-method")
        response = runtime.execute(job)
        assert not response["ok"]
        assert response["error"]["type"]
        assert "not-a-method" in response["error"]["message"]
        assert runtime.stats()["errors"] == 1


class TestServicePool:
    def test_submit_and_report_bit_identical(self):
        instance = generate_qkp(16, 0.5, rng=5)
        with ServicePool(num_workers=1) as pool:
            handle = pool.solve_payload(wire_job(instance, 7), timeout=60)
        assert handle.status == "done"
        assert handle.report() == repro.solve(instance, rng=7, **FAST)

    def test_finished_job_releases_its_request(self):
        """Finished handles stay listed, so they must not keep the decoded
        request alive; status and report still work."""
        instance = generate_qkp(16, 0.5, rng=5)
        with ServicePool(num_workers=1) as pool:
            handle = pool.solve_payload(wire_job(instance, 7), timeout=60)
            assert pool.handle(handle.id) is handle
        assert handle.job is None
        assert handle.status == "done"
        assert handle.report() == repro.solve(instance, rng=7, **FAST)

    def test_process_mode_bit_identical(self):
        instance = generate_qkp(16, 0.5, rng=5)
        with ServicePool(num_workers=1, mode="process") as pool:
            first = pool.solve_payload(wire_job(instance, 7), timeout=120)
            second = pool.solve_payload(wire_job(instance, 7), timeout=120)
        assert first.report() == repro.solve(instance, rng=7, **FAST)
        assert second.report() == first.report()

    def test_backpressure_rejects_above_high_water(self):
        instance = generate_qkp(10, 0.5, rng=5)
        with ServicePool(num_workers=1, queue_depth=2) as pool:
            pool.pause()
            held = []
            with pytest.raises(QueueFullError) as excinfo:
                for seed in range(10):
                    held.append(pool.submit(wire_job(instance, seed)))
            assert excinfo.value.high_water == 2
            # Pause may hold one dequeued job beyond the queued two.
            assert 2 <= len(held) <= 3
            pool.resume()
            for handle in held:
                assert handle.wait(60)
                assert handle.status == "done"

    def test_malformed_payload_never_enqueued(self):
        with ServicePool(num_workers=1) as pool:
            with pytest.raises(Exception, match="problem"):
                pool.submit({"method": "saim"})
            assert pool.queue.num_enqueued == 0

    def test_stats_shape(self):
        instance = generate_qkp(10, 0.5, rng=5)
        with ServicePool(num_workers=2) as pool:
            pool.solve_payload(wire_job(instance, 1), timeout=60)
            stats = pool.stats()
        assert stats["jobs_done"] == 1
        assert stats["queue"]["enqueued"] == 1
        assert stats["queue"]["rejected"] == 0
        assert len(stats["workers"]) == 2
        assert {"id", "mode"} <= set(stats["workers"][0])

    def test_one_log_line_per_request_including_rejected(self):
        instance = generate_qkp(10, 0.5, rng=5)
        stream = io.StringIO()
        logger = RequestLogger(stream)
        with ServicePool(num_workers=1, queue_depth=1,
                         logger=logger) as pool:
            pool.solve_payload(wire_job(instance, 1), timeout=60)
            pool.pause()
            submitted = [pool.submit(wire_job(instance, 2))]
            with pytest.raises(QueueFullError):
                for seed in range(3, 10):
                    submitted.append(pool.submit(wire_job(instance, seed)))
            pool.resume()
            for handle in submitted:
                assert handle.wait(60)
        lines = [json.loads(line) for line in
                 stream.getvalue().splitlines()]
        assert len(lines) == len(submitted) + 2  # done jobs + one rejection
        statuses = [line["status"] for line in lines]
        assert statuses.count("rejected") == 1
        assert statuses.count("ok") == len(submitted) + 1
        for line in lines:
            assert line["event"] == "solve"
            assert "id" in line and "priority" in line

    def test_invalid_construction(self):
        with pytest.raises(ValueError, match="num_workers"):
            ServicePool(num_workers=0)
        with pytest.raises(ValueError, match="mode"):
            ServicePool(mode="greenlet")
