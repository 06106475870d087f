"""End-to-end HTTP tests against a live SolverService on an ephemeral port.

These drive the real stack — stdlib ``urllib`` client, threading HTTP
server, priority queue, persistent workers — and pin the service's two
headline contracts: bit-identity with in-process ``repro.solve``, and
structured (never-hanging) answers to bad input and backpressure.
"""

import http.client
import json
import os
import re
import signal
import socket
import threading
import time
import urllib.error
import urllib.request

import numpy as np
import pytest

import repro
from repro.problems.generators import generate_mkp, generate_qkp
from repro.problems.io import array_to_json
from repro.runtime import SolveJob
from repro.service import SolverService
from repro.service.codec import job_to_wire, report_from_wire
from repro.service.http import MAX_BODY_BYTES
from tests.helpers import BAD_WEIGHT_ENVELOPES, list_spelled, qkp6_with_weights

FAST = dict(num_iterations=10, mcs_per_run=60)


def http_json(base, path, payload=None, timeout=60.0):
    """POST (payload given) or GET; returns (status, decoded body)."""
    url = base + path
    if payload is None:
        request = urllib.request.Request(url)
    else:
        body = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read())
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read())


def http_json_headers(base, path, payload=None, timeout=60.0):
    """Like :func:`http_json`, but also returns the response headers."""
    url = base + path
    if payload is None:
        request = urllib.request.Request(url)
    else:
        body = json.dumps(payload).encode("utf-8")
        request = urllib.request.Request(
            url, data=body, headers={"Content-Type": "application/json"},
        )
    try:
        with urllib.request.urlopen(request, timeout=timeout) as response:
            return response.status, json.loads(response.read()), response.headers
    except urllib.error.HTTPError as error:
        return error.code, json.loads(error.read()), error.headers


def raw_exchange(address, data: bytes) -> bytes:
    """Send ``data`` on a fresh connection; return every byte of the reply.

    ``recv`` times out (failing the test) unless the server answers within
    a second and then closes the connection.
    """
    reply = b""
    with socket.create_connection(address, timeout=1.0) as conn:
        conn.sendall(data)
        try:
            while chunk := conn.recv(65536):
                reply += chunk
        except ConnectionResetError:
            pass  # closed with part of ``data`` unread: the reply is complete
    return reply


def raw_post(address, content_length):
    """POST ``/v1/solve`` headers with the given ``Content-Length`` and no
    body; returns (status, decoded body), read up to the server's close."""
    head = (f"POST /v1/solve HTTP/1.1\r\nHost: test\r\n"
            f"Content-Type: application/json\r\n"
            f"Content-Length: {content_length}\r\n\r\n")
    reply = raw_exchange(address, head.encode("ascii"))
    headers, _, body = reply.partition(b"\r\n\r\n")
    return int(headers.split()[1]), json.loads(body)


def wire_job(instance, seed, **kwargs):
    return job_to_wire(
        SolveJob(instance, rng=seed, config_overrides=dict(FAST)), **kwargs
    )


@pytest.fixture
def service():
    with SolverService(port=0, num_workers=1) as live:
        host, port = live.address
        yield live, f"http://{host}:{port}"


class TestSolveEndpoint:
    def test_sync_solve_bit_identical_to_in_process(self, service):
        _, base = service
        instance = generate_qkp(16, 0.5, rng=8)
        status, body = http_json(base, "/v1/solve", wire_job(instance, 21))
        assert status == 200
        assert body["status"] == "done"
        served = report_from_wire(body["report"])
        direct = repro.solve(instance, rng=21, **FAST)
        assert served == direct
        assert np.array_equal(served.best_x, direct.best_x)
        assert body["timing"]["solve_seconds"] > 0
        assert body["worker"] == 0

    def test_list_spelled_body_served_as_its_base64_twin(self, service):
        """A body whose arrays are nested lists is served exactly the
        report its base64 twin is, and that in-process repro.solve gives."""
        _, base = service
        instance = generate_qkp(16, 0.5, rng=8)
        payload = wire_job(instance, 21)
        listed = json.loads(json.dumps(payload))
        for key in ("values", "pair_values", "weights"):
            listed["problem"][key] = list_spelled(payload["problem"][key])
        reports = []
        for body in (payload, listed):
            status, answer = http_json(base, "/v1/solve", body)
            assert status == 200, answer
            answer["report"].pop("wall_seconds")
            reports.append(answer["report"])
        assert reports[0] == reports[1]
        assert (report_from_wire(reports[1])
                == repro.solve(instance, rng=21, **FAST))

    def test_concurrent_clients_each_bit_identical(self, service):
        _, base = service
        instances = {seed: generate_qkp(14, 0.5, rng=seed)
                     for seed in range(6)}
        results = {}

        def client(seed):
            status, body = http_json(
                base, "/v1/solve", wire_job(instances[seed], seed * 13)
            )
            results[seed] = (status, body)

        threads = [threading.Thread(target=client, args=(seed,))
                   for seed in instances]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert len(results) == len(instances)
        for seed, (status, body) in results.items():
            assert status == 200, body
            direct = repro.solve(instances[seed], rng=seed * 13, **FAST)
            assert report_from_wire(body["report"]) == direct

    def test_warm_repeat_same_seed_stays_bit_identical(self, service):
        _, base = service
        instance = generate_qkp(16, 0.5, rng=8)
        first = http_json(base, "/v1/solve", wire_job(instance, 33))[1]
        second = http_json(base, "/v1/solve", wire_job(instance, 33))[1]
        assert (report_from_wire(second["report"])
                == report_from_wire(first["report"]))

    def test_malformed_body_is_400(self, service):
        _, base = service
        status, body = http_json(base, "/v1/solve", {"method": "saim"})
        assert status == 400
        assert body["error"]["type"] == "bad_request"
        assert "problem" in body["error"]["message"]

    def test_non_finite_json_token_is_400(self, service):
        """Strict JSON at the door: NaN/Infinity never reach admission."""
        _, base = service
        instance = generate_qkp(12, 0.5, rng=8)
        payload = wire_job(instance, 1)
        payload["problem"]["capacity"] = float("nan")
        body = json.dumps(payload).encode("utf-8")  # emits a bare NaN token
        request = urllib.request.Request(
            base + "/v1/solve", data=body,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60.0)
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert error["type"] == "bad_request"
        assert "NaN" in error["message"]
        status, _ = http_json(base, "/v1/solve", wire_job(instance, 1))
        assert status == 200
        stats = http_json(base, "/v1/stats")[1]
        assert stats["queue"]["enqueued"] == 1

    def test_too_deeply_nested_body_is_400(self, service):
        """Nesting past the JSON parser's recursion limit is malformed
        JSON: a 400, not a handler thread dying behind a dropped
        connection; the server then answers on a new connection."""
        _, base = service
        request = urllib.request.Request(
            base + "/v1/solve", data=b"[" * 100_000,
            headers={"Content-Type": "application/json"},
        )
        with pytest.raises(urllib.error.HTTPError) as excinfo:
            urllib.request.urlopen(request, timeout=60.0)
        assert excinfo.value.code == 400
        error = json.loads(excinfo.value.read())["error"]
        assert error["type"] == "bad_request"
        assert "not valid JSON" in error["message"]
        assert http_json(base, "/v1/health")[0] == 200

    def test_unknown_method_or_backend_is_400(self, service):
        """Names the registry does not know are refused before admission
        ("auto" included: the perf-model planner is gone; so are the pt
        and metropolis backends)."""
        _, base = service
        instance = generate_qkp(12, 0.5, rng=8)
        for field, name in (("method", "nope"), ("backend", "nope"),
                            ("method", "auto"), ("backend", "pt"),
                            ("backend", "metropolis")):
            payload = wire_job(instance, 1)
            payload[field] = name
            status, body = http_json(base, "/v1/solve", payload)
            assert status == 400, body
            assert body["error"]["type"] == "bad_request"
            assert f"unknown {field} {name!r}" in body["error"]["message"]
        stats = http_json(base, "/v1/stats")[1]
        assert stats["queue"]["enqueued"] == 0

    def test_bad_backend_options_are_400(self, service):
        """Options the backend's builder refuses are answered before
        admission, never queued for a worker to fail.  The retired
        program-cache knob is one more unknown option."""
        _, base = service
        instance = generate_qkp(12, 0.5, rng=8)
        retired = "program_" + "cache"  # spelled in two parts, as in test_cli
        for backend, options, named in (
            (None, {"nope": 1}, "nope"),
            ("pbit", {"dtype": "float16"}, "float16"),
            ("pbit", {"kernel": "bogus"}, "kernel"),
            ("quantized", {"bits": 0}, "bits"),
            ("chromatic", {"storage": "bogus"}, "storage"),
            (None, {retired: "mine"}, retired),
        ):
            payload = wire_job(instance, 1)
            payload["backend"] = backend
            payload["backend_options"] = options
            status, body = http_json(base, "/v1/solve", payload)
            assert status == 400, body
            assert body["error"]["type"] == "bad_request"
            message = body["error"]["message"]
            assert "backend_options" in message and named in message, message
        stats = http_json(base, "/v1/stats")[1]
        assert stats["queue"]["enqueued"] == 0

    def test_bad_content_length_answered_unread(self, service):
        """A negative or oversized Content-Length is answered at once from
        the headers, and the connection is closed behind the answer."""
        live, base = service
        for length, status, kind in (
            ("-1", 400, "bad_request"),
            (str(MAX_BODY_BYTES + 1), 413, "payload_too_large"),
        ):
            answer = raw_post(live.address, length)
            assert answer[0] == status, answer
            assert answer[1]["error"]["type"] == kind
        instance = generate_qkp(12, 0.5, rng=8)
        assert http_json(base, "/v1/solve", wire_job(instance, 1))[0] == 200

    @pytest.mark.parametrize("length", ["abc", "1.5", "0x10"])
    def test_unparseable_content_length_is_400_unread(self, service, length):
        live, base = service
        status, body = raw_post(live.address, length)
        assert status == 400
        assert body["error"]["type"] == "bad_request"
        assert f"bad Content-Length {length!r}" in body["error"]["message"]
        assert http_json(base, "/v1/stats")[1]["queue"]["enqueued"] == 0

    def test_missing_content_length_is_an_empty_body(self, service):
        live, _ = service
        conn = http.client.HTTPConnection(*live.address, timeout=5.0)
        try:
            conn.putrequest("POST", "/v1/solve")
            conn.endheaders()
            response = conn.getresponse()
            error = json.loads(response.read())["error"]
        finally:
            conn.close()
        assert response.status == 400
        assert error["type"] == "bad_request"
        assert "not valid JSON" in error["message"]

    def test_unknown_route_is_404(self, service):
        _, base = service
        assert http_json(base, "/v1/nope", {})[0] == 404
        assert http_json(base, "/v1/nope")[0] == 404

    def test_unknown_post_route_closes_behind_its_404(self, service):
        """The 404 leaves the body unread, so it closes the connection: a
        request pipelined behind it is never parsed out of that body."""
        live, _ = service
        body = b'{"a": 1}'
        data = (b"POST /v1/nope HTTP/1.1\r\nHost: test\r\n"
                b"Content-Type: application/json\r\n"
                b"Content-Length: %d\r\n\r\n%s"
                b"GET /v1/health HTTP/1.1\r\nHost: test\r\n\r\n"
                % (len(body), body))
        reply = raw_exchange(live.address, data)
        # Unanchored: a second answer would follow the 404's body directly.
        statuses = re.findall(rb"HTTP/1\.[01] (\d{3}) ", reply)
        assert statuses == [b"404"], reply
        assert b"not_found" in reply


class TestEveryMethod:
    """Every registered method crosses the door and answers exactly as the
    in-process front door does."""

    @pytest.fixture(scope="class")
    def base(self):
        with SolverService(port=0, num_workers=1) as live:
            host, port = live.address
            yield f"http://{host}:{port}"

    @pytest.mark.parametrize("method", repro.available_methods())
    def test_matches_in_process(self, base, method):
        instance = generate_mkp(12, 2, rng=3)
        budget = {}
        if repro.method_info(method).uses_config:
            budget = dict(FAST)
        options = None
        if method == "ga":
            options = {"population_size": 10, "num_children": 100}
        job = SolveJob(instance, method=method, rng=5, method_options=options,
                       config_overrides=budget)
        status, body = http_json(base, "/v1/solve", job_to_wire(job))
        assert status == 200, body
        expected = repro.solve(instance, method=method, rng=5,
                               method_options=options, **budget)
        assert report_from_wire(body["report"]) == expected


class TestEveryMethodInProcessMode(TestEveryMethod):
    """The same answers from a process worker, which receives the decoded
    job rather than the wire dict."""

    @pytest.fixture(scope="class")
    def base(self):
        with SolverService(port=0, num_workers=1, mode="process") as live:
            host, port = live.address
            yield f"http://{host}:{port}"


class TestDecodeOnce:
    """Admission decodes each body once and the worker runs that job."""

    @pytest.mark.parametrize("mode", ["thread", "process"])
    def test_one_decode_per_request(self, mode, monkeypatch):
        import multiprocessing

        from repro.service import pool

        # Shared memory, so calls in a forked process worker count too.
        decodes = multiprocessing.Value("i", 0)
        wire_dicts = multiprocessing.Value("i", 0)
        decode, execute = pool.job_from_wire, pool.WorkerRuntime.execute

        def counting_decode(payload):
            with decodes.get_lock():
                decodes.value += 1
            return decode(payload)

        def watching_execute(self, job, *args):
            if isinstance(job, dict):
                with wire_dicts.get_lock():
                    wire_dicts.value += 1
            return execute(self, job, *args)

        monkeypatch.setattr(pool, "job_from_wire", counting_decode)
        monkeypatch.setattr(pool.WorkerRuntime, "execute", watching_execute)
        instance = generate_qkp(12, 0.5, rng=8)
        with SolverService(port=0, num_workers=1, mode=mode) as live:
            host, port = live.address
            for seed in range(3):
                status, body = http_json(f"http://{host}:{port}",
                                         "/v1/solve", wire_job(instance, seed))
                assert status == 200, body
        assert decodes.value == 3
        assert wire_dicts.value == 0

    def test_no_tolerant_symmetry_scan_on_a_served_qkp120(self, service,
                                                         monkeypatch):
        """Every matrix a served QKP request builds is exactly symmetric,
        so each symmetry check settles on the exact compare."""
        calls = []
        allclose = np.allclose

        def counting_allclose(*args, **kwargs):
            calls.append(args[0].shape)
            return allclose(*args, **kwargs)

        _, base = service
        payload = wire_job(generate_qkp(120, 0.5, rng=8), 1)
        monkeypatch.setattr(np, "allclose", counting_allclose)
        status, body = http_json(base, "/v1/solve", payload)
        assert status == 200, body
        assert calls == []


class TestAdmissionRefusals:
    """Calls repro.solve refuses before solving are a 400 before queueing,
    never an admitted job that the worker answers 500."""

    @pytest.mark.parametrize("fields, message", [
        ({"warm_start": True, "initial_lambdas": array_to_json(np.ones(1))},
         "warm_start and initial_lambdas are mutually exclusive"),
        ({"warm_start": True, "restart": "warm"},
         "warm_start requires the default restart='random'"),
        ({"method": "greedy", "config_overrides": {},
          "backend_options": {"dtype": "float32"}},
         "method 'greedy' is backend-free; it accepts no backend_options"),
        ({"method": "greedy", "config_overrides": {}, "backend": "pbit"},
         "method 'greedy' is backend-free; it accepts no backend"),
        ({"method": "penalty", "backend_options": {"dtype": "float32"}},
         "the penalty method accepts no backend_options"),
        ({"method": "greedy", "config_overrides": {},
          "method_options": {"temperature": 3}},
         "unknown method_options for 'greedy': ['temperature']"),
        ({"method": "ga", "config_overrides": {},
          "method_options": {"population_size": -4}},
         "population_size must be >= 4, got -4"),
        ({"method": "penalty", "aggregate": "bogus"},
         "the penalty method has no replica aggregate"),
        ({"num_replicas": 2.7}, "num_replicas must be an integer"),
        ({"rng": -5}, "rng seed must be non-negative, got -5"),
    ], ids=["warm_start-lambdas", "warm_start-restart", "greedy-options",
            "greedy-backend", "penalty-options", "greedy-method-options",
            "ga-method-options", "penalty-aggregate", "float-replicas",
            "negative-seed"])
    def test_refused_before_queueing(self, service, fields, message):
        live, base = service
        payload = wire_job(generate_qkp(12, 0.5, rng=8), 1)
        payload.update(fields)
        status, body = http_json(base, "/v1/solve", payload)
        assert status == 400, body
        assert body["error"]["type"] == "bad_request"
        assert message in body["error"]["message"]
        assert live.pool.stats()["queue"]["enqueued"] == 0


    def test_inexact_envelopes_are_400(self, service):
        """Every envelope the codec refuses is a 400 before queueing; an
        overflowing one used to close the connection with no answer."""
        live, base = service
        for case, (envelope, message) in sorted(BAD_WEIGHT_ENVELOPES.items()):
            payload = {"problem": qkp6_with_weights(envelope), "rng": 1,
                       "config_overrides": dict(FAST)}
            status, body = http_json(base, "/v1/solve", payload)
            assert status == 400, (case, body)
            assert body["error"]["type"] == "bad_request"
            assert message in body["error"]["message"], case
        assert live.pool.stats()["queue"]["enqueued"] == 0


class TestKeepAlive:
    def test_accepted_socket_sends_without_nagle(self, service, monkeypatch):
        """An answer leaves in two sends; with Nagle's algorithm on, a
        keep-alive client would wait out its own delayed ACK between
        them on every request."""
        from repro.service.http import _Handler

        nodelay = []
        setup = _Handler.setup

        def watching_setup(self):
            setup(self)
            nodelay.append(self.connection.getsockopt(
                socket.IPPROTO_TCP, socket.TCP_NODELAY))

        monkeypatch.setattr(_Handler, "setup", watching_setup)
        live, _ = service
        conn = http.client.HTTPConnection(*live.address, timeout=5.0)
        try:
            for _ in range(3):  # one keep-alive connection
                conn.request("GET", "/v1/health")
                response = conn.getresponse()
                assert response.status == 200
                response.read()
        finally:
            conn.close()
        assert nodelay == [1]


class TestAsyncJobs:
    def test_async_submit_then_poll(self, service):
        _, base = service
        instance = generate_qkp(14, 0.5, rng=8)
        payload = wire_job(instance, 5)
        payload["mode"] = "async"
        status, accepted = http_json(base, "/v1/solve", payload)
        assert status == 202
        assert accepted["href"] == f"/v1/jobs/{accepted['id']}"
        deadline = 60
        while True:
            status, body = http_json(base, accepted["href"])
            if body.get("status") in ("done", "failed"):
                break
            deadline -= 1
            assert deadline > 0, "async job never finished"
            time.sleep(0.1)  # a loaded 1-CPU host can outrun a bare poll loop
        assert status == 200
        assert (report_from_wire(body["report"])
                == repro.solve(instance, rng=5, **FAST))

    def test_unknown_job_is_404(self, service):
        _, base = service
        status, body = http_json(base, "/v1/jobs/deadbeef")
        assert status == 404
        assert body["error"]["type"] == "unknown_job"

    def test_failed_job_is_500_with_traceback(self, service, monkeypatch):
        """A solver that fails inside the worker (admission cannot see it
        coming) answers 500 with the worker's traceback."""
        from dataclasses import replace

        from repro import api

        def explode(problem, **_):
            raise RuntimeError("solver exploded")

        monkeypatch.setitem(api._METHODS, "saim",
                            replace(api._METHODS["saim"], runner=explode))
        _, base = service
        payload = wire_job(generate_qkp(10, 0.5, rng=8), 5)
        status, body = http_json(base, "/v1/solve", payload)
        assert status == 500
        assert body["status"] == "failed"
        assert body["error"]["type"] == "RuntimeError"
        assert "solver exploded" in body["error"]["traceback"]


class TestBackpressure:
    def test_429_with_structured_payload_not_a_hang(self):
        instance = generate_qkp(12, 0.5, rng=8)
        with SolverService(port=0, num_workers=1, queue_depth=2) as live:
            host, port = live.address
            base = f"http://{host}:{port}"
            live.pool.pause()
            accepted = []
            rejection = None
            rejection_headers = None
            for seed in range(10):
                payload = wire_job(instance, seed)
                payload["mode"] = "async"
                status, body, headers = http_json_headers(
                    base, "/v1/solve", payload, timeout=10.0
                )
                if status == 429:
                    rejection = body
                    rejection_headers = headers
                    break
                assert status == 202
                accepted.append(body["id"])
            assert rejection is not None, "queue never filled"
            assert rejection["error"]["type"] == "queue_full"
            assert rejection["error"]["high_water"] == 2
            assert rejection["error"]["depth"] == 2
            assert rejection["error"]["retry"] is True
            # The JSON retry hint is mirrored as a real Retry-After header
            # (an integer number of seconds, always >= 1).
            retry_after = rejection_headers.get("Retry-After")
            assert retry_after is not None
            assert int(retry_after) >= 1
            stats = http_json(base, "/v1/stats")[1]
            assert stats["paused"] is True
            assert stats["queue"]["rejected"] >= 1
            live.pool.resume()
            for job_id in accepted:
                deadline = 120
                while True:
                    body = http_json(base, f"/v1/jobs/{job_id}")[1]
                    if body.get("status") in ("done", "failed"):
                        break
                    deadline -= 1
                    assert deadline > 0
                assert body["status"] == "done"


class TestWorkerLoss:
    def test_killed_process_worker_fails_job_and_is_replaced(self):
        endless = job_to_wire(SolveJob(
            generate_qkp(120, 0.5, rng=9), rng=1,
            config_overrides=dict(num_iterations=100_000, mcs_per_run=1000),
        ))
        instance = generate_qkp(12, 0.5, rng=8)
        with SolverService(port=0, num_workers=1, mode="process") as live:
            host, port = live.address
            base = f"http://{host}:{port}"
            handle = live.pool.submit(endless)
            deadline = time.monotonic() + 60
            while handle.status != "running":
                assert time.monotonic() < deadline, "job never started"
                time.sleep(0.01)
            time.sleep(0.3)  # let the child take the job off its queue
            os.kill(live.pool._workers[0]._process.pid, signal.SIGKILL)
            assert handle.wait(5.0), "lost job still pending"
            assert handle.status == "failed"
            assert handle.response["error"]["type"] == "WorkerLost"
            status, body = http_json(base, "/v1/solve", wire_job(instance, 1))
            assert status == 200, body
            assert (report_from_wire(body["report"])
                    == repro.solve(instance, rng=1, **FAST))
            stats = http_json(base, "/v1/stats")[1]
            assert stats["worker_restarts"] == 1
            # A child that dies between jobs is replaced before the next
            # job is sent, so that job still succeeds.
            idle = live.pool._workers[0]._process
            os.kill(idle.pid, signal.SIGKILL)
            idle.join(timeout=5.0)
            assert not idle.is_alive()
            status, body = http_json(base, "/v1/solve", wire_job(instance, 2))
            assert status == 200, body
            assert http_json(base, "/v1/stats")[1]["worker_restarts"] == 2


class TestObservability:
    def test_health(self, service):
        _, base = service
        status, body = http_json(base, "/v1/health")
        assert status == 200
        assert body["status"] == "ok"
        assert body["version"] == repro.__version__
        assert body["workers"] == 1
        assert body["mode"] == "thread"

    def test_stats_sessions_stay_bounded(self, service):
        from repro.service.pool import MAX_SESSIONS

        _, base = service
        instance = generate_qkp(8, 0.5, rng=8)
        for k in range(MAX_SESSIONS + 3):
            job = SolveJob(instance, rng=1, config_overrides=dict(
                num_iterations=2, mcs_per_run=5, eta=1.0 + k))
            assert http_json(base, "/v1/solve", job_to_wire(job))[0] == 200
        stats = http_json(base, "/v1/stats")[1]
        assert stats["workers"][0]["sessions"] <= MAX_SESSIONS

    def test_stats_exposes_queue_and_worker_caches(self, service):
        _, base = service
        instance = generate_qkp(14, 0.5, rng=8)
        http_json(base, "/v1/solve", wire_job(instance, 1))
        http_json(base, "/v1/solve", wire_job(instance, 2))
        status, stats = http_json(base, "/v1/stats")
        assert status == 200
        assert stats["jobs_done"] == 2
        assert stats["jobs_per_second"] > 0
        assert stats["queue"]["enqueued"] == 2
        assert stats["queue"]["dequeued"] == 2
        assert stats["workers"][0]["sessions"] == 1
