"""The benchmark's two workloads: inputs, set-up, timed operations, checks.

Every workload builds its inputs from the workload seed with the
repository's own generators, so the program receives only generated
inputs.  Accuracy references are computed after the timed phases.

QKP instances are ``generate_qkp`` draws at 50% density whose capacity
lies between 20% and 40% of the total item weight: the generator draws
the capacity uniformly from almost the whole range, and outside this band
the short SAIM budgets used here miss feasibility on some draws, which
would turn a seed into failed operations instead of a measurement.
"""

from __future__ import annotations

import itertools
import json
import math
import statistics
import threading
import time
import urllib.error
import urllib.request
from contextlib import nullcontext
from dataclasses import dataclass, replace

import numpy as np

import repro
from repro.baselines.exact_qkp import reference_qkp_optimum
from repro.ising.fleet import FleetMachine
from repro.utils.rng import spawn_rngs

from spans import TRACED_BACKEND, fleet_wrappers, replay_build, solve_layers

_clock = time.perf_counter

CAPACITY_BAND = (0.2, 0.4)


# Thread CPU seconds that host_speed's loop takes at the reference speed,
# about its time in the slow state of a shared 2-vCPU Xeon host.
PROBE_REFERENCE_S = 0.005
_PROBE_MATRIX = np.random.default_rng(0).standard_normal((64, 64))


@dataclass
class Op:
    """One timed operation: a fleet batch or one HTTP request.

    ``speed`` is the host speed measured just before it (1 when not
    measured)."""

    index: int
    start: float
    end: float
    jobs: int
    outcome: object
    speed: float = 1.0

    @property
    def latency(self) -> float:
        return self.end - self.start


def host_speed() -> float:
    """How fast the host runs this thread now, relative to the reference.

    Times a fixed python and numpy loop that never calls the program, in
    thread CPU time, so waits for the GIL or the scheduler do not count.
    """
    start = time.thread_time()
    total = 0
    for i in range(20_000):
        total += i * i
    x = _PROBE_MATRIX[0].copy()
    for _ in range(300):
        x = _PROBE_MATRIX @ x
        x /= np.abs(x).max()
    return PROBE_REFERENCE_S / (time.thread_time() - start)


def banded_qkps(seed: int, tag: int, num_items: int, count: int) -> list:
    """``count`` seeded ``generate_qkp`` draws with capacity in the band."""
    stream = np.random.SeedSequence([seed, tag])
    instances = []
    while len(instances) < count:
        rng = np.random.default_rng(stream.spawn(1)[0])
        instance = repro.generate_qkp(num_items, 0.5, rng=rng)
        share = instance.capacity / instance.weights.sum()
        if CAPACITY_BAND[0] <= share <= CAPACITY_BAND[1]:
            instances.append(instance)
    return instances


def qkp_reference(instance, seed: int) -> float:
    """Best-known QKP profit: greedy plus five repaired random restarts."""
    return reference_qkp_optimum(instance, num_restarts=5, rng=seed)


def solution_error(instance, best_x, best_cost) -> str | None:
    """Why a reported solution is wrong for ``instance`` (None if right)."""
    if best_x is None:
        return "no feasible solution"
    if not instance.is_feasible(best_x):
        return "best_x violates a constraint"
    cost = instance.cost(best_x)
    if not math.isclose(cost, best_cost, rel_tol=1e-9, abs_tol=1e-9):
        return f"objective {cost} != best_cost {best_cost}"
    return None


def same_outcome(a, b) -> bool:
    """Two reports of one solve agree on every outcome field we check."""
    if a.best_cost != b.best_cost or a.num_iterations != b.num_iterations:
        return False
    if (a.best_x is None) != (b.best_x is None):
        return False
    if a.best_x is not None and not np.array_equal(a.best_x, b.best_x):
        return False
    return np.array_equal(a.detail.final_lambdas, b.detail.final_lambdas)


def run_sequential(run_op, seconds=None, count=None, tracer=None) -> list:
    """Back-to-back operations for ``seconds`` (or exactly ``count``)."""
    ops = []
    start = _clock()
    for index in itertools.count():
        if count is not None and index >= count:
            break
        if count is None and index > 0 and _clock() - start >= seconds:
            break
        if tracer is not None:
            tracer.op = index
        ops.append(run_op(index, tracer))
    return ops


# ---------------------------------------------------------------------------
# Fleet workload: one solve_many batch per operation.
# ---------------------------------------------------------------------------

class FleetQkp40x30:
    name = "fleet-qkp40x30"
    concurrent = False
    num_instances = 30
    config = repro.SaimConfig(num_iterations=10, mcs_per_run=60, eta=80.0,
                              eta_decay="sqrt", normalize_step=True)
    checked_instances = 3

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        self.problems = None
        self.references = None

    def op_seed(self, index: int) -> int:
        return self.seed * 10_000 + index

    def jobs(self, index: int, config=None) -> list:
        return repro.fleet_jobs(self.problems, rng=self.op_seed(index),
                                config=config or self.config)

    def setup(self) -> None:
        self.problems = banded_qkps(self.seed, 40, 40, self.num_instances)
        warm = replace(self.config, num_iterations=1)
        repro.solve_many(self.jobs(0, warm), strategy="auto")

    def run_phase(self, seconds=None, count=None, tracer=None) -> list:
        return run_sequential(self.run_op, seconds, count, tracer)

    def run_op(self, index, tracer=None) -> Op:
        jobs = self.jobs(index)
        speed = host_speed()
        with fleet_wrappers(tracer) if tracer is not None else nullcontext():
            start = _clock()
            report = repro.solve_many(jobs, strategy="auto")
            end = _clock()
        return Op(index, start, end, len(jobs), report, speed)

    def close(self) -> None:
        pass

    def check(self, ops) -> tuple[list, list]:
        if self.references is None:
            self.references = [qkp_reference(p, self.seed)
                               for p in self.problems]
        errors, accuracy = [], []
        for op in ops:
            results = op.outcome.results
            problems = [
                solution_error(p, r.best_x, r.best_cost)
                for p, r in zip(self.problems, results)
            ]
            bad = [f"instance {b}: {e}" for b, e in enumerate(problems) if e]
            errors.append("; ".join(bad) or None)
            accuracy.append(100.0 * statistics.fmean(
                -r.best_cost / ref if r.feasible else 0.0
                for r, ref in zip(results, self.references)))
        return errors, accuracy

    def spot_errors(self, ops) -> dict:
        """The first batch's fused results must equal standalone solves on
        the spawned streams."""
        op = ops[0]
        streams = spawn_rngs(self.op_seed(op.index), self.num_instances)
        differ = [
            b for b in range(self.checked_instances)
            if not same_outcome(op.outcome.results[b], repro.solve(
                self.problems[b], rng=streams[b], config=self.config))
        ]
        if not differ:
            return {}
        return {op.index: f"fleet instances {differ} differ from standalone "
                          f"solves"}

    def traced_solves(self, tracer, ops) -> list:
        rows = []
        for op in ops:
            results = op.outcome.results
            parts = []
            for b, (problem, result) in enumerate(zip(self.problems, results)):
                encoded, lagrangian, enc_s, lag_s = replay_build(
                    problem.to_problem(), self.config)
                batches = [
                    (lambda fleet=fleet, b=b: fleet.instance(b))
                    for fleet, active in tracer.batches[op.index] if b in active
                ]
                parts.append((encoded, lagrangian, enc_s, lag_s,
                              result.detail.trace.lambdas, batches))
            start = _clock()
            FleetMachine([p[1].base_ising for p in parts], rng=0)
            tracer.op = op.index
            tracer.record("ising.build", start, _clock())
            layers, counts = solve_layers(tracer, op.index, op.latency,
                                          op.end, parts, self.config.read_best)
            iterations = statistics.fmean(r.num_iterations for r in results)
            rows.append((op.latency, layers, counts, iterations))
        return rows

    def executor_metrics(self, ops) -> dict:
        """``runtime.executor.*``: strategy planning time and fused share."""
        from repro.planner.plan import plan_batch_strategy
        from repro.planner.tunables import AUTO_FUSED_MIN_JOBS

        seconds = []
        for op in ops:
            jobs = self.jobs(op.index)
            start = _clock()
            blockers = repro.fused_blockers(jobs)
            sizes = [job.problem.num_items for job in jobs]
            plan_batch_strategy(
                sizes,
                shareable=len(jobs) >= AUTO_FUSED_MIN_JOBS and not blockers,
            )
            seconds.append(_clock() - start)
        fused = [op.outcome.stats.strategy == "fused" for op in ops]
        return {
            "runtime.executor.plan_ms": 1e3 * statistics.median(seconds),
            "runtime.executor.fused_share": sum(fused) / len(fused),
        }


# ---------------------------------------------------------------------------
# Service workload: closed-loop HTTP clients against a live SolverService.
# ---------------------------------------------------------------------------

class ServiceQkp120:
    name = "service-qkp120"
    concurrent = True
    clients = 2
    hot_count = 8
    cold_every = 5  # every 5th request carries an instance never sent before
    overrides = {"num_iterations": 10, "mcs_per_run": 30, "eta": 200.0}
    sampled = (0, 1, 2, 3, 4)  # re-solved in process: four hot, one cold

    def __init__(self, seed: int, seconds: float):
        self.seed = seed
        # Generous for the measured rate; past it cold bodies repeat.
        self.cold_count = max(4, int(4 * seconds))
        self.service = None
        self.references = None

    def setup(self) -> None:
        from repro.runtime import SolveJob
        from repro.service import SolverService
        from repro.service.codec import job_to_wire

        self.hot = banded_qkps(self.seed, 120, 120, self.hot_count)
        self.cold = banded_qkps(self.seed, 121, 120, self.cold_count)

        def encode(problem, rng):
            job = SolveJob(problem=problem, rng=rng,
                           config_overrides=dict(self.overrides))
            return json.dumps(job_to_wire(job)).encode("utf-8")

        self.hot_bodies = [encode(p, self.seed * 1000 + k)
                           for k, p in enumerate(self.hot)]
        self.cold_bodies = [encode(p, self.seed * 1000 + 500 + k)
                            for k, p in enumerate(self.cold)]
        self.service = SolverService(port=0, num_workers=1,
                                     mode="process").start()
        host, port = self.service.address
        self.base = f"http://{host}:{port}"
        status, _ = self._post(self.hot_bodies[0])
        if status != 200:
            raise RuntimeError(f"warm-up request answered {status}")

    def slot(self, index: int) -> tuple[str, int]:
        """``("hot"|"cold", k)``: which body request ``index`` sends."""
        if index % self.cold_every == self.cold_every - 1:
            return "cold", (index // self.cold_every) % self.cold_count
        return "hot", index % self.hot_count

    def body(self, index: int) -> bytes:
        kind, k = self.slot(index)
        return (self.hot_bodies if kind == "hot" else self.cold_bodies)[k]

    def instance(self, index: int):
        kind, k = self.slot(index)
        return (self.hot if kind == "hot" else self.cold)[k]

    def _post(self, body: bytes):
        request = urllib.request.Request(
            self.base + "/v1/solve", data=body,
            headers={"Content-Type": "application/json"},
        )
        try:
            with urllib.request.urlopen(request, timeout=120) as response:
                return response.status, response.read()
        except urllib.error.HTTPError as exc:
            return exc.code, exc.read()

    def stats(self) -> dict:
        with urllib.request.urlopen(self.base + "/v1/stats",
                                    timeout=30) as response:
            return json.loads(response.read())

    def run_phase(self, seconds=None, count=None, tracer=None) -> list:
        counter = itertools.count()
        ops: list[Op] = []
        deadline = None if seconds is None else _clock() + seconds

        def client():
            while True:
                index = next(counter)
                if count is not None and index >= count:
                    return
                if deadline is not None and index >= self.clients and (
                        _clock() >= deadline):
                    return
                body = self.body(index)
                start = _clock()
                try:
                    status, raw = self._post(body)
                except OSError as exc:
                    status, raw = None, str(exc).encode()
                end = _clock()
                ops.append(Op(index, start, end, 1, (status, raw)))

        threads = [threading.Thread(target=client) for _ in range(self.clients)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        return sorted(ops, key=lambda op: op.index)

    def close(self) -> None:
        if self.service is not None:
            self.service.close()
            self.service = None

    @staticmethod
    def decode(op):
        """``(payload, error)`` of one HTTP exchange."""
        status, raw = op.outcome
        if status != 200:
            return None, f"HTTP {status}: {raw[:200]!r}"
        payload = json.loads(raw)
        if payload.get("status") != "done":
            return None, f"job status {payload.get('status')!r}"
        return payload, None

    def check(self, ops) -> tuple[list, list]:
        from repro.service.codec import report_from_wire

        if self.references is None:
            self.references = [qkp_reference(p, self.seed) for p in self.hot]
        errors, accuracy = [], []
        for op in ops:
            payload, error = self.decode(op)
            if error is None:
                report = report_from_wire(payload["report"])
                error = solution_error(self.instance(op.index),
                                       report.best_x, report.best_cost)
                if error == "no feasible solution":
                    error = None  # a short anneal may end infeasible
                kind, k = self.slot(op.index)
                if kind == "hot":
                    accuracy.append(100.0 * -report.best_cost / self.references[k]
                                    if report.feasible else 0.0)
            errors.append(error)
        return errors, accuracy

    def spot_errors(self, ops) -> dict:
        """A fixed sample of served reports must equal in-process solves."""
        from repro.service.codec import report_from_wire

        served = {op.index: op for op in ops}
        errors = {}
        for index in self.sampled:
            if index not in served:
                continue
            payload, error = self.decode(served[index])
            if error is not None:
                continue  # already counted as a failed request
            kind, k = self.slot(index)
            seed = self.seed * 1000 + (k if kind == "hot" else 500 + k)
            local = repro.solve(self.instance(index), rng=seed, **self.overrides)
            if not same_outcome(local, report_from_wire(payload["report"])):
                errors[index] = "served report differs from repro.solve"
        return errors

    def traced_solves(self, tracer, ops) -> list:
        """Split the worker's time by replaying the sampled requests' jobs
        in process, untraced and then through the traced backend; the
        codec is timed on the same bodies and reports."""
        from repro.service.codec import job_from_wire, report_to_wire

        self.codec_decode, self.codec_encode, self.replayed = [], [], {}
        self.replay_walls = []
        rows = []
        for index in self.sampled:
            start = _clock()
            job, _ = job_from_wire(json.loads(self.body(index)))
            self.codec_decode.append(_clock() - start)
            args = dict(config=job.config, rng=job.rng, **job.config_overrides)
            start = _clock()
            plain = repro.solve(job.problem, **args)
            plain_wall = _clock() - start
            tracer.op = ("replay", index)
            start = _clock()
            report = repro.solve(job.problem, backend=TRACED_BACKEND, **args)
            end = _clock()
            encode_start = _clock()
            json.dumps(report_to_wire(plain), sort_keys=True)
            self.codec_encode.append(_clock() - encode_start)
            self.replayed[index] = (plain, report)
            self.replay_walls.append((plain_wall, end - start))
            config = repro.SaimConfig(**job.config_overrides)
            encoded, lagrangian, enc_s, lag_s = replay_build(
                job.problem.to_problem(), config)
            batches = [batch for batch, _ in tracer.batches[tracer.op]]
            parts = [(encoded, lagrangian, enc_s, lag_s,
                      report.detail.trace.lambdas, batches)]
            layers, counts = solve_layers(tracer, tracer.op, end - start, end,
                                          parts, config.read_best)
            rows.append((end - start, layers, counts, report.num_iterations))
        return rows

    def replay_errors(self, ops) -> dict:
        """The traced in-process replays must equal the served reports."""
        from repro.service.codec import report_from_wire

        served = {op.index: op for op in ops}
        errors = {}
        for index, (plain, traced) in self.replayed.items():
            if index not in served:
                continue
            payload, error = self.decode(served[index])
            if error is None and not (
                    same_outcome(plain, traced) and same_outcome(
                        traced, report_from_wire(payload["report"]))):
                errors[index] = "traced in-process replay differs"
        return errors

    def service_metrics(self, ops, stats, rows) -> dict:
        """``service.*`` from response timings, ``/v1/stats`` and replays."""
        good = [(op, payload) for op in ops
                for payload in [self.decode(op)[0]] if payload is not None]
        latency = [op.latency for op, _ in good]
        queue = [p["timing"]["queue_seconds"] for _, p in good]
        worker = [p["timing"]["solve_seconds"] for _, p in good]
        http = [lat - q - w for lat, q, w in zip(latency, queue, worker)]
        counters = stats["workers"][0]
        cache = counters.get("warm_hits", 0) + counters.get("cold_starts", 0)
        decode = statistics.median(self.codec_decode)
        encode = statistics.median(self.codec_encode)
        layers = statistics.median(
            sum(v for k, v in row[1].items() if k != "unattributed")
            for row in rows)
        unexplained = statistics.median(worker) - layers - 2 * decode - encode
        return {
            "service.http.overhead_ms_p50": 1e3 * statistics.median(http),
            "service.queue.wait_ms_p50": 1e3 * statistics.median(queue),
            "service.queue.wait_ms_p99": 1e3 * quantile(queue, 0.99),
            "service.queue.rejected": stats["queue"]["rejected"],
            "service.pool.worker_ms_p50": 1e3 * statistics.median(worker),
            "service.pool.program_cache_hit_ratio":
                counters.get("warm_hits", 0) / cache if cache else 0.0,
            "service.codec.decode_ms": 1e3 * decode,
            "service.codec.encode_ms": 1e3 * encode,
            "service.codec.request_kb": statistics.fmean(
                len(self.body(op.index)) for op in ops) / 1024,
            # Worker time the replayed layers and the two body decodes
            # (pool admission and worker) do not explain, as a share of
            # the client latency.
            "trace.unattributed_pct":
                100.0 * unexplained / statistics.median(latency),
            "trace.overhead_pct": 100.0 * (
                statistics.median(t for _, t in self.replay_walls)
                / statistics.median(p for p, _ in self.replay_walls) - 1.0),
        }


def quantile(values, q: float) -> float:
    """Linear-interpolated ``q`` quantile (the value itself for one sample)."""
    values = sorted(values)
    if len(values) == 1:
        return values[0]
    position = q * (len(values) - 1)
    low = math.floor(position)
    high = min(low + 1, len(values) - 1)
    return values[low] + (values[high] - values[low]) * (position - low)


WORKLOADS = {cls.name: cls for cls in (FleetQkp40x30, ServiceQkp120)}
