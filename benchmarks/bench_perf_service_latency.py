"""Perf — solver-service request latency over live loopback HTTP.

The bench drives a live :class:`repro.service.SolverService` (real HTTP
over an ephemeral loopback port, stdlib ``urllib`` clients) through one
timed phase: every instance is submitted once, then re-submitted
``repeats`` times with fresh seeds.  Each request's machine builds its
own ``AnnealProgram``, exactly as an in-process ``repro.solve`` does, so
the latency is the whole request path: HTTP, wire codec, queue, worker
and solve.

The phase runs >= 2 concurrent client threads against one worker, so the
queue and the HTTP front door are exercised under concurrency.
Per-request wall latency is measured at the client; the record reports
p50/p99 over the phase and sustained jobs/sec.  Every served report is
re-solved in process and asserted **bit-identical** to ``repro.solve``
with the same seed — the latency numbers are only meaningful if the
service returns the same answers.

Results are archived as ``benchmarks/output/BENCH_service_latency.json``;
smoke runs also mirror the record to the repo root as the committed perf
trajectory.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_perf_service_latency.py [--smoke]

or through pytest-benchmark::

    REPRO_SCALE=ci PYTHONPATH=src python -m pytest benchmarks/bench_perf_service_latency.py

No wall-time assertion arms: the bench records latency; the bit-identity
audit always arms.
"""

from __future__ import annotations

import json
import os
import sys
import threading
import time
import urllib.request
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import archive_bench_json  # noqa: E402

import repro  # noqa: E402
from repro.problems.generators import generate_qkp  # noqa: E402
from repro.runtime import SolveJob  # noqa: E402
from repro.service import SolverService  # noqa: E402
from repro.service.codec import job_to_wire, report_from_wire  # noqa: E402

# The solve budget stays small on purpose: the bench isolates the
# request-path overhead (program build + HTTP + queue), which a long
# anneal would drown out.
_BUDGETS = {
    "smoke": dict(num_instances=4, repeats=2, num_items=120,
                  iterations=3, mcs=20, clients=2),
    "ci": dict(num_instances=8, repeats=4, num_items=500,
               iterations=3, mcs=15, clients=4),
    "full": dict(num_instances=16, repeats=6, num_items=800,
                 iterations=4, mcs=20, clients=4),
}


def _scale_name() -> str:
    name = os.environ.get("REPRO_SCALE", "ci").lower()
    return name if name in _BUDGETS else "ci"


def available_cpus() -> int:
    """CPUs this process may actually schedule on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile (no numpy needed for a latency summary)."""
    ordered = sorted(values)
    rank = min(len(ordered) - 1, max(0, round(q / 100.0 * (len(ordered) - 1))))
    return ordered[rank]


def _post_solve(base: str, payload: dict) -> tuple[float, dict]:
    """POST one wire job synchronously; returns (wall_seconds, body)."""
    body = json.dumps(payload).encode("utf-8")
    request = urllib.request.Request(
        base + "/v1/solve", data=body,
        headers={"Content-Type": "application/json"},
    )
    start = time.perf_counter()
    with urllib.request.urlopen(request, timeout=600.0) as response:
        decoded = json.loads(response.read())
        status = response.status
    wall = time.perf_counter() - start
    if status != 200 or decoded.get("status") != "done":
        raise AssertionError(f"solve failed ({status}): {decoded}")
    return wall, decoded


def _run_phase(base: str, requests: list[tuple[int, int, dict]],
               num_clients: int) -> tuple[list[dict], float]:
    """Fan ``requests`` over ``num_clients`` threads; collect latencies."""
    records: list[dict] = []
    lock = threading.Lock()
    errors: list[BaseException] = []

    def client(worklist):
        for instance_id, seed, payload in worklist:
            try:
                wall, body = _post_solve(base, payload)
            except BaseException as exc:  # surfaced after join
                with lock:
                    errors.append(exc)
                return
            with lock:
                records.append({
                    "instance": instance_id,
                    "seed": seed,
                    "latency_seconds": wall,
                    "report": body["report"],
                })

    shards = [requests[i::num_clients] for i in range(num_clients)]
    threads = [threading.Thread(target=client, args=(shard,))
               for shard in shards if shard]
    start = time.perf_counter()
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    wall = time.perf_counter() - start
    if errors:
        raise errors[0]
    return records, wall


def run_service_latency_bench(scale: str | None = None) -> dict:
    """Time the request mix; audit it, archive and return the record."""
    scale = scale or _scale_name()
    budget = _BUDGETS[scale]
    overrides = dict(num_iterations=budget["iterations"],
                     mcs_per_run=budget["mcs"])
    instances = {
        index: generate_qkp(budget["num_items"], 0.5, rng=7000 + index)
        for index in range(budget["num_instances"])
    }

    def wire(instance_id: int, seed: int) -> tuple[int, int, dict]:
        job = SolveJob(instances[instance_id], rng=seed,
                       config_overrides=dict(overrides))
        return (instance_id, seed, job_to_wire(job))

    # Warm up numpy/BLAS first-call costs outside the timed phase.
    repro.solve(instances[0], rng=0, **overrides)

    jobs = [wire(index, 100 + index) for index in instances] + [
        wire(index, 1000 + 97 * repeat + index)
        for repeat in range(budget["repeats"])
        for index in instances
    ]

    with SolverService(port=0, num_workers=1, queue_depth=256) as live:
        host, port = live.address
        records, wall = _run_phase(f"http://{host}:{port}", jobs,
                                   budget["clients"])

    # Bit-identity audit: every served report against an in-process solve
    # of the same seed.
    for record in records:
        direct = repro.solve(instances[record["instance"]],
                             rng=record["seed"], **overrides)
        if report_from_wire(record["report"]) != direct:
            raise AssertionError(
                f"service diverged from repro.solve on instance "
                f"{record['instance']} seed {record['seed']}"
            )

    latency_ms = [r["latency_seconds"] * 1e3 for r in records]
    report = {
        "bench": "service_latency",
        "scale": scale,
        "timestamp": time.time(),
        "available_cpus": available_cpus(),
        "num_instances": budget["num_instances"],
        "num_items": budget["num_items"],
        "clients": budget["clients"],
        "repeats": budget["repeats"],
        "iterations": budget["iterations"],
        "mcs_per_run": budget["mcs"],
        "requests": {
            "count": len(latency_ms),
            "p50_ms": _percentile(latency_ms, 50),
            "p99_ms": _percentile(latency_ms, 99),
        },
        "jobs_per_second": len(jobs) / wall,
        "bit_identical_audited": len(records),
    }
    out_path = archive_bench_json("service_latency", report)

    requests = report["requests"]
    print(f"\nservice latency ({scale} scale, {available_cpus()} CPUs, "
          f"{budget['clients']} clients, N={budget['num_items']}):")
    print(f"  p50 {requests['p50_ms']:8.2f} ms   "
          f"p99 {requests['p99_ms']:8.2f} ms   "
          f"({requests['count']} requests)")
    print(f"  sustained {report['jobs_per_second']:.1f} jobs/s, "
          f"{report['bit_identical_audited']} reports audited bit-identical")
    print(f"archived {out_path}")
    return report


def test_perf_service_latency(benchmark):
    """Every request is served, and every served report was audited."""
    report = benchmark.pedantic(
        run_service_latency_bench, rounds=1, iterations=1, warmup_rounds=0
    )
    expected = report["num_instances"] * (1 + report["repeats"])
    assert report["requests"]["count"] == expected
    assert report["bit_identical_audited"] == expected


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        os.environ["REPRO_SCALE"] = "smoke"
    run_service_latency_bench()
