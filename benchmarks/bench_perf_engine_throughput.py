"""Perf — replica throughput of the batched annealing kernel.

The unified engine's promise is that an ``R``-replica SAIM iteration costs
one batched kernel call instead of ``R`` sequential Python runs.  This bench
measures exactly that hot path on a SAIM-encoded QKP Lagrangian: wall time
and per-replica sweeps/sec for ``R`` sequential ``anneal`` calls vs one
``anneal_many(R)`` call, plus an end-to-end engine solve at both replica
settings.

It also times the same ``anneal_many(R)`` with the p-bit sweep forced onto
the numpy lock-step scan (the no-compiler fallback).  That ratio is one
core against one core in one process, so :func:`run_throughput` checks it
at every scale and on every host: the compiled sweep must beat the numpy
scan by ``MIN_COMPILED_SPEEDUP`` at ``R = 8``, as
``bench_perf_fleet.py`` checks it on the fused fleet (and, like that
bench, it raises outright if the sweep did not compile).  Batched against
serial is recorded ungated: both sides run the same compiled sweep, so
their ratio is per-call overhead and host noise.

Results are archived as ``benchmarks/output/BENCH_engine_throughput.json``
so the perf trajectory of this path is tracked across PRs.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_perf_engine_throughput.py [--smoke]

or through pytest-benchmark like the other benches::

    REPRO_SCALE=ci PYTHONPATH=src python -m pytest benchmarks/bench_perf_engine_throughput.py
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path


sys.path.insert(0, str(Path(__file__).parent))
from _common import archive_bench_json  # noqa: E402

from repro.core.engine import SaimEngine  # noqa: E402
from repro.core.lagrangian import saim_lagrangian  # noqa: E402
from repro.core.saim import SaimConfig  # noqa: E402
from repro.core.schedule import linear_beta_schedule  # noqa: E402
from repro.ising import _native  # noqa: E402
from repro.ising.pbit import PBitMachine  # noqa: E402
from repro.problems.generators import generate_qkp  # noqa: E402

# (num_items, num_sweeps, engine_iterations) per scale: the kernel workload
# is the Lagrangian Ising model of a SAIM-encoded QKP instance.
_SIZES = {
    "smoke": (30, 60, 4),
    "ci": (80, 300, 8),
    "full": (150, 1000, 20),
}
REPLICAS = 8
# The compiled sweep over the numpy lock-step scan, one R = 8 anneal_many
# each on the same model: a ratio of two single-core runs in one process,
# valid on any host and at any scale.
MIN_COMPILED_SPEEDUP = 5.0
# Timed calls per side of that ratio; each side reports its median.
RATIO_CALLS = 3


def _scale_name() -> str:
    name = os.environ.get("REPRO_SCALE", "ci").lower()
    return name if name in _SIZES else "ci"


def _build_workload(num_items: int):
    instance = generate_qkp(num_items, 0.5, rng=11)
    return instance, saim_lagrangian(instance.to_problem()).base_ising


def _time(func) -> float:
    start = time.perf_counter()
    func()
    return time.perf_counter() - start


def _numpy_scan_seconds(model, schedule) -> float:
    """Median ``anneal_many(R)`` wall time with the p-bit sweep forced
    onto the numpy lock-step scan (after one untimed call)."""
    loaded = _native.sweep_library()
    _native._library = None
    try:
        machine = PBitMachine(model, rng=0)
        machine.anneal_many(schedule, REPLICAS)
        return statistics.median(
            _time(lambda: machine.anneal_many(schedule, REPLICAS))
            for _ in range(RATIO_CALLS)
        )
    finally:
        _native._library = loaded


def run_throughput(scale: str | None = None) -> dict:
    """Measure serial-vs-batched replica throughput; returns the record."""
    scale = scale or _scale_name()
    num_items, num_sweeps, engine_iters = _SIZES[scale]
    if _native.sweep_library() is None:
        raise RuntimeError(
            "the compiled p-bit sweep did not load (no working C compiler?); "
            "this bench measures it against the numpy reference"
        )
    instance, model = _build_workload(num_items)
    schedule = linear_beta_schedule(10.0, num_sweeps)
    machine = PBitMachine(model, rng=0)

    # Warm up both code paths (numpy/BLAS first-call costs).
    machine.anneal(schedule[: max(2, num_sweeps // 10)])
    machine.anneal_many(schedule[: max(2, num_sweeps // 10)], 2)

    def serial():
        for _ in range(REPLICAS):
            machine.anneal(schedule)

    serial_s = _time(serial)
    batched_s = _time(lambda: machine.anneal_many(schedule, REPLICAS))

    total_sweeps = REPLICAS * num_sweeps
    records = [
        {
            "variant": f"serial_x{REPLICAS}",
            "num_replicas": REPLICAS,
            "seconds": serial_s,
            "replica_sweeps_per_sec": total_sweeps / serial_s,
        },
        {
            "variant": f"batched_r{REPLICAS}",
            "num_replicas": REPLICAS,
            "seconds": batched_s,
            "replica_sweeps_per_sec": total_sweeps / batched_s,
            "speedup_vs_serial": serial_s / batched_s,
        },
    ]

    # The gate: the compiled sweep against the numpy scan at R = 8.
    compiled_s = statistics.median(
        _time(lambda: machine.anneal_many(schedule, REPLICAS))
        for _ in range(RATIO_CALLS)
    )
    numpy_s = _numpy_scan_seconds(model, schedule)
    records.append({
        "variant": f"numpy_scan_r{REPLICAS}",
        "num_replicas": REPLICAS,
        "seconds": numpy_s,
        "replica_sweeps_per_sec": total_sweeps / numpy_s,
    })

    # Large-R point: where the lock-step kernel's amortization shines.
    big_r = 4 * REPLICAS
    big_s = _time(lambda: machine.anneal_many(schedule, big_r))
    records.append({
        "variant": f"batched_r{big_r}",
        "num_replicas": big_r,
        "seconds": big_s,
        "replica_sweeps_per_sec": big_r * num_sweeps / big_s,
        "speedup_vs_serial": (serial_s / REPLICAS * big_r) / big_s,
    })

    # End-to-end engine solves: K iterations at R=8 vs the same K serially.
    config = SaimConfig(num_iterations=engine_iters, mcs_per_run=num_sweeps,
                        eta=80.0, eta_decay="sqrt", normalize_step=True)
    problem = instance.to_problem()
    engine_serial_s = _time(
        lambda: SaimEngine(config, num_replicas=1).solve(problem, rng=5)
    )
    engine_batched_s = _time(
        lambda: SaimEngine(config, num_replicas=REPLICAS).solve(problem, rng=5)
    )
    records.append({
        "variant": "engine_serial_r1",
        "num_replicas": 1,
        "seconds": engine_serial_s,
        "replica_sweeps_per_sec": engine_iters * num_sweeps / engine_serial_s,
    })
    records.append({
        "variant": f"engine_batched_r{REPLICAS}",
        "num_replicas": REPLICAS,
        "seconds": engine_batched_s,
        "replica_sweeps_per_sec": (
            engine_iters * REPLICAS * num_sweeps / engine_batched_s
        ),
        "cost_vs_serial_iteration": engine_batched_s / engine_serial_s,
    })

    report = {
        "bench": "engine_throughput",
        "scale": scale,
        "timestamp": time.time(),
        "num_items": num_items,
        "num_spins": model.num_spins,
        "num_sweeps": num_sweeps,
        "compiled_speedup_vs_numpy": numpy_s / compiled_s,
        "records": records,
    }
    out_path = archive_bench_json("engine_throughput", report)

    print(f"\nReplica throughput on {model.num_spins}-spin QKP Lagrangian "
          f"({scale} scale, {num_sweeps} sweeps/run):")
    for record in records:
        rate = record["replica_sweeps_per_sec"]
        extra = ""
        if "speedup_vs_serial" in record:
            extra = f"  ({record['speedup_vs_serial']:.2f}x vs serial)"
        print(f"  {record['variant']:>18s}: {record['seconds']*1e3:8.1f} ms"
              f"  {rate:12,.0f} replica-sweeps/s{extra}")
    speedup = report["compiled_speedup_vs_numpy"]
    print(f"  compiled vs numpy scan at R={REPLICAS}: {speedup:.2f}x")
    print(f"archived {out_path}")
    if speedup < MIN_COMPILED_SPEEDUP:
        raise AssertionError(
            f"the compiled sweep is only {speedup:.2f}x the numpy scan at "
            f"R={REPLICAS} (need {MIN_COMPILED_SPEEDUP}x)"
        )
    return report


def test_perf_engine_throughput(benchmark):
    """The compiled sweep must pay over the numpy scan at R = 8.

    ``run_throughput`` itself checks that ratio; batched against serial is
    recorded, not gated.
    """
    report = benchmark.pedantic(
        run_throughput, rounds=1, iterations=1, warmup_rounds=0
    )
    assert report["compiled_speedup_vs_numpy"] >= MIN_COMPILED_SPEEDUP


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        os.environ["REPRO_SCALE"] = "smoke"
    run_throughput()
