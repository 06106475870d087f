"""Perf — fused fleet annealing vs process pool vs serial, and the kernel.

``solve_many(strategy="fused")`` runs a batch of SAIM jobs in one process
with ONE fleet anneal call per outer iteration (:mod:`repro.ising.fleet`),
which anneals every instance with the compiled p-bit sweep.  This bench
races the three executor strategies on two fleet shapes:

- ``30 x N=40`` — many small QKPs;
- ``8 x N=200`` — few large QKPs.

It also times each fused fleet once more with the p-bit sweep forced onto
the numpy reference scan (the no-compiler fallback), which is the speedup
the compiled sweep buys.

All strategies run the *same* jobs built by ``runtime.fleet_jobs`` (per-job
generators spawned from one seed), so their results are bit-identical —
the bench asserts that — and the only thing compared is wall time,
reported as replica-sweeps/sec (``B x iterations x MCS x R / wall``).

Results are archived as ``benchmarks/output/BENCH_fleet.json``; smoke runs
also mirror the record to the repo root as the committed perf trajectory.
Run standalone::

    PYTHONPATH=src python benchmarks/bench_perf_fleet.py [--smoke]

or through pytest-benchmark::

    REPRO_SCALE=ci PYTHONPATH=src python -m pytest benchmarks/bench_perf_fleet.py

The compiled-vs-numpy comparison is one core against one core in one
process, so :func:`run_fleet_bench` checks it at every scale and on every
host (the smoke CI job included): the compiled sweep must beat the numpy
reference by ``MIN_COMPILED_SPEEDUP`` on the 30 x N=40 fused fleet.  Fused
against the serial loop is recorded ungated: both run the same compiled
kernel, so little separates them.  The process-pool comparison depends on
the host's CPU count, so that assertion only arms at non-smoke scale on
>= 4 CPUs (the CI runners), as in the other perf benches.
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).parent))
from _common import archive_bench_json  # noqa: E402

from repro.core.saim import SaimConfig  # noqa: E402
from repro.ising import _native  # noqa: E402
from repro.problems.generators import generate_qkp  # noqa: E402
from repro.runtime import fleet_jobs, solve_many  # noqa: E402

# Fleet shapes are fixed across scales — the headline 30 x N=40 ratio must
# appear in every archived record, including the committed smoke copy —
# and only the SAIM budget (iterations, MCS) grows with the scale.
FLEETS = ((30, 40), (8, 200))
_BUDGETS = {
    "smoke": (8, 100),
    "ci": (30, 300),
    "full": (80, 500),
}
NUM_REPLICAS = 1
# The compiled sweep over the numpy reference on the 30 x N=40 fused fleet:
# a ratio of two single-core runs in one process, valid on any host and at
# any scale.
MIN_COMPILED_SPEEDUP = 5.0


def _scale_name() -> str:
    name = os.environ.get("REPRO_SCALE", "ci").lower()
    return name if name in _BUDGETS else "ci"


def available_cpus() -> int:
    """CPUs this process may actually schedule on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def build_fleet(num_instances: int, num_items: int, iterations: int,
                mcs: int, seed: int):
    """One fleet's jobs: B QKP instances with spawned per-job streams.

    Called once per strategy: jobs carry *live* generators whose state the
    run consumes, so each strategy gets freshly spawned (identical)
    streams rather than the previous strategy's leftovers.
    """
    config = SaimConfig(num_iterations=iterations, mcs_per_run=mcs,
                        eta=80.0, eta_decay="sqrt", normalize_step=True)
    problems = [
        generate_qkp(num_items, 0.5, rng=1000 + seed * 100 + index)
        for index in range(num_instances)
    ]
    return fleet_jobs(problems, rng=seed, config=config)


def _race(build, num_jobs: int, iterations: int, mcs: int) -> list[dict]:
    """Time the three strategies on one fleet; assert identical results.

    Every strategy rebuilds the jobs from the same seed — spawned
    generators pickle, so even the process pool consumes identical
    streams and any result drift is a correctness bug, not noise.
    """
    replica_sweeps = num_jobs * iterations * mcs * NUM_REPLICAS
    strategies = [
        ("serial", dict(max_workers=1, strategy="process")),
        ("process", dict(max_workers=min(4, available_cpus()),
                         strategy="process")),
        ("fused", dict(strategy="fused")),
    ]
    records = []
    baseline_costs = None
    for name, kwargs in strategies:
        jobs = build()
        start = time.perf_counter()
        report = solve_many(jobs, **kwargs)
        wall = time.perf_counter() - start
        costs = [result.best_cost for result in report.results]
        if baseline_costs is None:
            baseline_costs = costs
        elif costs != baseline_costs:
            raise AssertionError(
                f"strategy {name!r} changed results: "
                f"{costs} != {baseline_costs}"
            )
        records.append({
            "strategy": name,
            "max_workers": kwargs.get("max_workers", 1),
            "wall_seconds": wall,
            "replica_sweeps_per_second": replica_sweeps / wall,
            "best_cost_mean": report.stats.mean_best_cost,
        })
    return records


def _numpy_reference_seconds(build) -> float:
    """Fused wall time with the p-bit sweep forced onto the numpy scan."""
    loaded = _native.sweep_library()
    _native._library = None
    try:
        jobs = build()
        start = time.perf_counter()
        solve_many(jobs, strategy="fused")
        return time.perf_counter() - start
    finally:
        _native._library = loaded


def run_fleet_bench(scale: str | None = None) -> dict:
    """Race every fleet shape; archive and return the record."""
    scale = scale or _scale_name()
    iterations, mcs = _BUDGETS[scale]
    if _native.sweep_library() is None:
        raise RuntimeError(
            "the compiled p-bit sweep did not load (no working C compiler?); "
            "this bench measures it against the numpy reference"
        )

    # Warm-up: pay numpy/BLAS first-call costs before the serial baseline.
    solve_many(build_fleet(2, 16, 2, 40, seed=99), max_workers=1)

    fleets = []
    for seed, (num_instances, num_items) in enumerate(FLEETS):
        build = lambda: build_fleet(  # noqa: E731
            num_instances, num_items, iterations, mcs, seed
        )
        records = _race(build, num_instances, iterations, mcs)
        by_name = {record["strategy"]: record for record in records}
        fused = by_name["fused"]["replica_sweeps_per_second"]
        numpy_seconds = _numpy_reference_seconds(build)
        fleets.append({
            "fleet": f"{num_instances}xN{num_items}",
            "num_instances": num_instances,
            "num_items": num_items,
            "iterations": iterations,
            "mcs_per_run": mcs,
            "num_replicas": NUM_REPLICAS,
            "strategies": records,
            "fused_speedup_vs_serial":
                fused / by_name["serial"]["replica_sweeps_per_second"],
            "fused_speedup_vs_process":
                fused / by_name["process"]["replica_sweeps_per_second"],
            "numpy_reference_wall_seconds": numpy_seconds,
            "compiled_speedup_vs_numpy":
                numpy_seconds / by_name["fused"]["wall_seconds"],
        })

    report = {
        "bench": "fleet",
        "scale": scale,
        "timestamp": time.time(),
        "available_cpus": available_cpus(),
        "fleets": fleets,
    }
    out_path = archive_bench_json("fleet", report)

    print(f"\nfleet strategies ({scale} scale, {available_cpus()} CPUs "
          f"available, {iterations} iterations x {mcs} MCS):")
    for fleet in fleets:
        print(f"  {fleet['fleet']}:")
        for record in fleet["strategies"]:
            print(f"    {record['strategy']:<8} "
                  f"{record['wall_seconds']:8.2f} s wall  "
                  f"{record['replica_sweeps_per_second']:12.0f} "
                  f"replica-sweeps/s")
        print(f"    numpy    {fleet['numpy_reference_wall_seconds']:8.2f} s "
              f"wall  (fused, numpy reference sweep)")
        print(f"    fused vs serial {fleet['fused_speedup_vs_serial']:.2f}x, "
              f"vs process {fleet['fused_speedup_vs_process']:.2f}x; "
              f"compiled vs numpy {fleet['compiled_speedup_vs_numpy']:.2f}x")
    print(f"archived {out_path}")
    small = next(f for f in fleets if f["fleet"] == "30xN40")
    if small["compiled_speedup_vs_numpy"] < MIN_COMPILED_SPEEDUP:
        raise AssertionError(
            f"the compiled sweep is only "
            f"{small['compiled_speedup_vs_numpy']:.2f}x the numpy reference "
            f"on the 30xN40 fused fleet (need {MIN_COMPILED_SPEEDUP}x)"
        )
    return report


def test_perf_fleet(benchmark):
    """The compiled sweep must pay on the fused fleet.

    ``run_fleet_bench`` itself checks the compiled sweep against the numpy
    reference; only the process-pool comparison is gated on the host here.
    """
    report = benchmark.pedantic(
        run_fleet_bench, rounds=1, iterations=1, warmup_rounds=0
    )
    small = next(f for f in report["fleets"] if f["fleet"] == "30xN40")
    if report["scale"] != "smoke" and report["available_cpus"] >= 4:
        # The pool's wall time needs a quiet multi-core host (the CI
        # runners); 1-2 core containers report the honest ratio without
        # gating on it.
        assert small["fused_speedup_vs_process"] >= 1.0, (
            f"fused {small['fused_speedup_vs_process']:.2f}x vs the "
            f"process pool on 30xN40"
        )


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        os.environ["REPRO_SCALE"] = "smoke"
    run_fleet_bench()
