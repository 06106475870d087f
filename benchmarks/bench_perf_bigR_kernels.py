"""Perf — big-R batched annealing kernels: replicas x dtype x layout.

The ROADMAP's "bigger-R kernels" unlock: the lock-step kernel's speedup
grows with the replica count, so the interesting regime is R >= 128 — where
coefficient precision (float32 halves the memory traffic of the block
matmuls) and sparse layout (CSR rows vs dense BLAS row blocks in the
chromatic machine) start to matter.  This bench profiles exactly that grid:

- **dense** — ``PBitMachine.anneal_many`` (the compiled p-bit sweep, or
  the numpy lock-step scan where no compiler is available) on a
  SAIM-encoded QKP Lagrangian;
- **sparse** — ``ChromaticPBitMachine.anneal_many`` (per-color
  replica-batched sweeps) on a random regular graph, in both ``csr`` and
  ``dense`` row-block storage;

each at R in {32, 128} (plus 512 at full scale), in float64 and float32,
on ~100-spin (and, at full scale, ~1000-spin) models.  A cell is the
median of fifteen anneals on a machine already run once at the cell's R
and schedule, so no program or workspace build is timed, and the float64 and
float32 calls alternate, so the float32-over-float64 ratio is not the
host's drift between two cells.

Results are archived as ``benchmarks/output/BENCH_bigR_kernels.json``.
The times and their ratios are information: at ~100 spins float32 buys
the compiled sweep almost nothing (warm, interleaved ``ci`` runs read the
float32-over-float64 ratio at 1.01–1.04x at R=128).  What float32 does
change is asserted on any host and at any scale, in the same process: a
p-bit machine's coupling and its resident ``(R, n)`` spins and inputs
take half the bytes of the float64 machine's.  Run standalone::

    PYTHONPATH=src python benchmarks/bench_perf_bigR_kernels.py [--smoke]

or through pytest-benchmark::

    REPRO_SCALE=ci PYTHONPATH=src python -m pytest benchmarks/bench_perf_bigR_kernels.py
"""

from __future__ import annotations

import os
import statistics
import sys
import time
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).parent))
from _common import archive_bench_json  # noqa: E402

from repro.core.lagrangian import saim_lagrangian  # noqa: E402
from repro.core.schedule import linear_beta_schedule  # noqa: E402
from repro.ising.pbit import PBitMachine  # noqa: E402
from repro.ising.sparse import ChromaticPBitMachine, random_sparse_ising  # noqa: E402
from repro.problems.generators import generate_qkp  # noqa: E402

DTYPES = ("float64", "float32")

#: Timed anneals per cell, alternating between the dtypes; a cell
#: records their median.
TIMED_CALLS = 15

# Per scale: (dense QKP items, sparse spins) workload pairs, sweep count,
# replica grid.  R=128 appears at every scale — it is the acceptance point
# for the dense-vs-sparse and float32-vs-float64 comparisons.
_SIZES = {
    "smoke": dict(workloads=[(30, 32)], sweeps=12, replicas=(32, 128)),
    "ci": dict(workloads=[(90, 96)], sweeps=50, replicas=(32, 128)),
    "full": dict(
        workloads=[(90, 96), (1000, 1024)], sweeps=150,
        replicas=(32, 128, 512),
    ),
}


def _scale_name() -> str:
    name = os.environ.get("REPRO_SCALE", "ci").lower()
    return name if name in _SIZES else "ci"


def _cpu_count() -> int:
    return len(os.sched_getaffinity(0))


def _qkp_lagrangian(num_items: int):
    instance = generate_qkp(num_items, 0.5, rng=11)
    return saim_lagrangian(instance.to_problem()).base_ising


def _profile_dtypes(build, schedule, replicas: int) -> dict:
    """Per dtype, the median wall time of ``TIMED_CALLS`` anneals on one
    machine built with ``build(dtype)``.

    A first, untimed call on each machine builds what it keeps between
    calls (a p-bit machine's program and its workspace, which is keyed by
    the replica count and the noise chunk, so it runs the timed R and
    schedule).  It anneals the fresh machine's stream, so its energies are
    the cell's sanity check and its recorded mean.  The timed calls
    alternate between the dtypes, so a change in host speed slows both
    alike and their ratio holds.
    """
    machines, energies = {}, {}
    for dtype in DTYPES:
        machines[dtype] = build(dtype)
        batch = machines[dtype].anneal_many(schedule, replicas)
        assert np.all(np.isfinite(batch.best_energies)), "kernel produced non-finite energies"
        energies[dtype] = float(batch.best_energies.mean())
    times = {dtype: [] for dtype in DTYPES}
    for _ in range(TIMED_CALLS):
        for dtype, machine in machines.items():
            start = time.perf_counter()
            machine.anneal_many(schedule, replicas)
            times[dtype].append(time.perf_counter() - start)
    measured = {}
    for dtype in DTYPES:
        seconds = statistics.median(times[dtype])
        measured[dtype] = {
            "seconds": seconds,
            "replica_sweeps_per_sec": replicas * schedule.size / seconds,
            "best_energy_mean": energies[dtype],
        }
    return measured


def _pbit_state_bytes(model, dtype: str, schedule, replicas: int) -> int:
    """Bytes of a p-bit machine's coupling plus the ``(R, n)`` spins and
    coupling inputs it keeps resident after one anneal."""
    machine = PBitMachine(model, rng=0, dtype=dtype)
    machine.anneal_many(schedule, replicas)
    program = machine.program
    return (program.coupling.nbytes + program._resident_spins.nbytes
            + program._resident_coupling_inputs.nbytes)


def run_bigR_kernels(scale: str | None = None) -> dict:
    """Profile the big-R kernel grid; returns (and archives) the record."""
    scale = scale or _scale_name()
    spec = _SIZES[scale]
    schedule = linear_beta_schedule(10.0, spec["sweeps"])
    records = []

    for qkp_items, sparse_spins in spec["workloads"]:
        dense_model = _qkp_lagrangian(qkp_items)
        sparse_model = random_sparse_ising(sparse_spins, degree=6, rng=7)
        dense_name = f"qkp{qkp_items}_lagrangian_n{dense_model.num_spins}"
        sparse_name = f"sparse_reg_n{sparse_spins}"
        cells = [
            (dense_name, "lockstep_dense",
             lambda d: PBitMachine(dense_model, rng=0, dtype=d)),
            (sparse_name, "chromatic_csr",
             lambda d: ChromaticPBitMachine(
                 sparse_model, rng=0, dtype=d, storage="csr")),
            (sparse_name, "chromatic_dense",
             lambda d: ChromaticPBitMachine(
                 sparse_model, rng=0, dtype=d, storage="dense")),
        ]
        for replicas in spec["replicas"]:
            for workload, kernel, build in cells:
                measured = _profile_dtypes(build, schedule, replicas)
                for dtype in DTYPES:
                    records.append({
                        "workload": workload,
                        "kernel": kernel,
                        "dtype": dtype,
                        "num_replicas": replicas,
                        "num_sweeps": int(schedule.size),
                        **measured[dtype],
                    })

    def _lookup(kernel, dtype, replicas):
        # First workload pair = the ~100-spin acceptance point.
        for record in records:
            if (record["kernel"], record["dtype"],
                    record["num_replicas"]) == (kernel, dtype, replicas):
                return record
        raise KeyError((kernel, dtype, replicas))

    r_star = 128
    dense_model = _qkp_lagrangian(spec["workloads"][0][0])
    state_bytes = {
        dtype: _pbit_state_bytes(dense_model, dtype, schedule, r_star)
        for dtype in DTYPES
    }
    summary = {
        "f32_state_bytes_ratio_lockstep_r128": (
            state_bytes["float32"] / state_bytes["float64"]
        ),
        "f32_speedup_lockstep_r128": (
            _lookup("lockstep_dense", "float64", r_star)["seconds"]
            / _lookup("lockstep_dense", "float32", r_star)["seconds"]
        ),
        "f32_speedup_chromatic_csr_r128": (
            _lookup("chromatic_csr", "float64", r_star)["seconds"]
            / _lookup("chromatic_csr", "float32", r_star)["seconds"]
        ),
        "csr_over_dense_chromatic_r128": (
            _lookup("chromatic_dense", "float64", r_star)["seconds"]
            / _lookup("chromatic_csr", "float64", r_star)["seconds"]
        ),
    }

    report = {
        "bench": "bigR_kernels",
        "scale": scale,
        "timestamp": time.time(),
        "cpu_count": _cpu_count(),
        "records": records,
        "summary": summary,
    }
    out_path = archive_bench_json("bigR_kernels", report)

    print(f"\nBig-R kernel grid ({scale} scale, {schedule.size} sweeps/run, "
          f"{_cpu_count()} CPUs):")
    for record in records:
        print(f"  {record['workload']:>28s} {record['kernel']:>15s} "
              f"{record['dtype']:>7s} R={record['num_replicas']:<4d} "
              f"{record['seconds'] * 1e3:9.1f} ms  "
              f"{record['replica_sweeps_per_sec']:12,.0f} replica-sweeps/s")
    for key, value in summary.items():
        print(f"  {key}: {value:.2f}x")
    print(f"archived {out_path}")
    return report


def test_perf_bigR_kernels(benchmark):
    """The big-R grid must emit its record, and float32 must halve the
    p-bit machine's coupling and resident state."""
    report = benchmark.pedantic(
        run_bigR_kernels, rounds=1, iterations=1, warmup_rounds=0
    )
    kernels = {record["kernel"] for record in report["records"]}
    assert kernels == {"lockstep_dense", "chromatic_csr", "chromatic_dense"}
    # The acceptance grid: R=128 present in both dtypes, dense and sparse.
    for dtype in DTYPES:
        for kernel in kernels:
            assert any(
                record["num_replicas"] == 128
                and record["dtype"] == dtype
                and record["kernel"] == kernel
                for record in report["records"]
            ), f"missing R=128 cell for {kernel}/{dtype}"
    # Same-process and host-free: the speed ratios stay information.
    ratio = report["summary"]["f32_state_bytes_ratio_lockstep_r128"]
    assert ratio == 0.5, (
        f"float32 p-bit coupling and (R, n) state take {ratio:.3f}x the "
        f"float64 bytes, not half"
    )


if __name__ == "__main__":
    if "--smoke" in sys.argv:
        os.environ["REPRO_SCALE"] = "smoke"
    run_bigR_kernels()
