"""Run one benchmark workload against the checkout's program and print metrics.

Run from the root of a checkout (the program is imported from ``./src``)::

    python3 perfbench/run.py --workload fleet-qkp40x30 --seed 1 --seconds 45 --trace 0

``--trace 0`` runs the workload untraced for ``--seconds`` and prints every
end-to-end metric of ``BENCHMARK.json``; ``--trace 1`` runs an untraced
phase for half the time, replays the same operations traced, and prints
every per-layer metric.  Each metric is printed by name with its unit, and
the last line of standard output is one strict-JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  The exit code is 0
only when every output check passed.  A record with provenance (and, when
traced, the spans) is written under ``.perfbench/``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".perfbench")
SETUP_PROBES = 3
BLAS_THREAD_ENV = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

_clock = time.perf_counter


def _die(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def load_declared() -> dict:
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json")) as handle:
            return json.load(handle)
    except (OSError, ValueError) as exc:
        _die(f"cannot read BENCHMARK.json: {exc}")


def import_workloads():
    """Import the checkout's program (never an installed copy)."""
    if not os.path.isfile(os.path.join(SRC, "repro", "__init__.py")):
        _die(f"no program at {SRC}; run from the root of a checkout")
    # A calibrated host perf model must not flip strategy="auto".
    os.environ["REPRO_PERF_MODEL"] = ""
    # One BLAS thread, set before numpy loads and inherited by the set-up
    # probes and the service worker: with two BLAS threads on a 2-vCPU
    # shared host every kernel matmul waits for the other vCPU, and the
    # fused fleet ran 2.1x slower whenever that vCPU was busy.
    for name in BLAS_THREAD_ENV:
        os.environ[name] = "1"
    sys.path.insert(0, SRC)
    import repro

    if not os.path.realpath(repro.__file__).startswith(os.path.realpath(SRC)):
        _die(f"imported repro from {repro.__file__}, not from {SRC}")
    import workloads

    return workloads


def strict(value):
    """JSON-safe copy: non-finite floats become ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: strict(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [strict(item) for item in value]
    return value


def dumps(value) -> str:
    return json.dumps(strict(value), allow_nan=False)


def peak_rss_mb() -> float:
    """This process's peak RSS plus that of its largest reaped child (the
    service worker); call before starting any other child process."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    child = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + child) / 1024.0  # ru_maxrss is in KiB on Linux


def setup_seconds(args) -> float:
    """Fresh interpreter to a warmed-up program: one set-up probe."""
    command = [sys.executable, os.path.abspath(__file__),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", "0", "--setup-probe"]
    start = _clock()
    probe = subprocess.Popen(command, stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
    try:
        line = probe.stdout.readline()
        elapsed = _clock() - start
        probe.stdin.close()
        probe.wait(timeout=120)
    finally:
        if probe.poll() is None:
            probe.kill()
            probe.wait()
    if line.strip() != "ready" or probe.returncode != 0:
        raise RuntimeError(f"set-up probe failed (exit {probe.returncode})")
    return elapsed


def run_probe(workload) -> int:
    workload.setup()
    print("ready", flush=True)
    sys.stdin.read()  # the parent closes stdin once it has the time
    workload.close()
    return 0


def mark(errors: list, ops: list, extra: dict, offset: int = 0) -> None:
    """Fold spot-check failures (``{op index: message}``) into the per-op
    errors; ``ops`` sit at ``offset`` in ``errors``."""
    where = {op.index: offset + position for position, op in enumerate(ops)}
    for index, message in extra.items():
        position = where[index]
        errors[position] = "; ".join(filter(None, [errors[position], message]))


def untraced_run(workloads, workload, args) -> tuple[dict, list, dict]:
    workload.setup()
    try:
        ops = workload.run_phase(seconds=args.seconds, count=args.ops)
    finally:
        workload.close()
    peak = peak_rss_mb()
    setup = [setup_seconds(args) for _ in range(SETUP_PROBES)]
    errors, accuracy = workload.check(ops)
    mark(errors, ops, workload.spot_errors(ops))
    latency = [op.latency for op in ops]
    wall = max(op.end for op in ops) - min(op.start for op in ops)
    # The host switches between a slow and a fast state about 1.7x apart
    # for seconds to minutes, so the phase is scaled to the reference host
    # speed by the speed measured before each operation (1 if unmeasured).
    at_reference = wall * sum(op.latency * op.speed for op in ops) / sum(latency)
    metrics = {
        "setup_s": statistics.median(setup),
        "jobs_per_s": sum(op.jobs for op in ops) / at_reference,
        "accuracy_pct": statistics.median(accuracy) if accuracy else 0.0,
        "peak_rss_mb": peak,
    }
    samples = {"ops": len(ops), "latency_ms": [1e3 * x for x in latency],
               "host_speed": [op.speed for op in ops], "raw_jobs_per_s":
               sum(op.jobs for op in ops) / wall,
               "setup_s": setup, "accuracy_pct": accuracy}
    return metrics, errors, samples


def traced_run(workloads, workload, args) -> tuple[dict, list, dict]:
    import spans

    tracer = spans.Tracer()
    spans.install_traced_backend(tracer)
    workload.setup()
    try:
        if workload.concurrent:
            # The service is traced by in-process replays of its jobs, so
            # its HTTP loop runs once, untraced, for the whole time.
            plain = workload.run_phase(seconds=args.seconds, count=args.ops)
            traced = []
            stats = workload.stats()
        else:
            half = None if args.ops is not None else args.seconds / 2
            plain = workload.run_phase(seconds=half, count=args.ops)
            traced = workload.run_phase(count=len(plain), tracer=tracer)
    finally:
        workload.close()
    ops = plain + traced
    errors, _ = workload.check(ops)
    rows = workload.traced_solves(tracer, traced)
    if workload.concurrent:
        mark(errors, plain, workload.replay_errors(plain))
    mark(errors, traced, {
        after.index: "traced outcome differs from untraced"
        for before, after in zip(plain, traced)
        if not _same(workloads, before, after)
    }, offset=len(plain))

    walls = [row[0] for row in rows]
    layers = [row[1] for row in rows]
    counts = [row[2] for row in rows]

    def median_ms(key):
        return 1e3 * statistics.median(layer[key] for layer in layers)

    anneal = sum(layer["anneal"] for layer in layers)
    metrics = {
        "ising.anneal_s": statistics.median(layer["anneal"] for layer in layers),
        "ising.anneal_share_pct": 100.0 * anneal / sum(walls),
        "ising.spin_steps": statistics.median(c["spin_steps"] for c in counts),
        "ising.ns_per_spin_step": 1e9 * anneal / sum(c["spin_steps"] for c in counts),
        "ising.build_ms": median_ms("ising_build"),
        "core.encoding.encode_ms": median_ms("encode"),
        "core.lagrangian.build_ms": median_ms("lagrangian_build"),
        "core.lagrangian.reprogram_ms": median_ms("reprogram"),
        "core.engine.readout_ms": median_ms("readout"),
        "core.engine.feasible_readout_ratio":
            sum(c["feasible_readouts"] for c in counts)
            / sum(c["readouts"] for c in counts),
        "core.engine.other_ms": median_ms("other"),
        "core.engine.iterations": statistics.median(row[3] for row in rows),
        "runtime.executor.plan_ms": 0.0,
        "runtime.executor.fused_share": 0.0,
        "trace.unattributed_pct": 100.0 * sum(
            layer["unattributed"] for layer in layers) / sum(walls),
    }
    for name in ("service.http.overhead_ms_p50", "service.queue.wait_ms_p50",
                 "service.queue.wait_ms_p99", "service.queue.rejected",
                 "service.pool.worker_ms_p50",
                 "service.pool.program_cache_hit_ratio",
                 "service.codec.decode_ms", "service.codec.encode_ms",
                 "service.codec.request_kb"):
        metrics[name] = 0.0  # the layer is not on this workload's path
    if hasattr(workload, "executor_metrics"):
        metrics.update(workload.executor_metrics(traced))
    if workload.concurrent:
        metrics.update(workload.service_metrics(ops, stats, rows))
    else:
        metrics["trace.overhead_pct"] = 100.0 * (
            statistics.median(op.latency for op in traced)
            / statistics.median(op.latency for op in plain) - 1.0)
    base = tracer.spans[0]["start"] if tracer.spans else 0.0
    samples = {
        "ops": len(ops),
        "traced_ops": len(traced),
        "spans": [dict(span, op=str(span["op"]), start=span["start"] - base,
                       end=span["end"] - base) for span in tracer.spans],
    }
    return metrics, errors, samples


def run_all(args, declared) -> int:
    """Every declared workload in turn, each in a fresh interpreter; the
    exit code is the worst of theirs."""
    status = 0
    for entry in declared["workloads"]:
        command = [sys.executable, os.path.abspath(__file__),
                   "--workload", entry["name"], "--seed", str(args.seed),
                   "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.ops is not None:
            command += ["--ops", str(args.ops)]
        status = max(status, subprocess.run(command).returncode)
    return status


def _same(workloads, before, after) -> bool:
    """Two runs of one ``solve_many`` batch agree instance by instance."""
    return all(workloads.same_outcome(x, y) for x, y in
               zip(before.outcome.results, after.outcome.results))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        help="a workload of BENCHMARK.json, or 'all'")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--ops", type=int, default=None,
                        help="run exactly this many operations per phase "
                             "instead of --seconds (self-test)")
    parser.add_argument("--setup-probe", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    declared = load_declared()
    if args.workload == "all":
        return run_all(args, declared)
    workloads = import_workloads()
    if args.workload not in workloads.WORKLOADS:
        _die(f"unknown workload {args.workload!r}; "
             f"choose from {sorted(workloads.WORKLOADS)}")
    workload = workloads.WORKLOADS[args.workload](args.seed, args.seconds)
    if args.setup_probe:
        return run_probe(workload)

    run = traced_run if args.trace else untraced_run
    metrics, errors, samples = run(workloads, workload, args)

    section = declared["per_layer" if args.trace else "end_to_end"]
    units = {entry["name"]: entry["unit"] for entry in section}
    if set(metrics) != set(units):
        _die(f"emitted metrics {sorted(set(metrics) ^ set(units))} do not "
             f"match BENCHMARK.json")
    failed = sum(error is not None for error in errors)
    result = {
        "correct": failed == 0,
        "attempted": len(errors),
        "failed": failed,
        "metrics": {name: {"value": float(metrics[name]), "unit": units[name]}
                    for name in units},
    }

    from provenance import provenance

    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "seconds": args.seconds, "ops": args.ops,
        "provenance": provenance(ROOT, args.seed),
        "errors": [e for e in errors if e is not None],
        "samples": samples, "result": result,
    }
    os.makedirs(os.path.join(OUT, "records"), exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{stamp}-{os.getpid()}.json"
    with open(os.path.join(OUT, "records", name), "w") as handle:
        handle.write(dumps(record))

    print(f"{args.workload} seed={args.seed} trace={args.trace}: "
          f"{samples['ops']} operations, {failed} failed")
    for message in record["errors"][:10]:
        print(f"  check failed: {message}")
    for metric, entry in result["metrics"].items():
        print(f"  {metric:40s} {entry['value']:14.6g} {entry['unit']}")
    print(dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
