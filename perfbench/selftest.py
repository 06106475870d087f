"""Self-test of the benchmark: a small fixed-size pass over every workload.

    python3 perfbench/selftest.py

Run from the root of a checkout.  For each workload it runs ``run.py``
with a fixed number of operations, untraced once and traced twice, and
checks that:

- the last line of output is strict JSON (no ``NaN``/``Infinity`` tokens)
  with exactly the keys ``correct``, ``attempted``, ``failed``, ``metrics``;
- the emitted metric names are exactly the ones ``BENCHMARK.json``
  declares for the mode, each with its declared unit;
- the exact counts repeat across the two traced runs;
- every output check passed.

Exits 1 on the first failed expectation, after printing it.
"""

from __future__ import annotations

import json
import subprocess
import sys

EXACT_COUNTS = ("ising.spin_steps", "core.engine.iterations",
                "service.pool.program_cache_hit_ratio")
OPS = 2


def _reject(token):
    raise ValueError(f"non-strict JSON token {token}")


def run(workload: str, trace: int) -> dict:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "1", "--seconds", "1", "--trace", str(trace),
               "--ops", str(OPS)]
    done = subprocess.run(command, capture_output=True, text=True,
                          timeout=900)
    lines = done.stdout.strip().splitlines()
    if done.returncode != 0 or not lines:
        raise AssertionError(f"{' '.join(command)} exited {done.returncode}:\n"
                             f"{done.stdout}{done.stderr}")
    result = json.loads(lines[-1], parse_constant=_reject)
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(result)}")
    return result


def main() -> int:
    with open("BENCHMARK.json") as handle:
        declared = json.load(handle)
    try:
        for entry in declared["workloads"]:
            workload = entry["name"]
            runs = [(0, run(workload, 0)), (1, run(workload, 1)),
                    (1, run(workload, 1))]
            for trace, result in runs:
                section = declared["per_layer" if trace else "end_to_end"]
                units = {m["name"]: m["unit"] for m in section}
                emitted = {name: m["unit"] for name, m in result["metrics"].items()}
                if emitted != units:
                    raise AssertionError(
                        f"{workload} trace={trace}: names/units differ from "
                        f"BENCHMARK.json: {sorted(set(emitted.items()) ^ set(units.items()))}")
                if not result["correct"] or result["failed"]:
                    raise AssertionError(f"{workload} trace={trace}: {result}")
            first, second = runs[1][1]["metrics"], runs[2][1]["metrics"]
            for name in EXACT_COUNTS:
                if first[name]["value"] != second[name]["value"]:
                    raise AssertionError(
                        f"{workload}: {name} did not repeat "
                        f"({first[name]['value']} vs {second[name]['value']})")
            print(f"ok  {workload}")
    except AssertionError as exc:
        print(f"FAIL {exc}")
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
