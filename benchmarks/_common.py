"""Shared plumbing for the benchmark suite.

Every benchmark reproduces one table or figure of the paper at the scale
selected by ``REPRO_SCALE`` (see ``repro.analysis.experiments``), prints the
reproduced rows next to the paper's reference values, and archives the text
in ``benchmarks/output/`` for EXPERIMENTS.md.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

OUTPUT_DIR = Path(__file__).parent / "output"
REPO_ROOT = Path(__file__).parent.parent

# Reference values transcribed from the paper (averages of each table).
PAPER = {
    "table2": {
        "saim_best": 99.8,
        "saim_avg": 99.0,
        "saim_feas": 54.0,
        "penalty_same_budget_best": 85.0,
        "penalty_same_budget_avg": 35.5,
        "penalty_same_budget_feas": 93.0,
        "penalty_tuned_best": 88.8,
        "penalty_tuned_avg": 80.7,
        "penalty_tuned_feas": 47.0,
        "tuned_p_over_dn": 195.0,
    },
    "table3": {"saim_avg": 99.2, "saim_feas": 49.0, "best_sa": 96.7, "pt_da": 90.9,
               "optimality": 8.1},
    "table4": {"saim_avg": 99.2, "saim_feas": 43.0, "best_sa": 94.9, "pt_da": 83.3,
               "optimality": 5.4},
    "table5": {"saim_best": 99.7, "saim_avg": 98.4, "saim_feas": 5.1,
               "ga_avg": 99.1, "bnb_seconds": 328.0},
    "fig4a_median": {100: 99.8, 200: 99.2, 300: 99.2},
    "fig4b_mcs": {"SAIM": 2e6, "Best SA": 200e6, "HE-IM": 19.5e9, "PT-DA": 15e9},
}


def _finite_or_null(value):
    """``value`` with every non-finite float, however nested, as ``None``."""
    if isinstance(value, float):
        return value if math.isfinite(value) else None
    if isinstance(value, dict):
        return {key: _finite_or_null(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_finite_or_null(item) for item in value]
    return value


def archive_bench_json(name: str, report: dict) -> Path:
    """Write ``BENCH_<name>.json`` to ``benchmarks/output/`` (archived per
    run, gitignored) and, at smoke scale, mirror it to the repo root.

    Records are strict JSON: a non-finite float (e.g. the mean best cost
    of a fleet with no feasible solution) is written as ``null``, never as
    a bare ``NaN``/``Infinity`` token that standard parsers reject.

    The root copies are the committed perf trajectory: ``benchmarks/output/``
    never reaches the repository, so without the mirror the numbers quoted
    in EXPERIMENTS.md would be unreproducible hearsay.  Only the smoke-sized
    records are mirrored — they run anywhere in seconds, so a stale root
    copy is always one ``--smoke`` invocation away from fresh.
    """
    text = json.dumps(_finite_or_null(report), indent=2, allow_nan=False) + "\n"
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    out_path = OUTPUT_DIR / f"BENCH_{name}.json"
    out_path.write_text(text)
    if report.get("scale") == "smoke":
        (REPO_ROOT / f"BENCH_{name}.json").write_text(text)
    return out_path


def archive(name: str, text: str) -> None:
    """Print a report and save it under benchmarks/output/<name>.txt."""
    print()
    print(text)
    OUTPUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUTPUT_DIR / f"{name}.txt").write_text(text + "\n")


def run_once(benchmark, func):
    """Time ``func`` exactly once through pytest-benchmark.

    The experiments are far too heavy for statistical repetition; one round
    gives the timing column without re-running minutes of annealing.
    """
    return benchmark.pedantic(func, rounds=1, iterations=1, warmup_rounds=0)
