"""Table V — MKP results: SAIM vs exact B&B and the Chu–Beasley GA.

Per instance the paper reports the B&B solve time (instance difficulty),
the optimality rate among feasible samples, SAIM best/average accuracy with
the feasible-sample percentage, and the GA's average accuracy.  Paper shape:
SAIM best ~99.7% average, on par with the tailored GA (>= 99.1%), but with a
much lower feasible-sample rate (~5%) than QKP — multiple constraints are
harder to satisfy simultaneously.
"""

import numpy as np

from repro.analysis.experiments import (
    current_scale,
    default_max_workers,
    mkp_saim_config,
    run_baseline_suite,
    run_mkp_suite,
    table5_suite,
)
from repro.analysis.tables import format_percent, render_table

from _common import PAPER, archive, run_once

_GA_CHILDREN = {"smoke": 300, "ci": 2000, "full": 100000}


def test_table5_mkp(benchmark):
    scale = current_scale()
    config = mkp_saim_config(scale)
    ga_options = {
        "population_size": 50, "num_children": _GA_CHILDREN[scale.name]
    }

    def experiment():
        rows = []
        sums = {"opt": [], "best": [], "avg": [], "feas": [], "ga": [],
                "bnb": []}
        suite = table5_suite(scale)
        # SAIM solves shard through the executor (REPRO_WORKERS processes);
        # the exact MILP references run in the parent, and the GA column
        # goes through the same front-door pipe as every other method.
        records = run_mkp_suite(
            suite, config,
            seeds=[500 + index for index in range(len(suite))],
            max_workers=default_max_workers(),
        )
        ga_records = run_baseline_suite(
            suite, "ga", method_options=ga_options,
            seeds=[600 + index for index in range(len(suite))],
            max_workers=default_max_workers(),
            reference_profits=[record.optimum_profit for record in records],
        )
        for instance, record, ga in zip(suite, records, ga_records):
            ga_accuracy = ga.accuracy_percent
            rows.append([
                instance.name,
                f"{record.exact_seconds:.2f}",
                format_percent(record.optimality_percent),
                format_percent(record.best_accuracy),
                f"{format_percent(record.average_accuracy)} "
                f"({record.feasible_percent:.1f})",
                format_percent(ga_accuracy),
            ])
            sums["opt"].append(record.optimality_percent)
            sums["best"].append(record.best_accuracy)
            sums["avg"].append(record.average_accuracy)
            sums["feas"].append(record.feasible_percent)
            sums["ga"].append(ga_accuracy)
            sums["bnb"].append(record.exact_seconds)
        return rows, sums

    rows, sums = run_once(benchmark, experiment)

    def mean(key):
        values = [v for v in sums[key] if not np.isnan(v)]
        return float(np.mean(values)) if values else float("nan")

    rows.append([
        "Average (measured)",
        f"{mean('bnb'):.2f}",
        format_percent(mean("opt")),
        format_percent(mean("best")),
        f"{format_percent(mean('avg'))} ({mean('feas'):.1f})",
        format_percent(mean("ga")),
    ])
    paper = PAPER["table5"]
    rows.append([
        "Average (paper)",
        f"{paper['bnb_seconds']:.0f}",
        "0.9",
        format_percent(paper["saim_best"]),
        f"{format_percent(paper['saim_avg'])} ({paper['saim_feas']:.1f})",
        f">={format_percent(paper['ga_avg'])}",
    ])
    table = render_table(
        ["Instance", "B&B time (s)", "Optimality (%)", "SAIM best",
         "SAIM avg (feas%)", "GA best"],
        rows,
        title=f"Table V - MKP results ({scale.name} scale)",
    )
    archive("table5_mkp", table)

    # Shape: SAIM best accuracy is near-optimal and comparable to the GA;
    # the MKP feasible-sample rate is well below the ~50% seen for QKP.
    assert mean("best") > 95.0
    assert mean("ga") > 95.0
    # The seeded SAIM headline at ci scale: a change to the chain, or to
    # how it consumes the noise stream, shows here as a diff.
    if scale.name == "ci":
        headline = (format_percent(mean("avg")), f"{mean('feas'):.1f}")
        assert headline == ("98.6", "5.3"), headline
