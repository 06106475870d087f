"""Ablation — annealing schedule shape and read-out policy.

Two design choices the paper fixes without ablation:

- the *linear* beta sweep 0 -> beta_max (vs the geometric ladder common in
  SA practice);
- reading the *last* sample of each run (vs the best-energy sample, which a
  digital IM could track for free).
"""

from dataclasses import replace

import numpy as np

from repro.analysis.experiments import current_scale, qkp_saim_config
from repro.analysis.tables import format_percent, render_table
from repro.baselines.exact_qkp import reference_qkp_optimum
from repro.core.engine import SaimEngine
from repro.problems.generators import paper_qkp_instance

from _common import archive, run_once


def test_ablation_schedule(benchmark):
    scale = current_scale()
    base = qkp_saim_config(scale)
    instance = paper_qkp_instance(scale.qkp_size(100), 50, 3)
    variants = {
        "linear, read last (paper)": base,
        "geometric, read last": replace(base, schedule="geometric"),
        "linear, read best": replace(base, read_best=True),
        "geometric, read best": replace(base, schedule="geometric", read_best=True),
    }

    def experiment():
        reference = reference_qkp_optimum(instance, rng=0)
        raw = {}
        for label, config in variants.items():
            result = SaimEngine(config).solve(
                instance.to_problem(), rng=11
            )
            if result.found_feasible:
                reference = max(reference, -result.best_cost)
            raw[label] = result
        rows = []
        accuracies = {}
        for label, result in raw.items():
            accuracy = (
                100.0 * (-result.best_cost) / reference
                if result.found_feasible
                else float("nan")
            )
            accuracies[label] = accuracy
            rows.append([
                label,
                format_percent(accuracy),
                format_percent(result.feasible_ratio * 100.0),
            ])
        return rows, accuracies

    rows, accuracies = run_once(benchmark, experiment)
    table = render_table(
        ["Variant", "Best accuracy", "Feasible %"],
        rows,
        title=f"Ablation - anneal schedule and read-out on {instance.name} "
        f"({scale.name} scale)",
    )
    archive("ablation_schedule", table)

    # The paper's linear/last combination must work; read-best can only
    # see more samples per run, so it should not be dramatically worse.
    paper_acc = accuracies["linear, read last (paper)"]
    assert not np.isnan(paper_acc) and paper_acc > 90.0
