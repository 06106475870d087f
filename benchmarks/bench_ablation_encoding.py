"""Ablation — slack encoding: paper binary vs HE-IM-style hybrid [15].

The binary slack encoding's most-significant bit carries a coefficient of
``2^(Q-1)``, which after the penalty expansion produces couplings much
larger than the problem's own — one reason [15] proposes a hybrid
unary/binary encoding.  This bench measures both the static effect (the
coefficient spread of each encoding) and the end-to-end effect (SAIM
accuracy/feasibility through each encoding at the same budget).
"""

import numpy as np

from repro.analysis.experiments import current_scale, qkp_saim_config
from repro.analysis.tables import format_percent, render_table
from repro.baselines.exact_qkp import reference_qkp_optimum
from repro.core.encoding import encode_with_slacks
from repro.core.hybrid_encoding import (
    encode_with_hybrid_slacks,
    max_coefficient_ratio,
)
from repro.core.engine import SaimEngine
from repro.problems.generators import paper_qkp_instance

from _common import archive, run_once

UNARY_BITS = (0, 2, 4, 8)  # 0 = the paper's plain binary encoding


def test_ablation_encoding(benchmark):
    scale = current_scale()
    config = qkp_saim_config(scale)
    instance = paper_qkp_instance(scale.qkp_size(100), 50, 6)
    problem = instance.to_problem()

    def experiment():
        reference = reference_qkp_optimum(instance, rng=0)
        outcomes = {}
        for unary in UNARY_BITS:
            if unary == 0:
                encoded = encode_with_slacks(problem)
            else:
                encoded = encode_with_hybrid_slacks(problem, unary_bits=unary)
            saim = SaimEngine(config)
            result = saim.solve_encoded(encoded, rng=17)
            if result.found_feasible:
                reference = max(reference, -result.best_cost)
            spread = max(
                max_coefficient_ratio(weights) for weights in encoded.slack_weights
            )
            outcomes[unary] = (result, encoded.num_slack, spread)
        return reference, outcomes

    reference, outcomes = run_once(benchmark, experiment)

    rows = []
    accuracies = {}
    for unary, (result, num_slack, spread) in outcomes.items():
        accuracy = (
            100.0 * (-result.best_cost) / reference
            if result.found_feasible
            else float("nan")
        )
        accuracies[unary] = accuracy
        label = "binary (paper)" if unary == 0 else f"hybrid, {unary} unary bits"
        rows.append([
            label,
            num_slack,
            f"{spread:.0f}x",
            format_percent(accuracy),
            format_percent(result.feasible_ratio * 100.0),
        ])
    table = render_table(
        ["Encoding", "Slack bits", "Coeff spread", "Best accuracy", "Feasible %"],
        rows,
        title=f"Ablation - slack encoding on {instance.name} ({scale.name} scale)",
    )
    archive("ablation_encoding", table)

    # Static claim: the hybrid encoding shrinks the coefficient spread.
    assert outcomes[4][2] <= outcomes[0][2]
    # End-to-end: the paper's binary encoding works; hybrids stay competitive.
    assert not np.isnan(accuracies[0]) and accuracies[0] > 90.0
