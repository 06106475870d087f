"""Extension — time-to-solution: a success-rate-aware Fig. 4b.

The paper argues sample efficiency by raw MCS budgets (Fig. 4b).  The IM
literature's standard metric is TTS at 99% confidence, which also accounts
for *how often* a run reaches the target.  This bench computes the MCS-TTS
to reach 95%-accuracy solutions for SAIM (each iteration = one run,
transient included) and for the tuned penalty method (each annealing run
independent), reproducing the paper's ordering under the fairer metric.
"""

import numpy as np

from repro.analysis.experiments import current_scale, qkp_saim_config
from repro.analysis.tables import render_table
from repro.analysis.tts import saim_tts_from_trace, time_to_solution
from repro.baselines.exact_qkp import reference_qkp_optimum
from repro.core.encoding import encode_with_slacks
from repro.core.penalty import tune_penalty
from repro.core.engine import SaimEngine
from repro.problems.generators import paper_qkp_instance

from _common import archive, run_once

TARGET_ACCURACY = 95.0


def test_ext_tts(benchmark):
    scale = current_scale()
    config = qkp_saim_config(scale)
    instance = paper_qkp_instance(scale.qkp_size(100), 50, 7)

    def experiment():
        reference = reference_qkp_optimum(instance, rng=0)
        saim = SaimEngine(config).solve(instance.to_problem(), rng=29)
        if saim.found_feasible:
            reference = max(reference, -saim.best_cost)

        encoded = encode_with_slacks(instance.to_problem())
        tuned = tune_penalty(
            encoded,
            num_runs=config.num_iterations,
            mcs_per_run=config.mcs_per_run,
            rng=30,
        )
        return reference, saim, tuned

    reference, saim, tuned = run_once(benchmark, experiment)
    target_cost = -(TARGET_ACCURACY / 100.0) * reference

    saim_tts = saim_tts_from_trace(saim, target_cost=target_cost)

    # Penalty method: per-run feasible costs (infeasible runs never hit).
    penalty_result = tuned.result
    penalty_costs = np.full(penalty_result.num_runs, np.inf)
    penalty_costs[: len(penalty_result.costs)] = penalty_result.costs
    penalty_tts = time_to_solution(
        penalty_costs, target_cost, per_run_cost=float(penalty_result.mcs_per_run)
    )

    def fmt(estimate):
        if estimate.infinite:
            return "inf"
        return f"{estimate.tts:,.0f}"

    rows = [
        ["SAIM", f"{saim_tts.success_probability:.3f}", fmt(saim_tts)],
        ["Tuned penalty", f"{penalty_tts.success_probability:.3f}",
         fmt(penalty_tts)],
    ]
    table = render_table(
        ["Method", f"P(run hits {TARGET_ACCURACY:.0f}% acc)", "TTS_99 (MCS)"],
        rows,
        title=f"Extension - time-to-solution on {instance.name} "
        f"({scale.name} scale; target {TARGET_ACCURACY:.0f}% accuracy)",
    )
    archive("ext_tts", table)

    # Shape: SAIM's TTS is finite and no worse than the penalty method's
    # (the paper's sample-efficiency claim, success-rate aware).
    assert not saim_tts.infinite
    assert penalty_tts.infinite or saim_tts.tts <= penalty_tts.tts * 1.5
