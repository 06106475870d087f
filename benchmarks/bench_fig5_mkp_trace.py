"""Fig. 5 — cost and multi-multiplier traces of one SAIM run on MKP.

The paper's instance is 250-5-8 with fixed P = 10.  Shape to reproduce: all
five Lagrange multipliers rise from zero while the knapsacks are over
capacity (g >= 0), then stabilize, after which SAIM finds near-optimal
feasible solutions.
"""

import numpy as np

from repro.analysis.experiments import current_scale, mkp_saim_config
from repro.analysis.figures import FigureSeries, ascii_plot, write_csv
from repro.baselines.milp import solve_mkp_exact
from repro.core.engine import SaimEngine
from repro.problems.generators import paper_mkp_instance

from _common import OUTPUT_DIR, archive, run_once


def test_fig5_mkp_trace(benchmark):
    scale = current_scale()
    instance = paper_mkp_instance(scale.mkp_size(250), 5, 8)
    config = mkp_saim_config(scale)

    def experiment():
        exact = solve_mkp_exact(instance)
        result = SaimEngine(config).solve(
            instance.to_problem(), rng=58
        )
        return result, exact

    result, exact = run_once(benchmark, experiment)
    trace = result.trace
    iterations = np.arange(trace.num_iterations)

    series = [FigureSeries("sample_cost", iterations, trace.sample_costs)]
    for m in range(trace.lambdas.shape[1]):
        series.append(
            FigureSeries(f"lambda_{m}", iterations, trace.lambdas[:, m])
        )
    write_csv(series, OUTPUT_DIR / "fig5_mkp_trace.csv")

    lines = [
        f"Fig. 5 - SAIM trace on MKP {instance.name} ({scale.name} scale)",
        f"penalty P = {result.penalty:.2f} (paper: 10 at full size)",
        f"exact optimum profit = {exact.profit:.0f}",
        f"feasible samples: {result.num_feasible}/{result.num_iterations}",
        "",
        ascii_plot(series[0], width=70, height=12),
        "",
        ascii_plot(series[1], width=70, height=8),
    ]
    archive("fig5_mkp_trace", "\n".join(lines))

    # Shape assertions.
    lambdas = trace.lambdas
    assert np.all(lambdas[0] == 0.0)
    # All five multipliers must have risen above zero (over-capacity
    # residuals are positive early on).
    assert np.all(lambdas[-1] > 0)
    assert result.found_feasible
    best_accuracy = 100.0 * (-result.best_cost) / exact.profit
    assert best_accuracy > 90.0
