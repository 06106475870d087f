"""Table III — QKP per-instance results at paper size 200 (d in 25..100%).

Paper shape: SAIM average accuracy 99.2% (49% feasible) against 96.7% for
the best SA encoding of [16] and 90.9% for PT-DA [17]; optimality reached
only occasionally (8.1% of feasible samples on average).
"""

from repro.analysis.experiments import current_scale, table3_suite
from repro.analysis.tables import format_percent

from _common import PAPER, archive, run_once
from _qkp_tables import format_qkp_table, run_qkp_table


def test_table3_qkp200(benchmark):
    scale = current_scale()
    pt_sweeps = {"smoke": 100, "ci": 400, "full": 20000}[scale.name]

    def experiment():
        return run_qkp_table(table3_suite(scale), scale, pt_sweeps, seed_base=300)

    rows, averages = run_once(benchmark, experiment)
    table = format_qkp_table(
        rows, averages, PAPER["table3"],
        title=f"Table III - QKP results, paper size 200 ({scale.name} scale)",
    )
    archive("table3_qkp200", table)

    # Shape: SAIM's average accuracy is high and at least comparable to the
    # PT-DA proxy (the paper has SAIM ahead by ~8 points).
    assert averages["avg"] > 90.0
    import math

    if not math.isnan(averages["pt"]):
        assert averages["avg"] >= averages["pt"] - 5.0
    # The seeded SAIM headline at ci scale: a change to the chain, or to
    # how it consumes the noise stream, shows here as a diff.
    if scale.name == "ci":
        headline = (format_percent(averages["avg"]), f"{averages['feas']:.0f}")
        assert headline == ('92.6', '43'), headline
