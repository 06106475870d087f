"""Table IV — QKP per-instance results at paper size 300 (d in {25, 50}%).

Paper shape: the gap between SAIM (99.2% average accuracy) and the
comparators widens with size — best SA drops to 94.9% and PT-DA to 83.3%.
"""

from repro.analysis.experiments import current_scale, table4_suite
from repro.analysis.tables import format_percent

from _common import PAPER, archive, run_once
from _qkp_tables import format_qkp_table, run_qkp_table


def test_table4_qkp300(benchmark):
    scale = current_scale()
    pt_sweeps = {"smoke": 100, "ci": 400, "full": 20000}[scale.name]

    def experiment():
        return run_qkp_table(table4_suite(scale), scale, pt_sweeps, seed_base=400)

    rows, averages = run_once(benchmark, experiment)
    table = format_qkp_table(
        rows, averages, PAPER["table4"],
        title=f"Table IV - QKP results, paper size 300 ({scale.name} scale)",
    )
    archive("table4_qkp300", table)

    assert averages["avg"] > 90.0
    import math

    if not math.isnan(averages["pt"]):
        assert averages["avg"] >= averages["pt"] - 5.0
    # The seeded SAIM headline at ci scale: a change to the chain, or to
    # how it consumes the noise stream, shows here as a diff.
    if scale.name == "ci":
        headline = (format_percent(averages["avg"]), f"{averages['feas']:.0f}")
        assert headline == ('96.3', '46'), headline
