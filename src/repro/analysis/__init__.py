"""Result analysis: the paper's metrics, table rendering, figure series.

:mod:`~repro.analysis.experiments` is the shared harness all benchmarks
drive; it owns the scale presets (``REPRO_SCALE`` = ``smoke`` / ``ci`` /
``full``) and the per-table instance suites.
"""

from repro.analysis.stats import (
    accuracy_percent,
    accuracies,
    quartile_summary,
    QuartileSummary,
)
from repro.analysis.tables import render_table, format_percent
from repro.analysis.figures import FigureSeries, write_csv, ascii_plot
from repro.analysis.tts import (
    TtsEstimate,
    success_probability,
    time_to_solution,
    saim_tts_from_trace,
)
from repro.analysis.sweep import (
    BackendSweep,
    BackendSweepReport,
    ParameterSweep,
    SweepPoint,
    sweep_backends,
)
from repro.analysis.reference_cache import (
    ReferenceCache,
    cached_reference_qkp_optimum,
)
from repro.analysis.experiments import (
    Scale,
    current_scale,
    default_max_workers,
    qkp_saim_config,
    mkp_saim_config,
    table2_suite,
    table3_suite,
    table4_suite,
    table5_suite,
    run_saim_on_qkp,
    run_saim_on_mkp,
    run_qkp_suite,
    run_mkp_suite,
    score_qkp_result,
    score_mkp_result,
    QkpRunRecord,
    MkpRunRecord,
)

__all__ = [
    "accuracy_percent",
    "accuracies",
    "quartile_summary",
    "QuartileSummary",
    "render_table",
    "format_percent",
    "FigureSeries",
    "write_csv",
    "ascii_plot",
    "TtsEstimate",
    "success_probability",
    "time_to_solution",
    "saim_tts_from_trace",
    "ParameterSweep",
    "SweepPoint",
    "BackendSweep",
    "BackendSweepReport",
    "sweep_backends",
    "ReferenceCache",
    "cached_reference_qkp_optimum",
    "Scale",
    "current_scale",
    "default_max_workers",
    "qkp_saim_config",
    "mkp_saim_config",
    "table2_suite",
    "table3_suite",
    "table4_suite",
    "table5_suite",
    "run_saim_on_qkp",
    "run_saim_on_mkp",
    "run_qkp_suite",
    "run_mkp_suite",
    "score_qkp_result",
    "score_mkp_result",
    "QkpRunRecord",
    "MkpRunRecord",
]
