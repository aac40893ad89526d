"""Experiment drivers that regenerate every table and figure of the paper."""

from .bench import (
    BENCH_SCHEMA,
    compare_bench,
    corpus_shape,
    default_bench_path,
    GATED_COUNTER_PREFIXES,
    GATED_COUNTERS,
    has_regressions,
    render_compare,
    run_bench,
    run_generated_bench,
)
from .trend import (
    append_history,
    check_comparable,
    detect_drift,
    load_history,
    render_trend,
    trend_rows,
)
from .generated import (
    analyze_generated_app,
    generated_app_data,
    run_generated,
)
from .export import (
    CSV_COLUMNS,
    result_analysis_csv,
    save_result_analysis,
    write_result_analysis,
)
from .figure5 import (
    figure5_app_data,
    Figure5Data,
    render_figure5,
    run_figure5,
)
from .render import percent, render_table
from .table1 import (
    analyze_corpus_app,
    build_row,
    fp_totals,
    render_table1,
    run_table1,
    run_table1_metrics,
    Table1Row,
    total_true_harmful,
)
from .table2 import (
    InjectionOutcome,
    render_table2,
    run_table2,
    summarize_table2,
    table2_app_data,
)
from .table3 import (
    render_table3,
    run_table3,
    summarize_table3,
    table3_app_data,
    Table3Data,
    Table3Row,
)
from .timing import render_timing, run_timing, TimingData

__all__ = [
    "analyze_corpus_app", "analyze_generated_app", "append_history",
    "BENCH_SCHEMA",
    "build_row", "check_comparable", "compare_bench", "corpus_shape",
    "detect_drift", "generated_app_data", "load_history", "render_trend",
    "run_generated", "run_generated_bench", "trend_rows",
    "CSV_COLUMNS", "GATED_COUNTER_PREFIXES", "GATED_COUNTERS",
    "has_regressions", "render_compare",
    "default_bench_path", "run_bench", "figure5_app_data",
    "Figure5Data", "fp_totals", "result_analysis_csv",
    "save_result_analysis", "write_result_analysis",
    "InjectionOutcome", "percent",
    "render_figure5", "render_table", "render_table1", "render_table2",
    "render_table3", "render_timing", "run_figure5", "run_table1",
    "run_table1_metrics", "run_table2", "run_table3", "run_timing",
    "summarize_table2",
    "summarize_table3", "table2_app_data", "table3_app_data", "Table1Row",
    "Table3Data", "Table3Row", "TimingData", "total_true_harmful",
]
