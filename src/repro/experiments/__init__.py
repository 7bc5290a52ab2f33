"""Experiment registry, campaign engine, runner and reporting."""

from repro.experiments.figures import COMBOS, FIGURES, FigureSpec, combo_label
from repro.experiments.campaign import (
    Campaign,
    PointResult,
    PointSpec,
    SerialExecutor,
    make_executor,
    run_spec_replication,
    trace_fingerprint,
)
from repro.experiments.diff import (
    DiffError,
    DiffReport,
    LoadedReport,
    PointDiff,
    campaign_report,
    diff_reports,
    load_report,
    parse_report,
)
from repro.experiments.store import ResultCache, global_cache, reset_global_cache
from repro.experiments.runner import (
    METRICS,
    SCALES,
    FigureResult,
    Scale,
    default_scale,
    run_figure,
    run_point,
    sdsc_trace,
)
from repro.experiments.scenario import Scenario, ScenarioResult, run_trajectory
from repro.experiments.trajectory import (
    SaturationScan,
    diff_trajectories,
    run_saturation_figure,
    scan_saturation,
    trajectory_verdict,
)
from repro.experiments.plot import Chart, plot_report, report_charts
from repro.experiments.claims import ClaimReport, ClaimResult, verify_all
from repro.experiments.report import (
    ascii_plot,
    check_ranking,
    endpoint_ratio,
    format_figure,
    series_leq,
)

__all__ = [
    "ClaimReport",
    "ClaimResult",
    "verify_all",
    "COMBOS",
    "FIGURES",
    "FigureSpec",
    "combo_label",
    "Campaign",
    "PointResult",
    "PointSpec",
    "DiffError",
    "DiffReport",
    "LoadedReport",
    "PointDiff",
    "campaign_report",
    "diff_reports",
    "load_report",
    "parse_report",
    "Scenario",
    "ScenarioResult",
    "run_trajectory",
    "SaturationScan",
    "diff_trajectories",
    "run_saturation_figure",
    "scan_saturation",
    "trajectory_verdict",
    "Chart",
    "plot_report",
    "report_charts",
    "SerialExecutor",
    "make_executor",
    "run_spec_replication",
    "trace_fingerprint",
    "METRICS",
    "SCALES",
    "FigureResult",
    "ResultCache",
    "Scale",
    "default_scale",
    "global_cache",
    "reset_global_cache",
    "run_figure",
    "run_point",
    "sdsc_trace",
    "ascii_plot",
    "check_ranking",
    "endpoint_ratio",
    "format_figure",
    "series_leq",
]
