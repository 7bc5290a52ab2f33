"""Experiment registry, campaign engine, runner and reporting.

The campaign, store and scenario layers every run uses load with the
package.  The reporting layer -- runner, report, diff, plot, claims and
trajectory -- loads on first use of one of its names
(:func:`repro._lazy.lazy_exports`), so a cold campaign never compiles
it.
"""

from repro._lazy import lazy_exports
from repro.experiments.figures import COMBOS, FIGURES, FigureSpec, combo_label
from repro.experiments.campaign import (
    METRICS,
    SCALES,
    Campaign,
    PointResult,
    PointSpec,
    Scale,
    SerialExecutor,
    default_scale,
    make_executor,
    run_spec_replication,
    sdsc_trace,
    trace_fingerprint,
)
from repro.experiments.store import ResultCache, global_cache, reset_global_cache
from repro.experiments.scenario import Scenario, ScenarioResult, run_trajectory

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.experiments.diff": (
        "DiffError",
        "DiffReport",
        "LoadedReport",
        "PointDiff",
        "campaign_report",
        "diff_reports",
        "load_report",
        "parse_report",
    ),
    "repro.experiments.runner": ("FigureResult", "run_figure", "run_point"),
    "repro.experiments.trajectory": (
        "SaturationScan",
        "diff_trajectories",
        "run_saturation_figure",
        "scan_saturation",
        "trajectory_verdict",
    ),
    "repro.experiments.plot": ("Chart", "plot_report", "report_charts"),
    "repro.experiments.claims": ("ClaimReport", "ClaimResult", "verify_all"),
    "repro.experiments.report": (
        "ascii_plot",
        "check_ranking",
        "endpoint_ratio",
        "format_figure",
        "series_leq",
    ),
})

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
