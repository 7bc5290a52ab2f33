"""Output analysis: confidence intervals and replication control.

The paper: "Simulation results are averaged over enough independent runs
so that the confidence level is 95% and the relative errors do not exceed
5%."  :class:`~repro.stats.replication.ReplicationController` is the one
driver of that stopping rule.  The series helpers
(:mod:`repro.stats.series`), which only trajectory analysis and the diff
layer call, load on first use of one of their names.
"""

from repro._lazy import lazy_exports
from repro.stats.ci import mean_confidence_interval, relative_error
from repro.stats.compare import (
    HIGHER_IS_BETTER,
    VERDICTS,
    MetricComparison,
    MetricSummary,
    WelchResult,
    ci_overlap,
    compare_metric,
    relative_delta,
    welch_t_test,
    worst_verdict,
)
from repro.stats.replication import (
    ReplicatedMetric,
    ReplicationController,
    ReplicationResult,
)

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.stats.series": (
        "SeriesDiff",
        "detect_plateau",
        "detect_saturation",
        "diff_series",
        "resample",
        "union_grid",
    ),
})

__all__ = [
    "mean_confidence_interval",
    "relative_error",
    "HIGHER_IS_BETTER",
    "VERDICTS",
    "MetricComparison",
    "MetricSummary",
    "WelchResult",
    "ci_overlap",
    "compare_metric",
    "relative_delta",
    "welch_t_test",
    "worst_verdict",
    "ReplicatedMetric",
    "ReplicationController",
    "ReplicationResult",
    "SeriesDiff",
    "detect_plateau",
    "detect_saturation",
    "diff_series",
    "resample",
    "union_grid",
]
