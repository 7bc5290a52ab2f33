"""Statistical diffing of campaign/scenario reports (``repro diff``).

Two ``--out`` reports -- from a scenario run or a ``sweep`` campaign --
are aligned point-by-point via the structured :meth:`PointSpec.key`
cache keys each report embeds, then every shared metric is classified
with :func:`repro.stats.compare.compare_metric`:

* ``identical``          -- means float-equal, bit for bit;
* ``indistinguishable``  -- Welch's t-test cannot reject equality at
  ``alpha`` (or the delta is inside ``rel_tol`` for deterministic cells);
* ``improved``/``regressed`` -- significant, signed by the metric's
  orientation (utilization up is good, turnaround up is bad).

With ``--trajectories`` the comparison also covers the *shape* of each
run: the trajectory series scenario reports embed (queue length,
utilization, throughput vs. time) are resampled onto a common grid and
classified per sample (:mod:`repro.experiments.trajectory`), so a
golden master pins dynamics a scalar mean cannot see.  A diverged
series gates exactly like a regressed mean.

Alignment tolerates grid subsets/supersets: points present on only one
side are reported, not fatal, so a widened sweep can still be compared
against an older baseline.  A report written before schema 2 (no
replication summaries, no point keys) is rejected with a clear error --
regenerate it with a current ``--out``.

CLI::

    repro diff a.json b.json [--metric M ...] [--alpha A] [--rel-tol T]
               [--trajectories] [--traj-atol T] [--traj-rtol T]
               [--fail-on-regress] [--out diff.json]

Exit codes: ``0`` clean (or differences without ``--fail-on-regress``),
``1`` at least one ``regressed`` verdict (a regressed mean *or* a
diverged trajectory) under ``--fail-on-regress``, ``2`` malformed or
old-schema reports, disjoint grids, or ``--trajectories`` against
reports with no embedded series -- usable directly as a CI gate.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Mapping, Sequence

from repro.experiments.campaign import METRICS, PointResult, PointSpec
from repro.stats.compare import (
    IDENTICAL,
    REGRESSED,
    MetricComparison,
    MetricSummary,
    compare_metric,
    worst_verdict,
)
from repro.stats.series import SeriesDiff

#: report schema this differ reads and writes.  Schema 1 = the pre-1.3
#: scenario reports without point keys or replication summaries
#: (rejected); schema 2 added point keys + replication summaries;
#: schema 3 (current) embeds trajectory series per point and an optional
#: top-level ``saturation`` block.  Schema-2 reports remain readable.
REPORT_SCHEMA = 3

#: oldest report schema :func:`parse_report` still accepts
MIN_REPORT_SCHEMA = 2


class DiffError(ValueError):
    """A report cannot be read, parsed, or aligned."""


# ------------------------------------------------------------------ reports
def campaign_report(
    points: Sequence[PointSpec],
    results: Mapping[PointSpec, PointResult],
    name: str = "campaign",
    kind: str = "campaign",
    trajectories: Mapping[str, Mapping] | None = None,
    saturation: Mapping | Sequence[Mapping] | None = None,
) -> dict:
    """The machine-readable report for a set of campaign points.

    This is the ``sweep --out`` format; a scenario report is this
    document plus its ``scenario`` and ``fingerprint`` fields
    (:meth:`~repro.experiments.scenario.ScenarioResult.to_dict`), so
    ``repro diff`` reads both.

    Args:
        points: the report's point specs, in order.
        results: per-spec results.
        name: report name (shown in diff headers).
        kind: report kind tag (``campaign``/``figures``/...).
        trajectories: optional ``{spec.label(): series}`` trajectory
            payloads; when given, every point embeds one (empty for a
            label without a series).
        saturation: optional saturation-scan block(s)
            (:meth:`~repro.experiments.trajectory.SaturationScan.to_dict`).

    Returns:
        A schema-``REPORT_SCHEMA`` report document.
    """
    entries = []
    for spec in points:
        entry = point_payload(spec, results[spec])
        if trajectories is not None:
            entry["trajectory"] = dict(trajectories.get(spec.label(), {}))
        entries.append(entry)
    report = {
        "schema": REPORT_SCHEMA,
        "kind": kind,
        "name": name,
        "metric_names": list(METRICS),
        "points": entries,
    }
    if saturation is not None:
        report["saturation"] = saturation
    return report


def point_payload(spec: PointSpec, result: PointResult) -> dict:
    """One point's report entry: identity key + means + summaries.

    Tolerates a plain mean mapping in place of a :class:`PointResult`
    (then no summaries are embedded and the differ degrades to
    mean-only classification for the point).
    """
    return {
        "key": spec.key(),
        "label": spec.label(),
        "workload": spec.workload,
        "load": spec.load,
        "alloc": spec.alloc,
        "sched": spec.sched,
        "metrics": dict(result),
        "stats": {
            m: s.to_dict() for m, s in getattr(result, "stats", {}).items()
        },
        "replications": getattr(result, "replications", 0),
    }


@dataclass(frozen=True, slots=True)
class ReportPoint:
    """One parsed report point (identity + metric summaries + series)."""

    key: str
    label: str
    metrics: Mapping[str, float]
    stats: Mapping[str, MetricSummary]
    replications: int
    #: grid coordinates, when the report carries them (schema >= 2 does)
    workload: str | None = None
    load: float | None = None
    alloc: str | None = None
    sched: str | None = None
    #: embedded trajectory series (schema 3); empty when none recorded
    trajectory: Mapping[str, list] = field(default_factory=dict)

    def summary(self, metric: str) -> MetricSummary:
        """The metric's replication summary; a mean-only report entry
        degrades to a deterministic single observation (n=1), which the
        comparator classifies by relative delta alone."""
        hit = self.stats.get(metric)
        if hit is not None:
            return hit
        return MetricSummary(mean=self.metrics[metric], variance=0.0, n=1)


@dataclass(frozen=True, slots=True)
class LoadedReport:
    """A parsed, validated ``--out`` report."""

    name: str
    kind: str
    source: str
    points: tuple[ReportPoint, ...]
    #: the report's saturation-scan block(s), verbatim (schema 3)
    saturation: Mapping | Sequence | None = None

    def by_key(self) -> dict[str, ReportPoint]:
        """Index the points by their structured cache key."""
        return {p.key: p for p in self.points}

    def metric_names(self) -> tuple[str, ...]:
        """Every metric name any point carries, in first-seen order."""
        seen: dict[str, None] = {}
        for p in self.points:
            for m in p.metrics:
                seen.setdefault(m)
        return tuple(seen)


def parse_report(data, source: str = "<dict>") -> LoadedReport:
    """Validate a report document; raises :class:`DiffError` on any
    malformation, with the offending file named."""
    if not isinstance(data, Mapping):
        raise DiffError(f"{source}: report must be a JSON object")
    schema = data.get("schema")
    if schema is None:
        raise DiffError(
            f"{source}: no 'schema' field -- this report predates "
            "repro 1.3; regenerate it with a current --out"
        )
    if (not isinstance(schema, int) or schema < MIN_REPORT_SCHEMA
            or schema > REPORT_SCHEMA):
        raise DiffError(
            f"{source}: unsupported report schema {schema!r} (this build "
            f"reads schemas {MIN_REPORT_SCHEMA}..{REPORT_SCHEMA})"
        )
    raw_points = data.get("points")
    if not isinstance(raw_points, list):
        raise DiffError(f"{source}: report has no 'points' list")
    points = []
    for i, entry in enumerate(raw_points):
        where = f"{source}: points[{i}]"
        if not isinstance(entry, Mapping):
            raise DiffError(f"{where} must be an object")
        key = entry.get("key")
        metrics = entry.get("metrics")
        if not isinstance(key, str) or not key:
            raise DiffError(f"{where} is missing its point 'key'")
        if not isinstance(metrics, Mapping) or not metrics:
            raise DiffError(f"{where} is missing its 'metrics'")
        try:
            parsed_metrics = {m: float(v) for m, v in metrics.items()}
            stats = {
                m: MetricSummary.from_dict(s)
                for m, s in entry.get("stats", {}).items()
            }
        except (TypeError, ValueError, KeyError) as exc:
            raise DiffError(f"{where} has malformed values: {exc}") from None
        trajectory = entry.get("trajectory")
        if trajectory is not None and not isinstance(trajectory, Mapping):
            raise DiffError(f"{where} has a non-object 'trajectory'")
        if trajectory:
            # a malformed trajectory must be a parse error (exit 2), not
            # a traceback from inside the differ (which exit-1s under
            # --fail-on-regress and would read as a fake regression)
            times = trajectory.get("times")
            if not isinstance(times, list):
                raise DiffError(
                    f"{where} trajectory has no 'times' list"
                )
            for series_name, series_values in trajectory.items():
                if (not isinstance(series_values, list)
                        or len(series_values) != len(times)):
                    raise DiffError(
                        f"{where} trajectory series {series_name!r} is "
                        f"not a list parallel to 'times' "
                        f"({len(times)} samples)"
                    )
        load = entry.get("load")
        points.append(ReportPoint(
            key=key,
            label=str(entry.get("label", key)),
            metrics=parsed_metrics,
            stats=stats,
            replications=int(entry.get("replications", 0)),
            workload=entry.get("workload"),
            load=float(load) if load is not None else None,
            alloc=entry.get("alloc"),
            sched=entry.get("sched"),
            trajectory=dict(trajectory) if trajectory else {},
        ))
    name = data.get("name")
    if not isinstance(name, str) or not name:
        scenario = data.get("scenario")
        name = (
            scenario.get("name", source)
            if isinstance(scenario, Mapping) else source
        )
    return LoadedReport(
        name=str(name),
        kind=str(data.get("kind", "report")),
        source=source,
        points=tuple(points),
        saturation=data.get("saturation"),
    )


def load_report(path: str | Path) -> LoadedReport:
    """Read + parse a report file; :class:`DiffError` on any failure."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise DiffError(f"cannot read report {p}: {exc}") from None
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DiffError(f"{p}: not valid JSON ({exc})") from None
    return parse_report(data, source=str(p))


# --------------------------------------------------------------- the differ
@dataclass(frozen=True, slots=True)
class PointDiff:
    """All metric (and trajectory) comparisons of one matched point."""

    key: str
    label: str
    comparisons: Mapping[str, MetricComparison]
    #: per-series trajectory diffs (``None``: trajectories not compared)
    series: Mapping[str, SeriesDiff] | None = None

    @property
    def verdict(self) -> str:
        """Worst verdict across metrics *and* trajectory series
        (regressed > improved > ... > identical); a diverged series
        counts as ``regressed``."""
        verdicts = [c.verdict for c in self.comparisons.values()]
        if self.series:
            from repro.experiments.trajectory import trajectory_verdict

            verdicts.append(trajectory_verdict(self.series))
        return worst_verdict(verdicts)

    def to_dict(self) -> dict:
        """JSON-serializable diff entry for this point."""
        out = {
            "key": self.key,
            "label": self.label,
            "verdict": self.verdict,
            "metrics": {
                m: c.to_dict() for m, c in self.comparisons.items()
            },
        }
        if self.series is not None:
            out["trajectory"] = {
                name: d.to_dict() for name, d in self.series.items()
            }
        return out


@dataclass(frozen=True, slots=True)
class DiffReport:
    """The full A-vs-B comparison: verdict tables + unmatched points."""

    a: LoadedReport
    b: LoadedReport
    matched: tuple[PointDiff, ...]
    only_a: tuple[ReportPoint, ...]
    only_b: tuple[ReportPoint, ...]
    metrics: tuple[str, ...]
    alpha: float
    rel_tol: float
    #: whether trajectory series were compared (``--trajectories``)
    trajectories: bool = False
    traj_atol: float = 0.0
    traj_rtol: float = 0.0
    #: matched points skipped because a side lacked embedded series
    traj_skipped: tuple[str, ...] = ()

    @property
    def verdict(self) -> str:
        """The report-level verdict: the worst point verdict."""
        return worst_verdict(p.verdict for p in self.matched)

    @property
    def regressions(self) -> tuple[PointDiff, ...]:
        """Matched points whose verdict is ``regressed``."""
        return tuple(p for p in self.matched if p.verdict == REGRESSED)

    def verdict_counts(self) -> dict[str, int]:
        """Per-metric verdict histogram across all matched points."""
        counts: dict[str, int] = {}
        for point in self.matched:
            for comp in point.comparisons.values():
                counts[comp.verdict] = counts.get(comp.verdict, 0) + 1
        return counts

    def series_verdict_counts(self) -> dict[str, int]:
        """Per-series verdict histogram across all compared trajectories."""
        counts: dict[str, int] = {}
        for point in self.matched:
            for d in (point.series or {}).values():
                counts[d.verdict] = counts.get(d.verdict, 0) + 1
        return counts

    def warnings(self) -> list[str]:
        """Non-fatal alignment problems, human-readable."""
        out = []
        if self.traj_skipped:
            out.append(
                f"{len(self.traj_skipped)} matched point(s) lack embedded "
                "trajectories on at least one side: "
                + ", ".join(self.traj_skipped[:4])
                + (" ..." if len(self.traj_skipped) > 4 else "")
            )
        if self.only_a:
            out.append(
                f"{len(self.only_a)} point(s) only in A ({self.a.name}): "
                + ", ".join(p.label for p in self.only_a[:4])
                + (" ..." if len(self.only_a) > 4 else "")
            )
        if self.only_b:
            out.append(
                f"{len(self.only_b)} point(s) only in B ({self.b.name}): "
                + ", ".join(p.label for p in self.only_b[:4])
                + (" ..." if len(self.only_b) > 4 else "")
            )
        return out

    def to_dict(self) -> dict:
        """The machine-readable diff report (``diff --out``)."""
        out = {
            "schema": REPORT_SCHEMA,
            "kind": "diff",
            "a": {"name": self.a.name, "source": self.a.source},
            "b": {"name": self.b.name, "source": self.b.source},
            "alpha": self.alpha,
            "rel_tol": self.rel_tol,
            "metrics": list(self.metrics),
            "verdict": self.verdict,
            "verdict_counts": self.verdict_counts(),
            "points": [p.to_dict() for p in self.matched],
            "only_a": [p.label for p in self.only_a],
            "only_b": [p.label for p in self.only_b],
        }
        if self.trajectories:
            out["trajectories"] = {
                "atol": self.traj_atol,
                "rtol": self.traj_rtol,
                "verdict_counts": self.series_verdict_counts(),
                "skipped": list(self.traj_skipped),
            }
        return out

    def format(self) -> str:
        """Human-readable verdict table.

        One line per matched point; metrics that are not ``identical``
        get an evidence line (means, relative delta, p-value)."""
        lines = [
            f"DIFF {self.a.name} vs {self.b.name}: "
            f"{len(self.matched)} matched point(s), "
            f"alpha={self.alpha:g}, rel_tol={self.rel_tol:g}"
        ]
        for point in self.matched:
            lines.append(f"  {point.label}: {point.verdict}")
            for m in self.metrics:
                comp = point.comparisons.get(m)
                if comp is None or comp.verdict == IDENTICAL:
                    continue
                p_txt = (
                    f"p={comp.p_value:.4g}" if comp.p_value is not None
                    else "deterministic"
                )
                lines.append(
                    f"    {m}: {comp.a.mean:.6g} -> {comp.b.mean:.6g} "
                    f"({comp.relative_delta:+.3%}, {p_txt}) {comp.verdict}"
                )
            for name, d in (point.series or {}).items():
                if d.verdict == "identical":
                    continue
                lines.append(
                    f"    trajectory {name}: max|Δ|={d.max_abs:.6g} "
                    f"at t={d.max_at:g}, area={d.area:.6g}, "
                    f"{d.exceedances} sample(s) out of band -> {d.verdict}"
                )
        counts = self.verdict_counts()
        lines.append(
            "verdicts: " + (
                " ".join(f"{k}={v}" for k, v in sorted(counts.items()))
                or "none (no metrics compared)"
            )
        )
        if self.trajectories:
            scounts = self.series_verdict_counts()
            lines.append(
                "trajectory verdicts: " + (
                    " ".join(f"{k}={v}" for k, v in sorted(scounts.items()))
                    or "none (no series compared)"
                )
            )
        return "\n".join(lines)


def diff_reports(
    a: LoadedReport,
    b: LoadedReport,
    metrics: Sequence[str] | None = None,
    alpha: float = 0.05,
    rel_tol: float = 0.0,
    trajectories: bool = False,
    traj_atol: float = 0.0,
    traj_rtol: float = 0.0,
) -> DiffReport:
    """Align two reports by point key and classify every shared metric.

    ``metrics`` restricts the comparison (default: every metric the two
    reports share); a name that is unknown -- or missing from either
    report, globally or on any matched point -- raises
    :class:`DiffError`, so an explicit watch-list can never pass
    vacuously.  Grid subset/superset is tolerated -- unmatched points
    are carried in the result's ``only_a``/``only_b``, never silently
    dropped.

    With ``trajectories=True`` every matched point that embeds series
    on both sides is additionally compared shape-wise
    (:func:`repro.experiments.trajectory.diff_trajectories`, band
    ``traj_atol + traj_rtol * |baseline|`` per sample); points lacking
    series on a side are warned about, and if *no* matched point can be
    compared the call raises -- a trajectory gate must never pass
    vacuously.
    """
    if not 0.0 < alpha < 1.0:
        raise DiffError(f"alpha must be in (0, 1), got {alpha}")
    # NaN passes any ``x < 0`` test and an infinite band passes every
    # sample, so a tolerance must be finite as well as non-negative
    if not (math.isfinite(rel_tol) and rel_tol >= 0.0):
        raise DiffError(f"rel_tol must be finite and >= 0, got {rel_tol}")
    for name, tol in (("traj_atol", traj_atol), ("traj_rtol", traj_rtol)):
        if not (math.isfinite(tol) and tol >= 0.0):
            raise DiffError(f"{name} must be finite and >= 0, got {tol}")
    a_names = set(a.metric_names())
    b_names = set(b.metric_names())
    if metrics:
        # an explicitly requested metric must exist on BOTH sides: a
        # gate told to watch a metric must never pass because the
        # metric quietly vanished from one report
        missing = [
            m for m in metrics if m not in a_names or m not in b_names
        ]
        if missing:
            carriers = {
                m: [r.name for r, names in ((a, a_names), (b, b_names))
                    if m in names]
                for m in missing
            }
            raise DiffError(
                f"metric(s) {missing} not present in both reports "
                f"(carried by: {carriers}); "
                f"shared metrics: {sorted(a_names & b_names)}"
            )
        selected = tuple(metrics)
    else:
        selected = tuple(m for m in a.metric_names() if m in b_names)
    a_points = a.by_key()
    b_points = b.by_key()
    matched = []
    traj_skipped: list[str] = []
    traj_compared = 0
    for key, pa in a_points.items():
        pb = b_points.get(key)
        if pb is None:
            continue
        comparisons = {}
        for m in selected:
            if m in pa.metrics and m in pb.metrics:
                comparisons[m] = compare_metric(
                    m, pa.summary(m), pb.summary(m),
                    alpha=alpha, rel_tol=rel_tol,
                )
            elif metrics:
                raise DiffError(
                    f"requested metric {m!r} is missing from point "
                    f"{pa.label!r} in one of the reports"
                )
        series = None
        if trajectories:
            if pa.trajectory.get("times") and pb.trajectory.get("times"):
                from repro.experiments.trajectory import diff_trajectories

                try:
                    series = diff_trajectories(
                        pa.trajectory, pb.trajectory,
                        atol=traj_atol, rtol=traj_rtol,
                    )
                except ValueError as exc:
                    # e.g. a non-increasing 'times' axis: malformed
                    # data, not a regression
                    raise DiffError(
                        f"point {pa.label!r} has a malformed "
                        f"trajectory: {exc}"
                    ) from None
                traj_compared += 1
            else:
                traj_skipped.append(pa.label)
        matched.append(PointDiff(
            key=key, label=pa.label, comparisons=comparisons, series=series,
        ))
    if trajectories and matched and not traj_compared:
        raise DiffError(
            "--trajectories requested but no matched point embeds series "
            "on both sides; regenerate the reports from a scenario with "
            "'sample_interval' set"
        )
    only_a = tuple(p for k, p in a_points.items() if k not in b_points)
    only_b = tuple(p for k, p in b_points.items() if k not in a_points)
    return DiffReport(
        a=a,
        b=b,
        matched=tuple(matched),
        only_a=only_a,
        only_b=only_b,
        metrics=selected,
        alpha=alpha,
        rel_tol=rel_tol,
        trajectories=trajectories,
        traj_atol=traj_atol,
        traj_rtol=traj_rtol,
        traj_skipped=tuple(traj_skipped),
    )
