"""Tests for the trajectory analysis layer (repro.experiments.trajectory)
and the ``repro plot`` rendering (repro.experiments.plot)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.experiments.diff import (
    DiffError,
    diff_reports,
    load_report,
    parse_report,
)
from repro.experiments.plot import (
    Chart,
    ascii_chart,
    plot_report,
    report_charts,
)
from repro.experiments.trajectory import (
    diff_trajectories,
    trajectory_verdict,
)

GOLDEN = Path(__file__).resolve().parent / "golden"


def _traj(times, **series):
    return {"times": list(times), **{k: list(v) for k, v in series.items()}}


class TestDiffTrajectories:
    def test_identical_payloads(self):
        t = _traj([0.0, 1.0], utilization=[0.5, 0.6], queue_length=[1, 2])
        diffs = diff_trajectories(t, t)
        assert set(diffs) == {"utilization", "queue_length"}
        assert all(d.verdict == "identical" for d in diffs.values())
        assert trajectory_verdict(diffs) == "identical"

    def test_divergence_maps_to_regressed(self):
        a = _traj([0.0, 1.0], utilization=[0.5, 0.6])
        b = _traj([0.0, 1.0], utilization=[0.5, 0.8])
        diffs = diff_trajectories(a, b)
        assert diffs["utilization"].verdict == "diverged"
        assert trajectory_verdict(diffs) == "regressed"

    def test_band_maps_to_indistinguishable(self):
        a = _traj([0.0, 1.0], utilization=[0.5, 0.6])
        b = _traj([0.0, 1.0], utilization=[0.5, 0.62])
        diffs = diff_trajectories(a, b, atol=0.05)
        assert trajectory_verdict(diffs) == "indistinguishable"

    def test_only_shared_series_compared(self):
        a = _traj([0.0], utilization=[0.5], busy=[3])
        b = _traj([0.0], utilization=[0.5], completed=[1])
        assert set(diff_trajectories(a, b)) == {"utilization"}

    def test_empty_when_a_side_has_no_times(self):
        a = _traj([0.0], utilization=[0.5])
        assert diff_trajectories(a, {}) == {}
        assert diff_trajectories({}, a) == {}
        assert trajectory_verdict({}) == "identical"


class TestReportTrajectoryDiff:
    def _report(self, util_b=None):
        """A minimal schema-3 two-report pair sharing one point."""
        def doc(util):
            return {
                "schema": 3,
                "name": "t",
                "points": [{
                    "key": "k1",
                    "label": "p1",
                    "workload": "uniform",
                    "load": 0.02,
                    "alloc": "GABL",
                    "sched": "FCFS",
                    "metrics": {"utilization": 0.5},
                    "trajectory": _traj(
                        [0.0, 64.0], utilization=util,
                    ),
                }],
            }
        a = parse_report(doc([0.5, 0.6]), source="a")
        b = parse_report(doc(util_b or [0.5, 0.6]), source="b")
        return a, b

    def test_identical_reports_stay_identical(self):
        report = diff_reports(*self._report(), trajectories=True)
        assert report.verdict == "identical"
        assert report.to_dict()["trajectories"]["verdict_counts"] == {
            "identical": 1,
        }

    def test_series_divergence_is_a_regression(self):
        report = diff_reports(
            *self._report(util_b=[0.5, 0.9]), trajectories=True
        )
        assert report.verdict == "regressed"
        assert len(report.regressions) == 1
        point = report.to_dict()["points"][0]
        assert point["trajectory"]["utilization"]["verdict"] == "diverged"
        assert "trajectory utilization" in report.format()

    def test_without_flag_series_are_ignored(self):
        report = diff_reports(*self._report(util_b=[0.5, 0.9]))
        assert report.verdict == "identical"
        assert "trajectories" not in report.to_dict()

    def test_vacuous_trajectory_gate_is_fatal(self):
        a, b = self._report()
        stripped = parse_report(
            {
                "schema": 3,
                "name": "t",
                "points": [{
                    "key": "k1", "label": "p1",
                    "metrics": {"utilization": 0.5},
                }],
            },
            source="stripped",
        )
        with pytest.raises(DiffError, match="no matched point embeds"):
            diff_reports(a, stripped, trajectories=True)

    def test_one_sided_trajectories_warn_but_compare_the_rest(self):
        doc_a = {
            "schema": 3, "name": "t",
            "points": [
                {
                    "key": "k1", "label": "p1",
                    "metrics": {"utilization": 0.5},
                    "trajectory": _traj([0.0], utilization=[0.5]),
                },
                {
                    "key": "k2", "label": "p2",
                    "metrics": {"utilization": 0.4},
                },
            ],
        }
        doc_b = json.loads(json.dumps(doc_a))
        report = diff_reports(
            parse_report(doc_a, "a"), parse_report(doc_b, "b"),
            trajectories=True,
        )
        assert report.traj_skipped == ("p2",)
        assert any("lack embedded trajectories" in w for w in report.warnings())


class TestMalformedTrajectories:
    def test_truncated_series_is_a_parse_error_not_a_regression(
        self, tmp_path, capsys
    ):
        """A trajectory series shorter than its times axis must exit 2
        (malformed report), never 1 (fake regression) or a traceback."""
        from repro.cli import main

        golden = GOLDEN / "scenario_smoke.json"
        broken = tmp_path / "broken.json"
        doc = json.loads(golden.read_text())
        doc["points"][0]["trajectory"]["utilization"] = [0.5] * 5
        broken.write_text(json.dumps(doc))
        rc = main([
            "diff", str(golden), str(broken),
            "--trajectories", "--fail-on-regress",
        ])
        assert rc == 2
        assert "not a list parallel to 'times'" in capsys.readouterr().err

    def test_missing_times_with_series_is_a_parse_error(self):
        with pytest.raises(DiffError, match="no 'times' list"):
            parse_report({
                "schema": 3, "name": "t",
                "points": [{
                    "key": "k", "label": "p",
                    "metrics": {"utilization": 0.5},
                    "trajectory": {"utilization": [0.5]},
                }],
            }, source="t")

    def test_non_increasing_times_becomes_diff_error(self):
        def rep(times):
            return parse_report({
                "schema": 3, "name": "t",
                "points": [{
                    "key": "k", "label": "p",
                    "metrics": {"utilization": 0.5},
                    "trajectory": _traj(times, utilization=[0.5, 0.6]),
                }],
            }, source="t")

        with pytest.raises(DiffError, match="malformed trajectory"):
            diff_reports(
                rep([0.0, 1.0]), rep([1.0, 1.0]), trajectories=True
            )


class TestGoldenReportRoundTrip:
    def test_golden_scenario_parses_with_trajectories(self):
        report = load_report(GOLDEN / "scenario_smoke.json")
        assert any(p.trajectory.get("times") for p in report.points)
        point = report.points[0]
        assert point.load == 0.02
        assert point.alloc == "GABL"
        assert len(point.trajectory["times"]) == len(
            point.trajectory["utilization"]
        )


class TestPlotRendering:
    def test_report_charts_defaults_on_golden(self):
        report = load_report(GOLDEN / "scenario_smoke.json")
        charts = report_charts(report)
        titles = [c.title for c in charts]
        assert "utilization vs. time" in titles
        assert "queue_length vs. time" in titles

    def test_explicit_metric_routing(self):
        report = load_report(GOLDEN / "scenario_smoke.json")
        charts = report_charts(report, metrics=["completed"])
        assert [c.title for c in charts] == ["completed vs. time"]

    def test_ascii_chart_render(self):
        chart = Chart(
            title="t", xlabel="x", ylabel="y",
            series={"s": ([0.0, 1.0, 2.0], [0.0, 1.0, 4.0])},
        )
        text = ascii_chart(chart, height=6, width=20)
        assert "t  [y: 0 .. 4]" in text
        assert "A = s" in text
        assert "x: x" in text

    def test_distinct_points_get_distinct_series(self):
        report = load_report(GOLDEN / "scenario_smoke.json")
        charts = report_charts(report, metrics=["utilization"])
        assert len(charts[0].series) == len(report.points)

    def test_compare_overlays_both_reports(self):
        report = load_report(GOLDEN / "scenario_smoke.json")
        charts = report_charts(report, compare=report)
        labels = list(charts[0].series)
        assert any(lbl.startswith("A:") for lbl in labels)
        assert any(lbl.startswith("B:") for lbl in labels)

    def test_plot_report_renders_text(self):
        report = load_report(GOLDEN / "scenario_smoke.json")
        text = plot_report(report)
        assert "utilization vs. time" in text

    def test_truncation_collisions_keep_series_distinct(self):
        """Labels differing only in their truncated middle must not
        merge into one curve or overwrite one another."""
        long_a = "real | scale:0.5 + uniform | thin:0.6"
        long_b = "real | scale:0.25 + uniform | thin:0.6"
        doc = {
            "schema": 3, "name": "t",
            "points": [
                {
                    "key": f"k{i}-{w}", "label": f"{w} load={ld:g} GABL(FCFS)",
                    "workload": w, "load": ld, "alloc": "GABL",
                    "sched": "FCFS",
                    "metrics": {"utilization": 0.5 + i / 10},
                }
                for w in (long_a, long_b)
                for i, ld in enumerate((0.01, 0.02))
            ],
        }
        report = parse_report(doc, source="t")
        charts = report_charts(report, metrics=["utilization"])
        assert len(charts) == 1
        series = charts[0].series
        assert len(series) == 2  # one curve per workload, none merged
        assert all(len(xs) == 2 for xs, _ in series.values())
        assert len(set(series)) == 2  # display labels stay distinct

    def test_png_not_written_for_empty_charts(self, tmp_path, capsys):
        report = parse_report(
            {
                "schema": 3, "name": "t",
                "points": [{
                    "key": "k", "label": "p",
                    "metrics": {"utilization": 0.5},
                }],
            },
            source="t",
        )
        png = tmp_path / "blank.png"
        text = plot_report(report, png=str(png))
        assert "nothing to plot" in text
        assert "PNG written" not in text
        assert not png.exists()
        assert "PNG not written" in capsys.readouterr().err

    def test_empty_report_notes_nothing_to_plot(self):
        report = parse_report(
            {
                "schema": 3, "name": "t",
                "points": [{
                    "key": "k", "label": "p",
                    "metrics": {"utilization": 0.5},
                }],
            },
            source="t",
        )
        assert "nothing to plot" in plot_report(report)
