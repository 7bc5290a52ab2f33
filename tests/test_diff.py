"""Tests for the report differ (experiments/diff.py) and the ``repro
diff`` CLI target: alignment by point key, verdict classification,
grid-mismatch tolerance, schema validation and CI exit codes."""

from __future__ import annotations

import json
import math
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.diff import (
    REPORT_SCHEMA,
    DiffError,
    diff_reports,
    load_report,
    parse_report,
)

METRIC_NAMES = ("mean_turnaround", "utilization")


def make_point(key, turnaround=100.0, utilization=0.5, n=1, variance=0.0):
    return {
        "key": key,
        "label": f"label-{key}",
        "metrics": {"mean_turnaround": turnaround, "utilization": utilization},
        "stats": {
            "mean_turnaround": {
                "mean": turnaround, "variance": variance, "n": n,
            },
            "utilization": {"mean": utilization, "variance": 0.0, "n": n},
        },
        "replications": n,
    }


def make_report(points, name="test") -> dict:
    return {
        "schema": REPORT_SCHEMA,
        "kind": "campaign",
        "name": name,
        "metric_names": list(METRIC_NAMES),
        "points": points,
    }


def write(tmp_path: Path, name: str, doc) -> Path:
    p = tmp_path / name
    p.write_text(json.dumps(doc))
    return p


class TestParseReport:
    def test_round_trip(self, tmp_path):
        path = write(tmp_path, "r.json", make_report([make_point("k1")]))
        rep = load_report(path)
        assert rep.name == "test"
        assert rep.points[0].key == "k1"
        assert rep.points[0].summary("mean_turnaround").mean == 100.0
        assert rep.metric_names() == METRIC_NAMES

    def test_missing_file(self, tmp_path):
        with pytest.raises(DiffError, match="cannot read"):
            load_report(tmp_path / "nope.json")

    def test_not_json(self, tmp_path):
        p = tmp_path / "bad.json"
        p.write_text("{not json")
        with pytest.raises(DiffError, match="not valid JSON"):
            load_report(p)

    def test_old_schema_rejected_with_guidance(self):
        # a pre-1.3 scenario report: no "schema", no point keys
        old = {"scenario": {"name": "x"}, "points": [
            {"label": "a", "metrics": {"m": 1.0}},
        ]}
        with pytest.raises(DiffError, match="predates"):
            parse_report(old, source="old.json")

    def test_unsupported_schema_number(self):
        doc = make_report([make_point("k")])
        doc["schema"] = REPORT_SCHEMA + 1
        with pytest.raises(DiffError, match="unsupported report schema"):
            parse_report(doc)

    def test_malformed_points(self):
        for mutate in (
            lambda d: d.pop("points"),
            lambda d: d.__setitem__("points", "zap"),
            lambda d: d["points"][0].pop("key"),
            lambda d: d["points"][0].pop("metrics"),
            lambda d: d["points"][0].__setitem__(
                "stats", {"m": {"mean": "NaNsense"}}
            ),
        ):
            doc = make_report([make_point("k")])
            mutate(doc)
            with pytest.raises(DiffError):
                parse_report(doc)

    def test_top_level_must_be_object(self):
        with pytest.raises(DiffError, match="JSON object"):
            parse_report([1, 2, 3])

    def test_scenario_name_fallback(self):
        doc = make_report([make_point("k")])
        del doc["name"]
        doc["scenario"] = {"name": "from-scenario"}
        assert parse_report(doc).name == "from-scenario"

    def test_mean_only_point_degrades_to_deterministic(self):
        doc = make_report([{
            "key": "k", "label": "k", "metrics": {"mean_turnaround": 5.0},
        }])
        point = parse_report(doc).points[0]
        s = point.summary("mean_turnaround")
        assert (s.mean, s.variance, s.n) == (5.0, 0.0, 1)


class TestDiffReports:
    def test_identical_reports(self, tmp_path):
        a = parse_report(make_report([make_point("k1"), make_point("k2")]))
        b = parse_report(make_report([make_point("k1"), make_point("k2")]))
        report = diff_reports(a, b)
        assert report.verdict == "identical"
        assert len(report.matched) == 2
        assert report.verdict_counts() == {"identical": 4}
        assert not report.regressions and not report.warnings()

    def test_regression_detected_with_orientation(self):
        a = parse_report(make_report([make_point("k1")]))
        b = parse_report(make_report(
            [make_point("k1", turnaround=110.0, utilization=0.6)]
        ))
        report = diff_reports(a, b)
        point = report.matched[0]
        assert point.comparisons["mean_turnaround"].verdict == "regressed"
        assert point.comparisons["utilization"].verdict == "improved"
        assert point.verdict == "regressed"  # worst wins
        assert report.regressions

    def test_welch_indistinguishable_on_noisy_points(self):
        a = parse_report(make_report(
            [make_point("k1", turnaround=100.0, n=5, variance=400.0)]
        ))
        b = parse_report(make_report(
            [make_point("k1", turnaround=104.0, n=5, variance=400.0)]
        ))
        comp = diff_reports(a, b).matched[0].comparisons["mean_turnaround"]
        assert comp.verdict == "indistinguishable"
        assert comp.p_value is not None and comp.p_value > 0.05

    def test_grid_subset_superset(self):
        a = parse_report(make_report([make_point("k1"), make_point("k2")]))
        b = parse_report(make_report([make_point("k2"), make_point("k3")]))
        report = diff_reports(a, b)
        assert [p.key for p in report.matched] == ["k2"]
        assert [p.key for p in report.only_a] == ["k1"]
        assert [p.key for p in report.only_b] == ["k3"]
        assert len(report.warnings()) == 2

    def test_metric_filter(self):
        a = parse_report(make_report([make_point("k1")]))
        b = parse_report(make_report([make_point("k1", turnaround=200.0)]))
        report = diff_reports(a, b, metrics=["utilization"])
        assert report.metrics == ("utilization",)
        assert report.verdict == "identical"  # the regression is filtered out
        with pytest.raises(DiffError, match="not present in both"):
            diff_reports(a, b, metrics=["bogus"])

    def test_metric_filter_cannot_pass_vacuously(self):
        """A watched metric missing from one report is an error, never a
        silent 'identical' gate pass."""
        a = parse_report(make_report([make_point("k1")]))
        stripped = make_report([make_point("k1")])
        del stripped["points"][0]["metrics"]["mean_turnaround"]
        del stripped["points"][0]["stats"]["mean_turnaround"]
        b = parse_report(stripped)
        with pytest.raises(DiffError, match="not present in both"):
            diff_reports(a, b, metrics=["mean_turnaround"])
        # without the filter the shared metrics still compare fine
        assert diff_reports(a, b).metrics == ("utilization",)

    def test_metric_filter_missing_on_one_point_is_an_error(self):
        a = parse_report(make_report([make_point("k1"), make_point("k2")]))
        ragged = make_report([make_point("k1"), make_point("k2")])
        del ragged["points"][1]["metrics"]["mean_turnaround"]
        b = parse_report(ragged)
        with pytest.raises(DiffError, match="missing from point"):
            diff_reports(a, b, metrics=["mean_turnaround"])

    def test_bad_alpha_and_rel_tol_are_diff_errors(self):
        a = parse_report(make_report([make_point("k1")]))
        with pytest.raises(DiffError, match="alpha"):
            diff_reports(a, a, alpha=1.5)
        with pytest.raises(DiffError, match="rel_tol"):
            diff_reports(a, a, rel_tol=-0.1)

    @pytest.mark.parametrize("value", [math.nan, math.inf])
    @pytest.mark.parametrize("name", ["rel_tol", "traj_atol", "traj_rtol"])
    def test_non_finite_tolerances_are_diff_errors(self, name, value):
        a = parse_report(make_report([make_point("k1")]))
        with pytest.raises(DiffError, match=f"{name} must be finite"):
            diff_reports(a, a, **{name: value})

    def test_rel_tol_dead_band(self):
        a = parse_report(make_report([make_point("k1", turnaround=100.0)]))
        b = parse_report(make_report([make_point("k1", turnaround=100.2)]))
        assert diff_reports(a, b).verdict == "regressed"
        assert diff_reports(a, b, rel_tol=0.01).verdict == "indistinguishable"

    def test_to_dict_is_json_ready(self):
        a = parse_report(make_report([make_point("k1")]))
        b = parse_report(make_report([make_point("k1", turnaround=150.0)]))
        doc = json.loads(json.dumps(diff_reports(a, b).to_dict()))
        assert doc["verdict"] == "regressed"
        assert doc["points"][0]["metrics"]["mean_turnaround"]["verdict"] == (
            "regressed"
        )


class TestDiffCLI:
    def test_wrong_arity(self, tmp_path, capsys):
        assert main(["diff"]) == 2
        assert "exactly two" in capsys.readouterr().err
        p = write(tmp_path, "a.json", make_report([make_point("k")]))
        assert main(["diff", str(p)]) == 2
        assert main(["diff", str(p), str(p), str(p)]) == 2

    def test_cannot_combine_with_other_targets(self, tmp_path, capsys):
        p = write(tmp_path, "a.json", make_report([make_point("k")]))
        assert main(["fig9", "diff", str(p), str(p)]) == 2
        assert "combined" in capsys.readouterr().err

    def test_identical_exit_zero(self, tmp_path, capsys):
        p = write(tmp_path, "a.json", make_report([make_point("k")]))
        assert main(["diff", str(p), str(p), "--fail-on-regress"]) == 0
        assert "identical" in capsys.readouterr().out

    def test_fail_on_regress_exit_codes(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", make_report([make_point("k")]))
        b = write(
            tmp_path, "b.json",
            make_report([make_point("k", turnaround=120.0)]),
        )
        assert main(["diff", str(a), str(b)]) == 0
        assert main(["diff", str(a), str(b), "--fail-on-regress"]) == 1
        assert "FAIL" in capsys.readouterr().err
        # improvements never gate
        assert main(["diff", str(b), str(a), "--fail-on-regress"]) == 0

    def test_malformed_and_old_schema_exit_two(self, tmp_path, capsys):
        good = write(tmp_path, "good.json", make_report([make_point("k")]))
        bad = tmp_path / "bad.json"
        bad.write_text("{oops")
        assert main(["diff", str(good), str(bad)]) == 2
        assert "not valid JSON" in capsys.readouterr().err
        old = write(tmp_path, "old.json", {"points": []})
        assert main(["diff", str(good), str(old)]) == 2
        assert "predates" in capsys.readouterr().err
        assert main(["diff", str(good), str(tmp_path / "gone.json")]) == 2

    def test_disjoint_grids_exit_two(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", make_report([make_point("k1")]))
        b = write(tmp_path, "b.json", make_report([make_point("k2")]))
        assert main(["diff", str(a), str(b)]) == 2
        assert "share no points" in capsys.readouterr().err

    def test_mismatched_grid_warning_but_exit_zero(self, tmp_path, capsys):
        a = write(tmp_path, "a.json",
                  make_report([make_point("k1"), make_point("k2")]))
        b = write(tmp_path, "b.json", make_report([make_point("k1")]))
        assert main(["diff", str(a), str(b), "--fail-on-regress"]) == 0
        err = capsys.readouterr().err
        assert "only in A" in err

    def test_metric_filter_and_alpha(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", make_report([make_point("k")]))
        b = write(tmp_path, "b.json",
                  make_report([make_point("k", turnaround=120.0)]))
        rc = main(["diff", str(a), str(b), "--metric", "utilization",
                   "--fail-on-regress"])
        assert rc == 0  # regression filtered out
        assert main(["diff", str(a), str(b), "--metric", "bogus"]) == 2
        assert "not present in both" in capsys.readouterr().err
        assert main(["diff", str(a), str(b), "--alpha", "0.01",
                     "--rel-tol", "0.5"]) == 0

    def test_bad_alpha_exits_two_not_one(self, tmp_path, capsys):
        """A typo'd flag must read as 'usage error' (2), never as a
        metric regression (1) -- even under --fail-on-regress."""
        a = write(tmp_path, "a.json", make_report([make_point("k")]))
        rc = main(["diff", str(a), str(a), "--alpha", "1.5",
                   "--fail-on-regress"])
        assert rc == 2
        assert "alpha" in capsys.readouterr().err
        rc = main(["diff", str(a), str(a), "--rel-tol", "-3"])
        assert rc == 2
        assert "rel_tol" in capsys.readouterr().err

    def test_out_writes_machine_readable_diff(self, tmp_path, capsys):
        a = write(tmp_path, "a.json", make_report([make_point("k")]))
        b = write(tmp_path, "b.json",
                  make_report([make_point("k", turnaround=120.0)]))
        out = tmp_path / "diff.json"
        assert main(["diff", str(a), str(b), "--out", str(out)]) == 0
        doc = json.loads(out.read_text())
        assert doc["kind"] == "diff"
        assert doc["verdict"] == "regressed"
        assert doc["verdict_counts"]["regressed"] == 1
