"""Auto-saturation acceptance: the detected knee must reproduce the
paper's pinned ``SATURATION_LOADS`` constants within one ladder step,
and the scan must land in ``--out`` reports."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.experiments import campaign
from repro.experiments.figures import SATURATION_LOADS, sweep_ceiling
from repro.experiments.scenario import Scenario
from repro.experiments.trajectory import (
    run_saturation_figure,
    scan_saturation,
)


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    from repro.experiments.store import reset_global_cache

    reset_global_cache()
    yield
    reset_global_cache()


def test_sweep_ceiling_tops_each_workload_sweep():
    assert sweep_ceiling("uniform") == 0.013
    assert sweep_ceiling("exponential") == 0.02
    assert sweep_ceiling("real") == 0.06
    with pytest.raises(KeyError):
        sweep_ceiling("real | thin:0.5")


def test_fig9_knee_matches_paper_constant_within_one_step():
    """The tentpole acceptance: --auto-saturation reproduces the pinned
    uniform saturation load on the fig9 cell within one ladder step."""
    scan = scan_saturation("uniform", scale="smoke")
    assert scan.saturated
    knee = scan.knee
    # the ladder step at the knee bounds the allowed discrepancy
    step = scan.loads[scan.knee_index] - scan.loads[scan.knee_index - 1]
    assert abs(knee - SATURATION_LOADS["uniform"]) <= step
    # the scan stopped at the knee instead of exhausting the ladder
    assert scan.knee_index == len(scan.loads) - 1


def test_scan_records_ladder_evidence():
    scan = scan_saturation("uniform", scale="smoke")
    doc = scan.to_dict()
    assert doc["knee"] == scan.knee
    assert doc["loads"] == list(scan.loads)
    assert len(doc["utilization"]) == len(doc["loads"])
    assert "knee" in scan.format() or "saturation" in scan.format()


def test_run_saturation_figure_uses_detected_load():
    figure, scan, points = run_saturation_figure("fig9", scale="smoke")
    assert figure.loads == (scan.knee,)
    assert set(figure.series) == {
        "GABL(FCFS)", "Paging(0)(FCFS)", "MBS(FCFS)",
        "GABL(SSD)", "Paging(0)(SSD)", "MBS(SSD)",
    }
    assert len(points) == 6
    with pytest.raises(ValueError, match="load-sweep figure"):
        run_saturation_figure("fig3", scale="smoke")


def test_cli_auto_saturation_fig9_report(tmp_path, capsys):
    """CLI acceptance: the detected knee appears in the --out report."""
    out = tmp_path / "fig9.json"
    rc = main(["fig9", "--auto-saturation", "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert "saturation scan" in stdout
    assert "detected saturation load" in stdout
    doc = json.loads(out.read_text())
    assert doc["schema"] == 3
    scan = doc["saturation"][0]
    assert scan["figure"] == "fig9"
    assert scan["saturated"] is True
    assert scan["knee"] == pytest.approx(
        SATURATION_LOADS["uniform"], rel=0.15
    )
    assert len(doc["points"]) == 6


def test_cli_auto_saturation_scenario_report(tmp_path, capsys):
    scenario = tmp_path / "s.json"
    scenario.write_text(json.dumps({
        "name": "sat",
        "workload": "uniform",
        "loads": [0.013],
        "config": {"seed": 11},
    }))
    out = tmp_path / "report.json"
    rc = main([
        "scenario", str(scenario), "--auto-saturation", "--out", str(out),
    ])
    assert rc == 0
    doc = json.loads(out.read_text())
    scan = doc["saturation"]
    assert scan["saturated"] is True
    # the knee load joined the simulated grid
    assert scan["knee"] in doc["scenario"]["loads"]
    assert any(p["load"] == scan["knee"] for p in doc["points"])


@pytest.fixture
def resolved_kinds(monkeypatch):
    """Every executor kind a campaign run resolves to."""
    real = campaign._resolve_executor_kind
    kinds: list[str] = []

    def spy(*args, **kwargs):
        kinds.append(real(*args, **kwargs))
        return kinds[-1]

    monkeypatch.setattr(campaign, "_resolve_executor_kind", spy)
    return kinds


def test_cli_auto_saturation_honours_executor(resolved_kinds, capsys):
    """Every scan rung and figure cell runs on the requested executor."""
    rc = main(["fig9", "--auto-saturation", "-j", "2", "--executor", "serial"])
    assert rc == 0
    assert resolved_kinds and set(resolved_kinds) == {"serial"}


def test_scenario_auto_saturation_honours_executor(resolved_kinds):
    scenario = Scenario.from_dict({
        "name": "sat", "workload": "uniform", "loads": [0.013],
        "config": {"seed": 11},
    })
    result = scenario.run(jobs=2, auto_saturation=True, executor="serial")
    assert result.saturation is not None
    assert resolved_kinds and set(resolved_kinds) == {"serial"}
