"""Golden-master regression harness.

``tests/golden/*.json`` are frozen ``--out`` reports (see the README
there).  These tests re-run the same experiments from scratch and assert
``repro diff`` verdict ``identical`` -- bit-for-bit equality of every
metric mean -- then prove the harness has teeth by perturbing a metric
and requiring ``regressed`` plus a nonzero exit under
``--fail-on-regress`` (the acceptance path the CI gate relies on).
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.cli import main
from repro.experiments.diff import diff_reports, load_report

GOLDEN = Path(__file__).resolve().parent / "golden"
EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / "scenario_smoke.json"
LOSSY_CELL = GOLDEN / "lossy_cell.scenario.json"
LOSSY_OFFGRID = GOLDEN / "lossy_offgrid.scenario.json"
LOSSY_EVENT = GOLDEN / "lossy_event.scenario.json"


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Fresh result store: golden runs must re-simulate, not replay."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "cache"))
    from repro.experiments.store import reset_global_cache

    reset_global_cache()
    yield
    reset_global_cache()


def _assert_all_identical(golden: Path, fresh: Path) -> None:
    report = diff_reports(load_report(golden), load_report(fresh))
    assert report.matched, "reports did not align on any point"
    assert not report.only_a and not report.only_b
    for point in report.matched:
        for comp in point.comparisons.values():
            assert comp.verdict == "identical", (
                f"{point.label} {comp.metric}: "
                f"{comp.a.mean!r} -> {comp.b.mean!r} ({comp.verdict})"
            )


def test_scenario_smoke_matches_golden(tmp_path):
    fresh = tmp_path / "fresh.json"
    assert main(["scenario", str(EXAMPLE), "--out", str(fresh)]) == 0
    _assert_all_identical(GOLDEN / "scenario_smoke.json", fresh)
    # and the CLI gate agrees, with exit code 0 -- including the
    # trajectory gate: a deterministic rerun pins the run *shape* too
    assert main([
        "diff", str(GOLDEN / "scenario_smoke.json"), str(fresh),
        "--trajectories", "--fail-on-regress",
    ]) == 0
    _assert_trajectories_identical(GOLDEN / "scenario_smoke.json", fresh)


def _assert_trajectories_identical(golden: Path, fresh: Path) -> None:
    report = diff_reports(
        load_report(golden), load_report(fresh), trajectories=True,
    )
    for point in report.matched:
        assert point.series, f"{point.label}: no trajectory compared"
        for name, d in point.series.items():
            assert d.verdict == "identical", (
                f"{point.label} trajectory {name}: {d.verdict} "
                f"(max|Δ|={d.max_abs} at t={d.max_at})"
            )


def test_scenario_lossy_cell_matches_golden(tmp_path):
    """Every ARQ protocol over both fate paths (block draws without a
    random delay, scalar draws interleaved with exp delays), bit for bit."""
    fresh = tmp_path / "fresh.json"
    assert main(["scenario", str(LOSSY_CELL), "--out", str(fresh)]) == 0
    golden = GOLDEN / "scenario_lossy_cell.json"
    _assert_all_identical(golden, fresh)
    assert main([
        "diff", str(golden), str(fresh), "--trajectories", "--fail-on-regress",
    ]) == 0
    _assert_trajectories_identical(golden, fresh)


def test_scenario_lossy_offgrid_matches_golden(tmp_path):
    """``t_s = 0.3`` puts delivery times off the time grid, so a
    per-packet latency sum taken in another order than arrival order
    moves ``mean_packet_latency`` in its last bits; the grid-exact
    lossy cell above cannot see that."""
    fresh = tmp_path / "fresh.json"
    assert main(["scenario", str(LOSSY_OFFGRID), "--out", str(fresh)]) == 0
    golden = GOLDEN / "scenario_lossy_offgrid.json"
    _assert_all_identical(golden, fresh)
    assert main([
        "diff", str(golden), str(fresh), "--trajectories", "--fail-on-regress",
    ]) == 0
    _assert_trajectories_identical(golden, fresh)


def test_scenario_lossy_event_matches_golden(tmp_path):
    """The event-driven lossy path (``ChannelledEventLaunch`` on the
    ``causal`` backend) under every ARQ protocol, with block-drawn fates
    and with fates interleaved with exp delays, bit for bit."""
    fresh = tmp_path / "fresh.json"
    assert main(["scenario", str(LOSSY_EVENT), "--out", str(fresh)]) == 0
    golden = GOLDEN / "scenario_lossy_event.json"
    _assert_all_identical(golden, fresh)
    assert main([
        "diff", str(golden), str(fresh), "--trajectories", "--fail-on-regress",
    ]) == 0
    _assert_trajectories_identical(golden, fresh)


def test_fig9_cell_matches_golden(tmp_path):
    fresh = tmp_path / "fresh.json"
    assert main([
        "sweep", "--workloads", "uniform", "--loads", "0.03",
        "--allocs", "GABL", "--scheds", "FCFS", "--scale", "smoke",
        "--out", str(fresh),
    ]) == 0
    _assert_all_identical(GOLDEN / "fig9_cell.json", fresh)
    assert main([
        "diff", str(GOLDEN / "fig9_cell.json"), str(fresh),
        "--fail-on-regress",
    ]) == 0


def test_perturbed_metric_regresses_and_gates(tmp_path, capsys):
    """Injecting drift into a frozen report MUST trip the gate."""
    golden = GOLDEN / "scenario_smoke.json"
    perturbed = tmp_path / "perturbed.json"
    doc = json.loads(golden.read_text())
    point = doc["points"][0]
    point["metrics"]["mean_turnaround"] *= 1.05
    point["stats"]["mean_turnaround"]["mean"] *= 1.05
    perturbed.write_text(json.dumps(doc))

    rc = main(["diff", str(golden), str(perturbed), "--fail-on-regress"])
    out = capsys.readouterr()
    assert rc == 1
    assert "regressed" in out.out
    assert "FAIL" in out.err
    # without the gate flag the diff still reports, but exits 0
    assert main(["diff", str(golden), str(perturbed)]) == 0
    # an *improvement* (turnaround down) must not trip --fail-on-regress
    doc["points"][0]["metrics"]["mean_turnaround"] /= 1.1025
    doc["points"][0]["stats"]["mean_turnaround"]["mean"] /= 1.1025
    perturbed.write_text(json.dumps(doc))
    assert main(["diff", str(golden), str(perturbed), "--fail-on-regress"]) == 0


def test_perturbed_trajectory_sample_gates(tmp_path, capsys):
    """A mid-series wiggle too small to move any run mean is invisible
    to the scalar diff but MUST trip the trajectory gate with exit 1."""
    golden = GOLDEN / "scenario_smoke.json"
    perturbed = tmp_path / "perturbed.json"
    doc = json.loads(golden.read_text())
    series = doc["points"][0]["trajectory"]["utilization"]
    series[len(series) // 2] += 1e-3  # one sample, metrics untouched
    perturbed.write_text(json.dumps(doc))

    # scalar gate: blind to the shape change
    assert main(["diff", str(golden), str(perturbed), "--fail-on-regress"]) == 0
    capsys.readouterr()
    # trajectory gate: catches it, exit 1
    rc = main([
        "diff", str(golden), str(perturbed),
        "--trajectories", "--fail-on-regress",
    ])
    out = capsys.readouterr()
    assert rc == 1
    assert "diverged" in out.out
    assert "FAIL" in out.err
    # a tolerance band wide enough to absorb the wiggle passes again
    assert main([
        "diff", str(golden), str(perturbed),
        "--trajectories", "--traj-atol", "0.01", "--fail-on-regress",
    ]) == 0


@pytest.mark.parametrize("flag", [
    ("--traj-rtol", "nan"),
    ("--traj-atol", "nan"),
    ("--traj-atol", "inf"),
    ("--rel-tol", "nan"),
    ("--rel-tol", "inf"),
])
def test_non_finite_tolerance_is_a_usage_error(tmp_path, capsys, flag):
    """NaN passes an ``x < 0`` check and an infinite band passes every
    sample: either would let a diverged trajectory through the gate."""
    golden = GOLDEN / "scenario_smoke.json"
    diverged = tmp_path / "diverged.json"
    doc = json.loads(golden.read_text())
    doc["points"][0]["trajectory"]["queue_length"][1] += 50
    diverged.write_text(json.dumps(doc))
    base = ["diff", str(golden), str(diverged),
            "--trajectories", "--fail-on-regress"]
    assert main(base) == 1
    capsys.readouterr()
    assert main([*base, *flag]) == 2
    out = capsys.readouterr()
    assert out.out == ""
    assert len(out.err.strip().splitlines()) == 1
    assert "finite" in out.err
