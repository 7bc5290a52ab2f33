"""Tests for the command-line interface."""

import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.cli import main

REPO = Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    """Keep CLI runs away from the repo-level result cache."""
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    # reset the process-wide cache singleton between tests
    from repro.experiments.store import reset_global_cache

    reset_global_cache()
    yield
    reset_global_cache()


def test_point_command(capsys):
    rc = main([
        "point", "--workload", "uniform", "--load", "0.02",
        "--alloc", "GABL", "--sched", "FCFS", "--scale", "smoke",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "GABL(FCFS)" in out
    assert "turnaround=" in out


def test_point_accepts_pipeline_spec(capsys):
    rc = main([
        "point", "--workload", "uniform | thin:0.5", "--load", "0.02",
        "--scale", "smoke",
    ])
    assert rc == 0
    assert "uniform | thin:0.5" in capsys.readouterr().out


def test_point_rejects_bad_pipeline_spec(capsys):
    rc = main([
        "point", "--workload", "uniform | bogus:1", "--load", "0.02",
        "--scale", "smoke",
    ])
    assert rc == 2
    assert "bad point parameters" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["uniform | jitter:1e16", "uniform*1e20"])
def test_point_accepts_transform_arg_with_large_exponent(spec, capsys):
    """The canonical spec writes ``1e16``, not ``1e+16``, whose ``+``
    would split it into merge terms."""
    rc = main(["point", "--workload", spec, "--load", "0.02",
               "--scale", "smoke"])
    assert rc == 0
    assert capsys.readouterr().out.startswith(f"GABL(FCFS) {spec} load=")


@pytest.mark.parametrize("spec", ["uniform++real", "+uniform", "uniform+"])
def test_point_rejects_empty_merge_term(spec, capsys):
    rc = main(["point", "--workload", spec, "--load", "0.02",
               "--scale", "smoke"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [f"bad point parameters: empty merge term in {spec!r}"]


def test_point_rejects_out_of_range_transform_arg(capsys):
    rc = main([
        "point", "--workload", "uniform | thin:0", "--load", "0.02",
        "--scale", "smoke",
    ])
    assert rc == 2
    assert "bad point parameters" in capsys.readouterr().err


@pytest.mark.parametrize("spec", [
    "uniform|scale:nan", "uniform|scale:inf", "uniform|jitter:nan",
    "uniform|jitter:inf", "uniform|burst:inf", "uniform|burst:nan",
    "uniform*nan", "uniform*inf",
])
def test_point_rejects_non_finite_transform_arg(spec, capsys):
    """A NaN or infinite transform argument is a one-line exit 2, not a
    ``turnaround=nan`` point."""
    rc = main(["point", "--workload", spec, "--load", "0.02",
               "--scale", "smoke"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bad point parameters: ")
    assert "finite" in err[0]


def test_point_requires_args(capsys):
    rc = main(["point", "--scale", "smoke"])
    assert rc == 2
    assert "requires" in capsys.readouterr().err


#: malformed points: each must exit 2 with one stderr line, no traceback
MALFORMED_POINTS = {
    "negative-load": ["--load", "-1"],
    "zero-load": ["--load", "0"],
    "nan-load": ["--load", "nan"],
    "pages-overflow-mesh": ["--load", "0.02", "--alloc", "Paging(99)"],
    "sfb-on-torus": [
        "--load", "0.02", "--network-mode", "sfb", "--topology", "torus",
    ],
}


@pytest.mark.parametrize(
    "argv", MALFORMED_POINTS.values(), ids=MALFORMED_POINTS.keys()
)
def test_point_rejects_malformed_input(argv, capsys):
    rc = main(["point", "--workload", "uniform", "--scale", "smoke", *argv])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bad point parameters: ")


@pytest.mark.parametrize("spec", [
    "delay:fixed:inf", "delay:fixed:nan", "delay:exp:inf", "delay:exp:nan",
    "delay:uniform:0:inf",
])
def test_point_rejects_non_finite_delay(spec, capsys):
    rc = main([
        "point", "--workload", "uniform", "--load", "0.02", "--scale", "smoke",
        "--channel", spec, "--arq", "selective-repeat",
    ])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bad --channel/--arq: ")
    assert "finite" in err[0]


@pytest.mark.parametrize("argv", [
    ["--loads", "0.01", "--allocs", "Foo"],
    ["--loads", "0.01", "--scheds", "LIFO"],
    ["--loads", "-0.5"],
    ["--loads", "0.01", "--channels", "delay:exp:nan"],
    ["--loads", "0.02", "--workloads", "bogus"],
    ["--loads", "0.02", "--workloads", "uniform,unifrom"],
], ids=["unknown-alloc", "unknown-sched", "negative-load", "nan-delay",
        "unknown-workload", "misspelt-workload"])
def test_sweep_rejects_malformed_input(argv, capsys):
    rc = main(["sweep", "--workloads", "uniform", "--scale", "smoke", *argv])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert len(err) == 1 and err[0].startswith("bad sweep parameters: ")


def test_bad_repro_scale_exits_two(monkeypatch, capsys):
    monkeypatch.setenv("REPRO_SCALE", "huge")
    rc = main(["fig2"])
    assert rc == 2
    err = capsys.readouterr().err.splitlines()
    assert err == [
        "bad REPRO_SCALE: unknown scale 'huge'; "
        "choose from ['paper', 'quick', 'smoke']"
    ]


@pytest.mark.parametrize("value", ["nan", "inf"])
def test_non_finite_block_cache_budget_runs(value, monkeypatch, capsys):
    """A non-finite REPRO_BLOCK_CACHE_MB falls back to the default."""
    monkeypatch.setenv("REPRO_BLOCK_CACHE_MB", value)
    rc = main(["point", "--workload", "uniform", "--load", "0.02",
               "--scale", "smoke"])
    assert rc == 0
    assert "turnaround=" in capsys.readouterr().out


def test_point_infinite_load_exits_promptly():
    """An infinite load means zero interarrival time: endless arrivals
    at t=0.  Run it in a subprocess with a timeout so a regression
    fails instead of hanging the suite."""
    proc = subprocess.run(
        [sys.executable, "-m", "repro", "point", "--workload", "uniform",
         "--load", "inf", "--scale", "smoke"],
        env={**os.environ, "PYTHONPATH": str(REPO / "src"), "REPRO_CACHE": "0"},
        cwd=str(REPO), capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert proc.stderr.splitlines() == [
        "bad point parameters: load must be finite and > 0, got inf"
    ]


def test_unknown_target(capsys):
    rc = main(["fig99", "--scale", "smoke"])
    assert rc == 2
    assert "unknown target" in capsys.readouterr().err


def test_figure_command_smoke(capsys, monkeypatch):
    # shrink the work: figure on the paper mesh is slow, so reuse the
    # point cache across series by running the cheapest figure
    rc = main(["fig9", "--scale", "smoke"])
    assert rc == 0
    out = capsys.readouterr().out
    assert "FIG9" in out
    assert "GABL(SSD)" in out


def test_swf_option(tmp_path, capsys):
    swf = tmp_path / "t.swf"
    lines = [
        f"{i} {i * 50} 0 60 {(i % 5) + 1} -1 -1 {(i % 5) + 1} "
        "-1 -1 1 1 1 1 -1 -1 -1 -1"
        for i in range(1, 41)
    ]
    swf.write_text("\n".join(lines))
    rc = main([
        "point", "--workload", "real", "--load", "0.05",
        "--swf", str(swf), "--scale", "smoke",
    ])
    assert rc == 0
    out = capsys.readouterr().out
    assert "loaded 40 jobs" in out


@pytest.mark.parametrize("case", ["missing", "directory", "short", "empty", "one"])
def test_swf_option_rejects_bad_file(case, tmp_path, capsys):
    """A bad ``--swf`` is a one-line exit 2, never a traceback."""
    swf = tmp_path / "t.swf"
    if case == "directory":
        swf.mkdir()
    elif case == "short":
        swf.write_text("1 0 0\n")
    elif case == "empty":
        swf.write_text("; header only\n")
    elif case == "one":
        swf.write_text("1 0 0 60 4 -1 -1 4 -1 -1 1 1 1 1 -1 -1 -1 -1\n")
    rc = main(["fig2", "--scale", "smoke", "--swf", str(swf)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith(f"bad --swf {swf}: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


def test_version_flag(capsys):
    import repro

    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0
    assert repro.__version__ in capsys.readouterr().out


def test_network_mode_choices_include_batch(capsys):
    rc = main([
        "point", "--workload", "uniform", "--load", "0.02",
        "--network-mode", "batch", "--scale", "smoke",
    ])
    assert rc == 0
    assert "turnaround=" in capsys.readouterr().out


def test_claims_runs_under_the_config_flags(tmp_path, capsys):
    """`claims` simulates the machine the flags ask for: every point it
    stores is a torus point."""
    import json

    rc = main(["claims", "--topology", "torus", "--engine", "soa",
               "--scale", "smoke"])
    assert rc in (0, 1)  # 1 = some paper claim fails on a torus
    assert "C1" in capsys.readouterr().out
    shards = sorted((tmp_path / "results.shards").glob("*.json"))
    assert shards
    for shard in shards:
        key = json.loads(json.loads(shard.read_text())["key"])
        assert key["config"]["topology"] == "torus", key


# ------------------------------------------------------------ --help audit
#: every CLI target and the contract fragments its --help must name:
#: the report schema written by --out (where applicable) and the
#: documented exit codes
_HELP_CONTRACTS = {
    "fig9": ["schema-3", "figures report"],
    "all": ["text tables"],
    "claims": ["exit 0 all pass; 1 a claim failed"],
    "point": ["2 missing/bad parameters"],
    "sweep": ["schema-3 campaign report"],
    "scenario": ["schema-3 scenario report", "2 bad scenario file"],
    "diff": [
        "schema-3 diff report",
        "1 regression",
        "2 malformed/old-schema reports or disjoint",
    ],
    "plot": ["schema-2/3 report", "2 unreadable report"],
    "serve": ["resumes\n                     unfinished jobs", "0 on clean shutdown"],
    "submit": ["--wait polls until done", "2 bad file or unreachable service"],
    "status": ["2 unknown job or unreachable service"],
}


@pytest.mark.parametrize("target", sorted(_HELP_CONTRACTS))
def test_help_for_every_target_exits_zero_and_names_contract(
    target, capsys
):
    """`repro <target> --help` exits 0 and the help text documents the
    target's report schema and exit-code contract."""
    with pytest.raises(SystemExit) as exc:
        main([target, "--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    # figure ids appear as the fig2..fig16 range in the contract table
    assert (target in out) or (target.startswith("fig") and "fig2..fig16" in out)
    for fragment in _HELP_CONTRACTS[target]:
        assert fragment in out, f"--help lost {fragment!r} for {target}"


def test_help_names_out_schema_for_out_capable_targets(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--help"])
    assert exc.value.code == 0
    out = capsys.readouterr().out
    # the --out option itself names the current schema
    assert "schema-3" in out
    # and the schema history is summarised once
    assert "1 legacy" in out and "2 keys+stats" in out


# ------------------------------------------------------------- plot target
def test_plot_requires_exactly_one_report(capsys):
    assert main(["plot"]) == 2
    assert "exactly one report file" in capsys.readouterr().err
    assert main(["plot", "a.json", "b.json"]) == 2


def test_plot_rejects_unreadable_report(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    assert main(["plot", str(bad)]) == 2
    assert "plot error" in capsys.readouterr().err


def test_plot_golden_scenario_ascii(capsys):
    from pathlib import Path

    golden = Path(__file__).resolve().parent / "golden" / "scenario_smoke.json"
    rc = main(["plot", str(golden)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "utilization vs. time" in out
    assert "queue_length vs. time" in out
    assert "A = " in out


def test_plot_compare_and_png_flags(tmp_path, capsys):
    from pathlib import Path

    golden = Path(__file__).resolve().parent / "golden" / "scenario_smoke.json"
    png = tmp_path / "out.png"
    rc = main([
        "plot", str(golden), "--compare", str(golden),
        "--metric", "utilization", "--png", str(png),
    ])
    assert rc == 0
    captured = capsys.readouterr()
    assert "B:" in captured.out
    try:
        import matplotlib  # noqa: F401
    except ImportError:
        assert not png.exists()
        assert "matplotlib not importable" in captured.err
    else:
        assert png.exists()

def test_plot_cannot_combine_with_other_targets(capsys):
    assert main(["fig9", "plot", "x.json"]) == 2
    assert "cannot be combined" in capsys.readouterr().err
