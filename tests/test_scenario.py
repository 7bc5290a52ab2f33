"""Tests for the declarative scenario subsystem (and its acceptance
criteria: identity scenarios alias the figure campaigns' cache cells
bit-for-bit, and parallel scenario runs match serial ones)."""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro.core.config import PAPER_CONFIG
from repro.experiments.campaign import Campaign, run_spec_replication
from repro.experiments.figures import FIGURES
from repro.experiments.scenario import Scenario
from repro.experiments.store import ResultCache

EXAMPLE = Path(__file__).resolve().parent.parent / "examples" / "scenario_smoke.json"

SMALL = {
    "name": "unit",
    "workload": "uniform",
    "loads": [0.02],
    "config": {"width": 8, "length": 8, "seed": 7},
    "scale": "smoke",
}


@pytest.fixture(autouse=True)
def isolated_cache(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
    from repro.experiments.store import reset_global_cache

    reset_global_cache()
    yield
    reset_global_cache()


class TestScenarioSpec:
    def test_roundtrip_and_canonicalisation(self):
        sc = Scenario.from_dict({
            **SMALL, "workload": "real*0.5 | thin:0.8 + uniform",
        })
        assert sc.workload == "real | scale:0.5 | thin:0.8 + uniform"
        clone = Scenario.from_json(json.dumps(sc.to_dict()))
        assert clone.to_dict() == sc.to_dict()
        assert clone.fingerprint() == sc.fingerprint()

    def test_rejects_unknown_keys_and_bad_values(self, tmp_path, capsys):
        with pytest.raises(ValueError, match="unknown scenario key"):
            Scenario.from_dict({**SMALL, "typo": 1})
        with pytest.raises(ValueError, match="missing required"):
            Scenario.from_dict({"name": "x"})
        with pytest.raises(ValueError, match="SimConfig"):
            Scenario.from_dict({**SMALL, "config": {"nonsense": 3}})
        with pytest.raises(ValueError):
            Scenario.from_dict({**SMALL, "loads": []})
        with pytest.raises(ValueError):
            Scenario.from_dict({**SMALL, "sample_interval": -1.0})
        # every bad field raises ValueError at LOAD time (the CLI maps it
        # to exit code 2), never a KeyError from inside a worker
        with pytest.raises(ValueError, match="scale"):
            Scenario.from_dict({**SMALL, "scale": "warp9"})
        with pytest.raises(ValueError, match="allocator"):
            Scenario.from_dict({**SMALL, "allocs": ["BOGUS"]})
        with pytest.raises(ValueError, match="scheduler"):
            Scenario.from_dict({**SMALL, "scheds": ["LIFO"]})
        with pytest.raises(ValueError, match="network mode"):
            Scenario.from_dict({
                **SMALL, "config": {**SMALL["config"], "network_mode": "quantum"},
            })
        # the network mode is a config field like any other: a top-level
        # key is unknown, and the CLI exits 2 on it
        doc = {**SMALL, "network_mode": "fast"}
        with pytest.raises(ValueError, match=r"unknown scenario key.*network_mode"):
            Scenario.from_dict(doc)
        from repro.cli import main

        bad = tmp_path / "top-level-mode.json"
        bad.write_text(json.dumps(doc))
        assert main(["scenario", str(bad)]) == 2
        assert "unknown scenario key" in capsys.readouterr().err

    @pytest.mark.parametrize("override,match", [
        # Paging(2) pages are 4x4: they fit a 4x4 probe mesh but not
        # the paper's 16x22 one
        ({"config": {"seed": 7}, "allocs": ["Paging(2)"]}, "divisible"),
        ({"loads": [-0.5]}, "load"),
        ({"loads": [0.0]}, "load"),
        ({"loads": [float("inf")]}, "load"),
        ({"loads": [float("nan")]}, "load"),
        ({"config": {"width": 8, "length": 8, "topology": "torus",
                     "network_mode": "sfb"}}, "torus"),
        # malformed field types fail here too, never with a TypeError
        # traceback at load time or mid-run
        ({"sample_interval": "a"}, "sample_interval"),
        ({"sample_interval": float("nan")}, "sample_interval"),
        ({"allocs": [5]}, "allocator"),
        ({"scheds": [None]}, "scheduler"),
        ({"config": {"max_time": "z"}}, "max_time"),
        ({"config": {"max_time": 0}}, "max_time"),
        ({"config": {"width": 1.5}}, "width"),
        ({"config": {"seed": True}}, "seed"),
        ({"config": {"t_s": float("inf")}}, "t_s"),
    ], ids=["paging-miss", "negative", "zero", "inf", "nan", "sfb-torus",
            "interval-str", "interval-nan", "alloc-int", "sched-null",
            "max-time-str", "max-time-zero", "width-float", "seed-bool",
            "t_s-inf"])
    def test_rejects_points_that_cannot_run(
        self, override, match, tmp_path, capsys
    ):
        """Bad points fail at load time, and the CLI exits 2 with one
        stderr line."""
        from repro.cli import main

        doc = {**SMALL, **override}
        with pytest.raises(ValueError, match=match):
            Scenario.from_dict(doc)
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(doc))
        assert main(["scenario", str(bad)]) == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("bad scenario file ")

    def test_float_args_keep_full_precision(self):
        sc1 = Scenario.from_dict({**SMALL, "workload": "uniform | thin:0.1234567"})
        sc2 = Scenario.from_dict({**SMALL, "workload": "uniform | thin:0.1234571"})
        assert sc1.workload != sc2.workload
        assert sc1.campaign().points[0].key() != sc2.campaign().points[0].key()

    def test_config_overrides_apply(self):
        sc = Scenario.from_dict(SMALL)
        cfg = sc.sim_config()
        assert (cfg.width, cfg.length, cfg.seed) == (8, 8, 7)
        assert cfg.t_s == PAPER_CONFIG.t_s  # untouched fields keep defaults

    def test_points_fold_pipeline_into_cache_key(self):
        plain = Scenario.from_dict(SMALL).campaign().points[0]
        piped = Scenario.from_dict(
            {**SMALL, "workload": "uniform | thin:0.9"}
        ).campaign().points[0]
        assert plain.key() != piped.key()
        assert '"workload":"uniform | thin:0.9"' in piped.key()


class TestIdentityAcceptance:
    """Identity scenario == the figure campaigns, bit for bit."""

    @pytest.mark.parametrize("fig_id,workload", [("fig2", "real"), ("fig3", "uniform")])
    def test_identity_scenario_aliases_figure_cells(self, fig_id, workload):
        spec = FIGURES[fig_id]
        scenario = Scenario(
            name=f"identity-{fig_id}",
            workload=workload,
            loads=spec.loads_for("smoke"),
            allocs=("GABL", "Paging(0)", "MBS"),
            scheds=("FCFS", "SSD"),
            scale="smoke",
        )
        fig_campaign = Campaign.from_figures((fig_id,), scale="smoke")
        scenario_keys = {p.key() for p in scenario.campaign().points}
        figure_keys = {p.key() for p in fig_campaign.points}
        # same cells -> the sharded store hands the scenario the very
        # RunResult-derived metrics the figure campaign computed
        assert scenario_keys == figure_keys

    def test_identity_pipeline_replication_is_bit_identical(self):
        """'real | scale:1' runs a different cache cell than 'real' but
        must produce the exact same metrics."""
        base = Scenario.from_dict(
            {**SMALL, "workload": "real"}).campaign().points[0]
        ident = Scenario.from_dict(
            {**SMALL, "workload": "real | scale:1"}).campaign().points[0]
        assert base.key() != ident.key()
        assert run_spec_replication(base, seed=7) == run_spec_replication(
            ident, seed=7
        )


class TestScenarioRun:
    def test_run_caches_and_reports(self, tmp_path):
        sc = Scenario.from_dict({**SMALL, "sample_interval": 64.0})
        cache = ResultCache(tmp_path / "c1")
        res = sc.run(cache=cache)
        assert len(res.points) == 1
        label = res.points[0].label()
        assert res.metrics[res.points[0]]["mean_turnaround"] > 0
        traj = res.trajectories[label]
        assert traj["times"][0] == 0.0
        assert len(traj["utilization"]) == len(traj["times"])
        # second run is served from the store
        res2 = sc.run(cache=cache)
        assert res2.metrics[res2.points[0]] == res.metrics[res.points[0]]
        report = res.to_dict()
        assert report["points"][0]["metrics"]["utilization"] >= 0
        assert report["fingerprint"] == sc.fingerprint()
        assert label in res.format()

    def test_example_scenario_parallel_matches_serial(self, tmp_path):
        """Acceptance: the committed example (LoadScale + Merge +
        trajectory) runs end to end, and -j 2 equals serial."""
        sc = Scenario.load(EXAMPLE)
        assert "scale:0.5" in sc.workload and "+" in sc.workload
        assert sc.sample_interval is not None
        serial = sc.run(jobs=1, cache=ResultCache(tmp_path / "serial"))
        parallel = sc.run(jobs=2, cache=ResultCache(tmp_path / "parallel"))
        assert serial.points == parallel.points
        for spec in serial.points:
            assert serial.metrics[spec] == parallel.metrics[spec]


class TestScenarioCLI:
    def test_cli_scenario_target(self, capsys, tmp_path):
        out = tmp_path / "report.json"
        from repro.cli import main

        rc = main(["scenario", str(EXAMPLE), "--out", str(out)])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "SCENARIO smoke-mixed" in printed
        assert "trajectory:" in printed
        report = json.loads(out.read_text())
        assert len(report["points"]) == 2
        assert report["points"][0]["trajectory"]["times"]

    def test_cli_scenario_requires_file(self, capsys):
        from repro.cli import main

        assert main(["scenario"]) == 2
        assert "requires" in capsys.readouterr().err

    def test_cli_scenario_bad_file(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "bad.json"
        bad.write_text("{\"name\": \"x\"}")
        assert main(["scenario", str(bad)]) == 2
        assert "bad scenario file" in capsys.readouterr().err

    def test_cli_out_per_file_with_multiple_scenarios(self, tmp_path, capsys):
        """--out with several files writes one report per scenario."""
        from repro.cli import main

        other = tmp_path / "other.json"
        other.write_text(json.dumps({**SMALL, "name": "other"}))
        out = tmp_path / "rep.json"
        rc = main(["scenario", str(EXAMPLE), str(other), "--out", str(out)])
        assert rc == 0
        assert (tmp_path / "rep-smoke-mixed.json").exists()
        assert (tmp_path / "rep-other.json").exists()
        assert not out.exists()

    def test_trajectory_pool_ships_external_trace(self, tmp_path):
        """sample_interval + external trace + jobs>1 resolves the trace
        through the worker initializer."""
        from repro.workload.trace import TraceJob

        trace = [
            TraceJob(arrival=float(i * 20), size=(i % 6) + 1, runtime=15.0)
            for i in range(40)
        ]
        sc = Scenario.from_dict({
            **SMALL, "workload": "real", "allocs": ["GABL", "MBS"],
            "sample_interval": 64.0,
        })
        serial = sc.run(jobs=1, cache=ResultCache(tmp_path / "s"), trace=trace)
        pooled = sc.run(jobs=2, cache=ResultCache(tmp_path / "p"), trace=trace)
        assert serial.trajectories == pooled.trajectories
        assert serial.metrics == {
            spec: pooled.metrics[spec] for spec in pooled.points
        }

    def test_out_of_range_transform_args_fail_at_load(self):
        for bad in ("uniform | thin:0", "uniform | scale:-1", "real*-0.5"):
            with pytest.raises(ValueError):
                Scenario.from_dict({**SMALL, "workload": bad})

    def test_cli_scenario_bad_alloc_exits_cleanly(self, tmp_path, capsys):
        from repro.cli import main

        bad = tmp_path / "badalloc.json"
        bad.write_text(json.dumps({**SMALL, "allocs": ["BOGUS"]}))
        assert main(["scenario", str(bad)]) == 2
        assert "allocator" in capsys.readouterr().err

    def test_cli_flags_override_scenario_file(self, capsys):
        """Explicit --network-mode/--topology flags apply to the run."""
        from repro.cli import main

        rc = main([
            "scenario", str(EXAMPLE), "--network-mode", "fast",
            "--topology", "torus",
        ])
        assert rc == 0
        captured = capsys.readouterr()
        assert "SCENARIO smoke-mixed" in captured.out
        assert "network=fast" in captured.err
        assert "topology=torus" in captured.err

    def test_override_replace_revalidates(self):
        import dataclasses

        sc = Scenario.load(EXAMPLE)
        over = dataclasses.replace(
            sc, config={**sc.config, "topology": "torus", "network_mode": "fast"},
        )
        assert over.sim_config().topology == "torus"
        assert all(
            p.config.network_mode == "fast" for p in over.campaign().points
        )
        with pytest.raises(ValueError):
            dataclasses.replace(sc, scale="warp9")


LOSSY_EXAMPLE = EXAMPLE.parent / "scenario_lossy.json"


def _standalone_series(spec, interval):
    """Replication 0 of ``spec`` run on its own with an observer."""
    from repro.core.hooks import TrajectoryObserver
    from repro.experiments.campaign import build_simulator

    cfg = spec.config
    observer = TrajectoryObserver(interval, processors=cfg.processors)
    build_simulator(spec, cfg.seed, observers=(observer,)).run()
    return observer.series()


@pytest.fixture
def builds(monkeypatch):
    """Count every simulator the campaign machinery builds in-process."""
    from repro.experiments import campaign

    calls = []
    real = campaign.build_simulator

    def counting(spec, seed, *args, **kwargs):
        calls.append((spec, seed))
        return real(spec, seed, *args, **kwargs)

    monkeypatch.setattr(campaign, "build_simulator", counting)
    return calls


class TestTrajectoryPersistence:
    """Trajectories come from the campaign's own replication 0 and
    persist in the store under an interval-specific derived key."""

    @pytest.mark.parametrize("executor,engine", [
        ("serial", "reference"), ("thread", "reference"),
        ("process", "reference"), ("serial", "soa"),
    ])
    def test_campaign_series_equals_standalone_run(
        self, tmp_path, executor, engine
    ):
        sc = Scenario.from_dict({
            **SMALL, "scale": "quick", "allocs": ["GABL", "MBS"],
            "config": {**SMALL["config"], "engine": engine},
            "sample_interval": 64.0,
        })
        res = sc.run(jobs=2, cache=ResultCache(tmp_path), executor=executor)
        plain = Scenario.from_dict({**sc.to_dict(), "sample_interval": None})
        bare = plain.run(cache=ResultCache(tmp_path / "bare"))
        for spec in res.points:
            assert res.trajectories[spec.label()] == _standalone_series(spec, 64.0)
            assert res.metrics[spec] == bare.metrics[spec]

    def test_smoke_example_on_soa_matches_standalone(self, tmp_path):
        sc = Scenario.load(EXAMPLE)
        sc = Scenario.from_dict(
            {**sc.to_dict(), "config": {**sc.config, "engine": "soa"}}
        )
        res = sc.run(cache=ResultCache(tmp_path))
        for spec in res.points:
            assert res.trajectories[spec.label()] == _standalone_series(
                spec, sc.sample_interval
            )

    def test_warm_lossy_rerun_builds_no_simulator(self, tmp_path, builds):
        sc = Scenario.load(LOSSY_EXAMPLE)
        cold = sc.run(cache=ResultCache(tmp_path))
        assert len(builds) == sum(
            cold.metrics[spec].replications for spec in cold.points
        )
        builds.clear()
        warm = sc.run(cache=ResultCache(tmp_path))  # fresh store: disk reads
        assert builds == []
        assert warm == cold
        assert warm.to_dict() == cold.to_dict()

    def test_interval_shards_are_never_crossed(self, tmp_path, builds):
        from repro.experiments.campaign import trajectory_key

        base = {**SMALL, "allocs": ["GABL", "MBS"]}
        at64 = Scenario.from_dict({**base, "sample_interval": 64.0})
        at32 = Scenario.from_dict({**base, "sample_interval": 32})
        r64 = at64.run(cache=ResultCache(tmp_path))
        builds.clear()
        r32 = at32.run(cache=ResultCache(tmp_path))
        # metrics are hits, each 32-shard is a miss filled once per point
        assert [spec for spec, _ in builds] == list(r32.points)
        for spec in r32.points:
            t32 = r32.trajectories[spec.label()]
            assert t32 == _standalone_series(spec, 32.0)
            assert t32 != r64.trajectories[spec.label()]
            disk = ResultCache(tmp_path)
            assert disk.get(trajectory_key(spec, 64.0)) == r64.trajectories[
                spec.label()
            ]
            assert disk.get(trajectory_key(spec, 32)) == t32
        assert trajectory_key(r32.points[0], 32) == trajectory_key(
            r32.points[0], 32.0
        )

    def test_plain_campaign_store_fills_each_miss_once(self, tmp_path, builds):
        sc = Scenario.from_dict({
            **SMALL, "allocs": ["GABL", "MBS"], "sample_interval": 64.0,
        })
        sc.campaign().run(cache=ResultCache(tmp_path))
        builds.clear()
        first = sc.run(cache=ResultCache(tmp_path))
        assert sorted(builds, key=repr) == sorted(
            ((spec, spec.config.seed) for spec in first.points), key=repr
        )
        builds.clear()
        second = sc.run(cache=ResultCache(tmp_path))
        assert builds == []
        assert second == first

    def test_metric_shard_is_unchanged_by_sampling(self, tmp_path):
        from repro.experiments.store import _shard_name

        doc = {**SMALL, "scale": "quick"}
        with_iv = Scenario.from_dict({**doc, "sample_interval": 64.0})
        without = Scenario.from_dict(doc)
        with_iv.run(cache=ResultCache(tmp_path / "a"))
        without.run(cache=ResultCache(tmp_path / "b"))
        for spec in without.campaign().points:
            name = _shard_name(spec.key())
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()
