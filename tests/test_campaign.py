"""Tests for the campaign engine: specs, dedup, executors, parallel
equivalence, and the sharded concurrency-safe result store."""

import json
import multiprocessing
import os
import subprocess
import sys
from concurrent import futures
from pathlib import Path

import pytest

from repro.core.config import SimConfig
from repro.core import _soa_native
from repro.experiments.campaign import (
    Campaign,
    PointResult,
    PointSpec,
    Scale,
    SerialExecutor,
    build_simulator,
    make_executor,
    run_spec_replication,
    trace_fingerprint,
)
from repro.workload.trace import TraceJob
from repro.experiments.runner import METRICS, run_figure, run_point
from repro.experiments.store import ResultCache

TINY = SimConfig(width=8, length=8, jobs=15, seed=11)
SMOKE = Scale.by_name("smoke")
#: two replications so the parallel path exercises batching
TWO_REPS = Scale("two", jobs=12, min_replications=2, max_replications=2,
                 trace_max_jobs=100)


def _spec(**overrides) -> PointSpec:
    base = dict(workload="uniform", load=0.01, alloc="GABL", sched="FCFS",
                scale=SMOKE, config=TINY)
    base.update(overrides)
    return PointSpec(**base)


class TestPointSpec:
    def test_key_is_structured_json(self):
        payload = json.loads(_spec().key())
        assert payload["workload"] == "uniform"
        assert payload["alloc"] == "GABL"
        assert payload["config"]["width"] == 8
        assert payload["config"]["jobs"] == SMOKE.jobs  # scale pins jobs
        # the exact bytes of a non-default network mode on a torus: the
        # top-level "network_mode" mirrors the config's, as stored keys,
        # golden masters and pinned digests expect
        spec = _spec(config=TINY.with_(topology="torus", network_mode="causal"))
        assert spec.key() == (
            '{"alloc":"GABL","config":{"jobs":120,"length":8,'
            '"max_messages":512,"max_time":null,"network_mode":"causal",'
            '"num_mes":5.0,"p_len":8,"round_gap_factor":2.0,'
            '"scheduler_window":1,"seed":11,"t_s":3.0,"topology":"torus",'
            '"trace_demand_multiplier":1.0,"warmup_jobs":0,"width":8},'
            '"load":0.01,"network_mode":"causal","replications":[1,1],'
            '"sched":"FCFS","trace_max_jobs":600,"trace_source":"sdsc",'
            '"workload":"uniform"}'
        )

    def test_key_cannot_alias_on_separator_fields(self):
        # a joined-string key would make these two cells identical
        a = _spec(alloc="A|B", sched="C")
        b = _spec(alloc="A", sched="B|C")
        assert a.key() != b.key()

    def test_key_ignores_user_jobs_override(self):
        # run job count comes from the scale, so configs differing only
        # in `jobs` are the same cell -- as specs AND as keys
        a = _spec(config=TINY.with_(jobs=50))
        b = _spec(config=TINY.with_(jobs=70))
        assert a.key() == b.key()
        assert a == b  # equality agrees with key(): dedup cannot strand
        assert a.config.jobs == SMOKE.jobs

    def test_trace_source_distinguishes_cells(self):
        assert _spec(workload="real").key() != \
            _spec(workload="real", trace_source="ext:abc").key()

    def test_different_traces_cannot_alias(self):
        t1 = [TraceJob(arrival=float(i * 5), size=2, runtime=30.0)
              for i in range(10)]
        t2 = [TraceJob(arrival=float(i * 5), size=2, runtime=60.0)
              for i in range(10)]
        f1, f2 = trace_fingerprint(t1), trace_fingerprint(t2)
        assert f1 != f2
        assert f1 == trace_fingerprint(list(t1))  # content-determined
        a = _spec(workload="real", trace_source=f1)
        b = _spec(workload="real", trace_source=f2)
        assert a.key() != b.key()

    def test_real_workload_is_deterministic_single_run(self):
        assert _spec(workload="real", scale=TWO_REPS).replication_bounds == (1, 1)
        assert _spec(scale=TWO_REPS).replication_bounds == (2, 2)

    def test_spec_is_hashable_and_picklable(self):
        import pickle

        spec = _spec()
        assert pickle.loads(pickle.dumps(spec)) == spec
        assert len({spec, _spec()}) == 1


class TestCampaignEnumeration:
    def test_dedup_within_campaign(self):
        c = Campaign([_spec(), _spec(), _spec(load=0.02)])
        assert len(c.points) == 2

    def test_figures_sharing_a_sweep_collapse(self):
        # figs 3 and 6 read the same uniform sweep (different metrics of
        # the same cells); fig9 adds its saturation load
        only3 = Campaign.from_figures(("fig3",))
        both = Campaign.from_figures(("fig3", "fig6"))
        plus9 = Campaign.from_figures(("fig3", "fig6", "fig9"))
        assert len(both.points) == len(only3.points) == 12
        assert len(plus9.points) == 18

    def test_sweep_grid(self):
        c = Campaign.sweep(["uniform", "exponential"], [0.01, 0.02],
                           ["GABL"], ["FCFS", "SSD"], scale="smoke")
        assert len(c.points) == 8


class TestExecutors:
    def test_make_executor(self):
        with make_executor(1) as serial:
            assert isinstance(serial, SerialExecutor)
        # auto (no spec knowledge): thread when the native SoA driver
        # is available, process otherwise
        with make_executor(4) as auto:
            if _soa_native.load_kernel() is not None:
                assert isinstance(auto, futures.ThreadPoolExecutor)
            else:
                assert isinstance(auto, futures.ProcessPoolExecutor)

    def test_make_executor_kinds(self):
        with make_executor(4, "serial") as exe:
            assert isinstance(exe, SerialExecutor)
        with make_executor(4, "thread") as exe:
            assert isinstance(exe, futures.ThreadPoolExecutor)
        with make_executor(4, "process") as exe:
            assert isinstance(exe, futures.ProcessPoolExecutor)
        # a process pool cannot run on one worker: degrades to serial
        with make_executor(1, "process") as exe:
            assert isinstance(exe, SerialExecutor)
        with pytest.raises(ValueError):
            make_executor(4, "fibers")

    def test_auto_prefers_process_for_reference_engine(self):
        # reference-engine points are pure Python (GIL-bound): a thread
        # pool would serialise them, so auto-selection must not pick it
        with make_executor(4, specs=(_spec(),)) as exe:
            assert isinstance(exe, futures.ProcessPoolExecutor)

    def test_serial_executor_has_the_futures_api(self):
        with SerialExecutor() as exe:
            assert list(exe.map(abs, (-1, 2, -3))) == [1, 2, 3]
            failed = exe.submit(int, "x")
        assert isinstance(failed.exception(), ValueError)
        exe.shutdown()  # idempotent, nothing to release

    def test_worker_function_is_picklable_task(self):
        out = run_spec_replication(_spec(), seed=TINY.seed)
        assert set(out) == set(METRICS)
        assert out["mean_turnaround"] > 0


class TestTraceRegistry:
    """A work unit finds an external trace through its spec's
    ``trace_source``; an explicit ``trace=`` still wins."""

    @staticmethod
    def _trace(widest: int) -> list[TraceJob]:
        return [TraceJob(arrival=float(i * 4), size=(i % widest) + 1,
                         runtime=25.0) for i in range(40)]

    def test_unregistered_external_trace_is_an_error(self):
        spec = _spec(workload="real", trace_source="ext:unregistered")
        with pytest.raises(RuntimeError, match="no external trace"):
            build_simulator(spec, seed=1)

    def test_campaign_registers_its_trace(self):
        t1, t2 = self._trace(4), self._trace(9)
        s1 = _spec(workload="real", trace_source=trace_fingerprint(t1))
        s2 = _spec(workload="real", trace_source=trace_fingerprint(t2))
        Campaign([s1], trace=t1)
        Campaign([s2], trace=t2)
        via_registry = run_spec_replication(s1, seed=3)
        assert via_registry == run_spec_replication(s2, seed=3, trace=t1)
        assert via_registry != run_spec_replication(s2, seed=3)


class TestParallelEquivalence:
    def _campaign(self) -> Campaign:
        return Campaign.sweep(["uniform"], [0.01, 0.02], ["GABL", "MBS"],
                              ["FCFS"], scale=TWO_REPS, config=TINY)

    def test_process_pool_matches_serial(self, tmp_path):
        """Same campaign, -j 1 vs -j 2: byte-identical metric dicts."""
        campaign = self._campaign()
        serial = campaign.run(jobs=1, cache=ResultCache(tmp_path / "serial"))
        parallel = campaign.run(jobs=2, cache=ResultCache(tmp_path / "pool"))
        assert {s.key(): v for s, v in serial.items()} == \
            {s.key(): v for s, v in parallel.items()}

    def test_run_point_parallel_matches_serial(self, tmp_path):
        kwargs = dict(scale=TWO_REPS, config=TINY)
        a = run_point("uniform", 0.01, "GABL", "FCFS",
                      cache=ResultCache(tmp_path / "a"), jobs=1, **kwargs)
        b = run_point("uniform", 0.01, "GABL", "FCFS",
                      cache=ResultCache(tmp_path / "b"), jobs=2, **kwargs)
        assert a == b

    def test_external_trace_parallel_matches_serial(self, tmp_path):
        # exercises the ship-trace-once pool initializer path
        trace = [TraceJob(arrival=float(i * 4), size=(i % 4) + 1, runtime=25.0)
                 for i in range(40)]
        kwargs = dict(scale=SMOKE, config=TINY, trace=trace)
        a = run_point("real", 0.05, "GABL", "FCFS",
                      cache=ResultCache(tmp_path / "a"), jobs=1, **kwargs)
        b = run_point("real", 0.05, "GABL", "FCFS",
                      cache=ResultCache(tmp_path / "b"), jobs=2, **kwargs)
        assert a == b

    def test_run_figure_jobs_param(self, tmp_path):
        a = run_figure("fig9", scale="smoke", config=TINY,
                       cache=ResultCache(tmp_path / "a"), jobs=1)
        b = run_figure("fig9", scale="smoke", config=TINY,
                       cache=ResultCache(tmp_path / "b"), jobs=2)
        assert a.series == b.series

    def test_campaign_results_hit_the_store(self, tmp_path):
        campaign = self._campaign()
        cache = ResultCache(tmp_path / "c")
        campaign.run(jobs=1, cache=cache)
        for spec in campaign.points:
            assert cache.get(spec.key()) is not None
        # a fresh run against the warm store simulates nothing and agrees
        again = campaign.run(jobs=1, cache=ResultCache(tmp_path / "c"))
        assert set(again) == set(campaign.points)


#: run in a fresh interpreter per start method: an external-trace point
#: and a trajectory scenario (whose observed replication-0 tasks run in
#: the workers) on a two-worker process pool must both equal the serial
#: run (spawn and forkserver workers inherit nothing,
#: so the trace reaches them only through the pool initializer)
_START_METHOD_PROBE = """
import json, multiprocessing, sys
from pathlib import Path

from repro.core.config import SimConfig
from repro.experiments.campaign import Scale
from repro.experiments.runner import run_point
from repro.experiments.scenario import Scenario
from repro.experiments.store import ResultCache
from repro.workload.trace import TraceJob

if __name__ == "__main__":
    multiprocessing.set_start_method(sys.argv[1])
    tmp = Path(sys.argv[2])
    trace = [TraceJob(arrival=float(i * 4), size=(i % 4) + 1, runtime=25.0)
             for i in range(40)]
    cfg = SimConfig(width=8, length=8, jobs=15, seed=11)
    scale = Scale.by_name("smoke")
    point = [
        run_point("real", 0.05, "GABL", "FCFS", scale=scale, config=cfg,
                  trace=trace, cache=ResultCache(tmp / f"point-{jobs}"),
                  jobs=jobs, executor="process")
        for jobs in (1, 2)
    ]
    scenario = Scenario.from_dict({
        "name": "start-method", "workload": "real", "loads": [0.05, 0.08],
        "allocs": ["GABL", "MBS"], "config": {"width": 8, "length": 8},
        "sample_interval": 64.0,
    })
    runs = [
        scenario.run(jobs=jobs, cache=ResultCache(tmp / f"scenario-{jobs}"),
                     trace=trace, executor="process").to_dict()
        for jobs in (1, 2)
    ]
    print(json.dumps({
        "method": multiprocessing.get_start_method(),
        "point": point[0] == point[1],
        "scenario": runs[0] == runs[1],
        "trajectories": all(p["trajectory"] for p in runs[1]["points"]),
    }))
"""


@pytest.mark.parametrize("method", ["spawn", "forkserver", "fork"])
def test_external_trace_process_pool_under_every_start_method(tmp_path, method):
    if method not in multiprocessing.get_all_start_methods():
        pytest.skip(f"start method {method!r} is not available here")
    probe = tmp_path / "probe.py"
    probe.write_text(_START_METHOD_PROBE)
    src = str(Path(__file__).resolve().parent.parent / "src")
    proc = subprocess.run(
        [sys.executable, str(probe), method, str(tmp_path)],
        env={**os.environ, "PYTHONPATH": src,
             "REPRO_CACHE_DIR": str(tmp_path / "cache")},
        capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.splitlines()[-1]) == {
        "method": method, "point": True, "scenario": True,
        "trajectories": True,
    }


class TestStalePayloads:
    """A stored value that is not a current-schema payload is a miss."""

    @pytest.mark.parametrize("payload", [
        None,
        {m: 1.25 for m in METRICS},  # schema 1: a bare {metric: mean} dict
        {"schema": 1, "means": {"m": 1.0}, "stats": {}, "replications": 1},
        {"schema": 2, "means": {"m": "x"}, "stats": {}, "replications": 1},
        {"schema": 2, "means": {"m": 1.0}},
        ["not", "a", "mapping"],
    ])
    def test_from_payload_miss(self, payload):
        assert PointResult.from_payload(payload) is None

    def test_round_trip_is_a_hit(self, tmp_path):
        (result,) = Campaign([_spec()]).run(
            jobs=1, cache=ResultCache(tmp_path)).values()
        assert result.stats and result.replications == 1
        assert PointResult.from_payload(result.to_payload()) == result

    def test_schema1_shard_recomputed_and_rewritten(self, tmp_path):
        campaign = Campaign([_spec()])
        cold = campaign.run(jobs=1, cache=ResultCache(tmp_path / "cold"))
        key = _spec().key()
        ResultCache(tmp_path / "stale").put_many(
            [(key, {m: 1.25 for m in METRICS})]
        )
        again = campaign.run(jobs=1, cache=ResultCache(tmp_path / "stale"))
        assert again == cold
        shard = ResultCache(tmp_path / "stale").get(key)
        assert shard["schema"] == 2
        assert shard == cold[_spec()].to_payload()


def _put_range(args) -> int:
    """Concurrent-writer worker: put n distinct keys into a shared dir."""
    cache_dir, start, n = args
    cache = ResultCache(cache_dir)
    for i in range(start, start + n):
        cache.put_many([(f"key-{i}", {"m": float(i)})])
    return n


class TestShardedStore:
    def test_default_location_under_cache_dir(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path / "d"))
        cache = ResultCache()
        cache.put_many([("k", {"m": 1.0})])
        assert cache.path == tmp_path / "d" / "results.shards"
        assert len(list(cache.path.glob("*.json"))) == 1

    def test_round_trip(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        key = _spec().key()
        cache.put_many([(key, {"m": 1.5, "k": 2.0})])
        assert ResultCache(tmp_path / "c").get(key) == {"m": 1.5, "k": 2.0}

    def test_one_shard_per_key(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        for i in range(5):
            cache.put_many([(f"key-{i}", {"m": float(i)})])
        assert len(list(cache.path.glob("*.json"))) == 5
        assert not list(cache.path.glob("*.tmp"))

    def test_put_does_not_rewrite_other_shards(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        cache.put_many([("a", {"m": 1.0})])
        shard = next(cache.path.glob("*.json"))
        before = shard.stat().st_mtime_ns
        cache.put_many([("b", {"m": 2.0})])
        assert shard.stat().st_mtime_ns == before

    def test_concurrent_writers_distinct_keys(self, tmp_path):
        """Two worker processes populate one store without corruption."""
        cache_dir = tmp_path / "shared"
        with futures.ProcessPoolExecutor(max_workers=2) as pool:
            counts = list(pool.map(
                _put_range, [(cache_dir, 0, 40), (cache_dir, 40, 40)]
            ))
        assert counts == [40, 40]
        cache = ResultCache(cache_dir)
        for i in range(80):
            assert cache.get(f"key-{i}") == {"m": float(i)}, f"key-{i} lost"
        assert not list(cache.path.glob("*.tmp"))