"""Durability tests for the sharded result store: orphaned-temp
reaping and the campaign drain loop's flush-on-teardown contract."""

from __future__ import annotations

import os
import time

import pytest

from repro.experiments.store import TEMP_REAP_AGE, ResultCache


@pytest.fixture(autouse=True)
def disk_cache(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "1")  # force the disk path on


def backdate(path, age=TEMP_REAP_AGE + 120.0):
    old = time.time() - age
    os.utime(path, (old, old))


class TestTempReaping:
    def test_orphaned_tmp_reaped_on_open(self, tmp_path):
        cache = ResultCache(tmp_path / "shards")
        cache.put_many([("k1", {"v": 1})])
        # a writer killed between mkstemp and os.replace leaves this
        orphan = cache.path / "tmpabc123.tmp"
        orphan.write_text('{"partial')
        backdate(orphan)
        reopened = ResultCache(tmp_path / "shards")
        assert not orphan.exists()
        assert reopened.get("k1") == {"v": 1}  # resume is clean

    def test_fresh_tmp_survives_open(self, tmp_path):
        # a *live* concurrent writer's in-flight temp must not be reaped
        cache = ResultCache(tmp_path / "shards")
        cache.path.mkdir(parents=True, exist_ok=True)
        inflight = cache.path / "tmpxyz.tmp"
        inflight.write_text("{}")
        ResultCache(tmp_path / "shards")
        assert inflight.exists()

    def test_reap_returns_count(self, tmp_path):
        cache = ResultCache(tmp_path / "shards")
        cache.path.mkdir(parents=True, exist_ok=True)
        for i in range(3):
            p = cache.path / f"tmp{i}.tmp"
            p.write_text("x")
            backdate(p)
        assert ResultCache(tmp_path / "shards")._reap_temps() in (0, 3)
        assert not list(cache.path.glob("*.tmp"))


class TestDrainLoopFlush:
    def test_interrupt_mid_campaign_flushes_finished_points(
        self, tmp_path, monkeypatch
    ):
        """A KeyboardInterrupt right after the first point completes
        must not lose it: the finally-flush writes every finished point
        before the executor tears down."""
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments.campaign import Campaign

        campaign = Campaign.sweep(
            workloads=("uniform",), loads=(0.02, 0.03, 0.04),
            allocs=("GABL",), scheds=("FCFS",), scale="smoke",
        )
        cache = ResultCache(tmp_path / "shards")
        seen = []

        def explode(msg: str) -> None:
            if msg.startswith("["):  # a "[done/total] label" completion line
                seen.append(msg)
                raise KeyboardInterrupt

        with pytest.raises(KeyboardInterrupt):
            campaign.run(cache=cache, progress=explode)
        assert seen  # the interrupt fired after a completion
        fresh = ResultCache(tmp_path / "shards")
        flushed = [s for s in campaign.points if fresh.get(s.key()) is not None]
        assert flushed, "finished point was dropped by the teardown path"

    def test_on_point_callback_sees_hits_and_fresh_points(
        self, tmp_path, monkeypatch
    ):
        monkeypatch.setenv("REPRO_CACHE_DIR", str(tmp_path))
        from repro.experiments.campaign import Campaign

        def sweep():
            return Campaign.sweep(
                workloads=("uniform",), loads=(0.02, 0.03),
                allocs=("GABL",), scheds=("FCFS",), scale="smoke",
            )

        cache = ResultCache(tmp_path / "shards")
        calls: list[tuple[str, int, int]] = []
        sweep().run(
            cache=cache,
            on_point=lambda s, r, d, t: calls.append((s.label(), d, t)),
        )
        assert len(calls) == 2
        assert [c[1:] for c in calls] == [(1, 2), (2, 2)]
        # on a resumed run every point is a cache hit; the callback
        # still reports each one (the service's progress feed)
        replay: list[tuple[int, int]] = []
        sweep().run(
            cache=ResultCache(tmp_path / "shards"),
            on_point=lambda s, r, d, t: replay.append((d, t)),
        )
        assert replay == [(1, 2), (2, 2)]
