"""The campaign's background shard writer and the O(1) dispatch model.

``Campaign.run`` encodes each drained round in its drain loop and hands
it to one :class:`~repro.experiments.store.ShardWriter` thread, which
writes the shards and fsyncs the directory while the next batch runs.
These tests pin what that must not change: shard bytes, results on
every executor, the memory-only switch on ``OSError``, other failures
surfacing from ``run``, at most one round in flight, and the
longest-estimated-first dispatch order of the cached cost model.
"""

from __future__ import annotations

import errno
import io
import json
import threading

import pytest

from repro.core.config import PAPER_CONFIG
from repro.experiments import campaign as campaign_mod
from repro.experiments.campaign import Campaign, _CostModel
from repro.experiments.figures import FIGURES
from repro.experiments.store import ResultCache, ShardWriter


@pytest.fixture(autouse=True)
def disk_cache(monkeypatch):
    monkeypatch.setenv("REPRO_CACHE", "1")  # force the disk path on


def sweep() -> Campaign:
    return Campaign.sweep(
        workloads=("uniform",), loads=(0.02, 0.03, 0.04),
        allocs=("GABL", "MBS"), scheds=("FCFS",), scale="smoke",
    )


def shard_bytes(cache: ResultCache) -> dict[str, bytes]:
    return {p.name: p.read_bytes() for p in cache.path.glob("*.json")}


class TestShardBytes:
    def test_shard_is_what_json_dump_writes(self, tmp_path):
        """``json.dumps`` plus one write gives the bytes the pure-Python
        ``json.dump(obj, f)`` encoder wrote, floats included."""
        value = {"means": {"x": 0.1 + 0.2, "y": 1e-300, "z": 3.0},
                 "n": [1, 2], "s": "é"}
        cache = ResultCache(tmp_path / "c")
        cache.put_many([("k", value)])
        expected = io.StringIO()
        json.dump({"key": "k", "value": value}, expected)
        (data,) = shard_bytes(cache).values()
        assert data == expected.getvalue().encode()

    def test_run_returns_with_every_shard_on_disk(self, tmp_path):
        camp = sweep()
        results = camp.run(cache=ResultCache(tmp_path / "c"))
        fresh = ResultCache(tmp_path / "c")
        for spec, result in results.items():
            assert fresh.get(spec.key()) == result.to_payload()
        assert not list(fresh.path.glob("*.tmp"))


class TestWriteFailures:
    def test_os_error_switches_to_memory_only(self, tmp_path, monkeypatch):
        expected = sweep().run(cache=ResultCache(tmp_path / "ok"))

        def read_only(self, name, data):
            raise OSError(errno.EROFS, "read-only file system")

        monkeypatch.setattr(ResultCache, "_write_shard", read_only)
        cache = ResultCache(tmp_path / "ro")
        results = sweep().run(cache=cache)
        assert results == expected
        assert not cache.disk
        for spec, result in results.items():  # still served from memory
            assert cache.get(spec.key()) == result.to_payload()

    def test_other_write_failure_is_raised_from_run(self, tmp_path,
                                                    monkeypatch):
        def broken(self, name, data):
            raise RuntimeError("shard writer broke")

        monkeypatch.setattr(ResultCache, "_write_shard", broken)
        with pytest.raises(RuntimeError, match="shard writer broke"):
            sweep().run(cache=ResultCache(tmp_path / "c"))

    def test_failure_on_the_last_round_is_raised_by_close(self, tmp_path,
                                                          monkeypatch):
        def broken(self, shards):
            raise ValueError("late failure")

        monkeypatch.setattr(ResultCache, "_write_round", broken)
        writer = ShardWriter(ResultCache(tmp_path / "c"))
        writer.submit([("a.json", b"{}")])
        with pytest.raises(ValueError, match="late failure"):
            writer.close()


class TestOneRoundInFlight:
    def test_submit_waits_for_the_previous_round(self, tmp_path,
                                                 monkeypatch):
        started, release = threading.Event(), threading.Event()
        written: list[list] = []

        def slow(self, shards):
            started.set()
            release.wait(5.0)
            written.append(shards)

        monkeypatch.setattr(ResultCache, "_write_round", slow)
        writer = ShardWriter(ResultCache(tmp_path / "c"))
        writer.submit(["round 1"])
        assert started.wait(5.0)
        second = threading.Thread(target=writer.submit, args=(["round 2"],))
        second.start()
        second.join(0.2)
        assert second.is_alive(), "a second round went in flight"
        release.set()
        second.join(5.0)
        writer.close()
        assert written == [["round 1"], ["round 2"]]

    def test_close_without_rounds_starts_no_thread(self, tmp_path):
        writer = ShardWriter(ResultCache(tmp_path / "c"))
        before = threading.active_count()
        writer.close()
        assert threading.active_count() == before


class TestExecutorsWithWriter:
    def test_thread_executor_equals_serial(self, tmp_path):
        serial_cache = ResultCache(tmp_path / "serial")
        thread_cache = ResultCache(tmp_path / "thread")
        serial = sweep().run(cache=serial_cache)
        threaded = sweep().run(jobs=2, cache=thread_cache,
                               executor_kind="thread")
        assert threaded == serial
        assert shard_bytes(thread_cache) == shard_bytes(serial_cache)


class UncachedModel(_CostModel):
    """The cost model as it read before ``base`` and the mean rate were
    cached: the oracle of the dispatch order."""

    def base(self, spec):
        lo, hi = spec.replication_bounds
        reps = (lo + hi) / 2.0
        return max(spec.load, 1e-9) * reps * self._stream_length(spec)

    def estimate(self, spec):
        rate = self._rates.get(self._class_key(spec))
        if rate is None:
            rate = (
                sum(self._rates.values()) / len(self._rates)
                if self._rates else 1.0
            )
        return self.base(spec) * rate


class CheckedModel(_CostModel):
    """The campaign's model, shadowed by :class:`UncachedModel` fed the
    same observations; every estimate must equal the oracle's bit for
    bit, so ``max(pending, key=estimate)`` picks the same point."""

    made: list["CheckedModel"] = []

    def __init__(self) -> None:
        super().__init__()
        self.oracle = UncachedModel()
        self.estimates = 0
        self.made.append(self)

    def observe(self, spec, seconds, seeds):
        super().observe(spec, seconds, seeds)
        self.oracle.observe(spec, seconds, seeds)

    def estimate(self, spec):
        got = super().estimate(spec)
        assert got == self.oracle.estimate(spec), spec.label()
        self.estimates += 1
        return got


def test_figs_soa_dispatch_order_equals_the_uncached_model(
    tmp_path, monkeypatch
):
    """The figs-soa campaign (fig2-fig16, quick scale, SoA engine,
    serial): every dispatch decision of the cached model equals the
    uncached model's under the same observed batch times."""
    monkeypatch.setattr(campaign_mod, "_CostModel", CheckedModel)
    CheckedModel.made.clear()
    camp = Campaign.from_figures(
        tuple(FIGURES), scale="quick",
        config=PAPER_CONFIG.with_(engine="soa"),
    )
    camp.run(cache=ResultCache(tmp_path / "c"))
    (model,) = CheckedModel.made
    # one top-up per dispatch, each scanning the whole pending queue
    assert model.estimates >= len(camp.points)
    assert model.oracle._rates == model._rates
