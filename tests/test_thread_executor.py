"""Thread-parallel campaign execution: equivalence and thread safety.

The contract under test (ISSUE 8): running a campaign on the in-process
thread executor produces metrics *bit-identical* to serial and process
execution across the strategy matrix, because replication seeds are a
pure function of the spec and the compiled lane driver confines all
mutable state to per-batch arrays while the GIL is released.  The
supporting shared state -- the columnar block cache, the lazy
compile-once kernel build, the trace memos and the coalesced result
store -- must survive concurrent first use from N threads.
"""

from __future__ import annotations

import math
import os
import threading
from concurrent import futures

import numpy as np
import pytest

from repro.core import _soa_native
from repro.core.config import SimConfig
from repro.experiments.campaign import (
    Campaign,
    PointSpec,
    Scale,
)
from repro.experiments.store import ResultCache
from repro.network import _native as network_native
from repro.workload import _native as workload_native
from repro.workload import sdsc
from repro.workload.sdsc import SDSC_PUBLISHED
from repro.workload.columnar import BlockCache
from repro.workload.stochastic import StochasticWorkload

TINY = SimConfig(width=8, length=8, jobs=30, seed=7)
TINY_SCALE = Scale("tiny", jobs=30, min_replications=2, max_replications=2,
                   trace_max_jobs=120)

ALLOCS = ("GABL", "Paging(0)", "MBS")
SCHEDS = ("FCFS", "SSD")


def _campaign(engine: str = "soa") -> Campaign:
    specs = [
        PointSpec(workload=w, load=ld, alloc=a, sched=s, scale=TINY_SCALE,
                  config=TINY.with_(engine=engine))
        for w in ("uniform", "exponential")
        for ld in (0.02, 0.08)
        for a in ALLOCS
        for s in SCHEDS
    ]
    return Campaign(specs)


def _keyed(results) -> dict:
    return {spec.key(): dict(v) for spec, v in results.items()}


class TestThreadEquivalence:
    """thread -j N == serial, bit for bit, on every metric."""

    @pytest.mark.parametrize("engine", ("soa", "reference"))
    def test_thread_matches_serial_strategy_matrix(self, tmp_path, engine):
        campaign = _campaign(engine)
        serial = campaign.run(
            jobs=1, cache=ResultCache(tmp_path / f"serial-{engine}")
        )
        threaded = campaign.run(
            jobs=4, cache=ResultCache(tmp_path / f"thread-{engine}"),
            executor_kind="thread",
        )
        assert _keyed(serial) == _keyed(threaded)

    def test_thread_matches_process(self, tmp_path):
        campaign = Campaign([
            PointSpec(workload="uniform", load=0.05, alloc=a, sched="FCFS",
                      scale=TINY_SCALE, config=TINY.with_(engine="soa"))
            for a in ALLOCS
        ])
        threaded = campaign.run(
            jobs=2, cache=ResultCache(tmp_path / "thread"),
            executor_kind="thread",
        )
        proc = campaign.run(
            jobs=2, cache=ResultCache(tmp_path / "process"),
            executor_kind="process",
        )
        assert _keyed(threaded) == _keyed(proc)

    def test_thread_matches_serial_trace_replay(self, tmp_path):
        campaign = Campaign([
            PointSpec(workload="real", load=ld, alloc="GABL", sched=s,
                      scale=TINY_SCALE, config=TINY.with_(engine="soa"))
            for ld in (0.02, 0.05) for s in SCHEDS
        ])
        serial = campaign.run(jobs=1, cache=ResultCache(tmp_path / "serial"))
        threaded = campaign.run(
            jobs=4, cache=ResultCache(tmp_path / "thread"),
            executor_kind="thread",
        )
        assert _keyed(serial) == _keyed(threaded)

    def test_thread_matches_serial_without_native(self, tmp_path, monkeypatch):
        # REPRO_NATIVE=0: the thread executor must still be exact over
        # the per-seed reference fallback (GIL-bound, but correct)
        monkeypatch.setenv("REPRO_NATIVE", "0")
        _soa_native.reset_kernel_cache()
        network_native.reset_kernel_cache()
        workload_native.reset_kernel_cache()
        try:
            campaign = Campaign([
                PointSpec(workload="uniform", load=0.05, alloc=a, sched="SSD",
                          scale=TINY_SCALE, config=TINY.with_(engine="soa"))
                for a in ALLOCS
            ])
            serial = campaign.run(
                jobs=1, cache=ResultCache(tmp_path / "serial")
            )
            threaded = campaign.run(
                jobs=4, cache=ResultCache(tmp_path / "thread"),
                executor_kind="thread",
            )
            assert _keyed(serial) == _keyed(threaded)
        finally:
            monkeypatch.delenv("REPRO_NATIVE")
            _soa_native.reset_kernel_cache()
            network_native.reset_kernel_cache()
            workload_native.reset_kernel_cache()

    def test_auto_kind_falls_back_for_reference_engine(self, tmp_path):
        # auto-selection (executor_kind=None) on a reference-engine
        # campaign must not silently serialise behind the GIL; whatever
        # backend it picks, the results stay exact
        campaign = Campaign([
            PointSpec(workload="uniform", load=0.05, alloc="GABL", sched=s,
                      scale=TINY_SCALE, config=TINY.with_(engine="reference"))
            for s in SCHEDS
        ])
        serial = campaign.run(jobs=1, cache=ResultCache(tmp_path / "serial"))
        auto = campaign.run(jobs=2, cache=ResultCache(tmp_path / "auto"))
        assert _keyed(serial) == _keyed(auto)


class TestSharedStateThreadSafety:
    def test_block_cache_concurrent_first_use(self):
        # N threads race to open the SAME stream on a fresh cache: every
        # thread must observe the identical block sequence, and the
        # cache must hold exactly one stream at the end
        cache = BlockCache()
        workload = StochasticWorkload(TINY, load=0.05, sides="uniform")
        key = (workload.block_fingerprint(), 123)

        def pull() -> list:
            stream = cache.stream(workload, 123, key, count=64)
            out = []
            i = 0
            while True:
                blk = stream.block(i)
                if blk is None or i >= 4:
                    break
                out.append((blk.job_id[0], blk.arrival[-1]))
                i += 1
            return out

        barrier = threading.Barrier(8)

        def worker() -> list:
            barrier.wait()
            return pull()

        with futures.ThreadPoolExecutor(8) as pool:
            got = [f.result() for f in [pool.submit(worker) for _ in range(8)]]
        assert all(g == got[0] for g in got)
        assert len(cache._streams) == 1

    @pytest.mark.parametrize("module", (
        network_native, _soa_native, workload_native,
    ))
    def test_compile_once_under_concurrent_first_use(self, module, monkeypatch):
        # hammer the lazy kernel load from N threads after a cache
        # reset: the double-checked KERNEL_LOCK must admit exactly one
        # build, and every thread sees the same kernel object
        builds = []
        barrier = threading.Barrier(8)
        real_build = module._build

        def counting_build():
            builds.append(threading.get_ident())
            return real_build()

        monkeypatch.setattr(module, "_build", counting_build)
        module.reset_kernel_cache()
        try:
            def worker():
                barrier.wait()
                return module.load_kernel()

            with futures.ThreadPoolExecutor(8) as pool:
                kernels = [
                    f.result()
                    for f in [pool.submit(worker) for _ in range(8)]
                ]
            if os.environ.get("REPRO_NATIVE") == "0":
                # disabled: the loader memoises None without building
                assert len(builds) == 0
                assert all(k is None for k in kernels)
            else:
                assert len(builds) == 1
                assert all(k is kernels[0] for k in kernels)
        finally:
            monkeypatch.undo()
            module.reset_kernel_cache()


class TestNativeDrawHelper:
    def test_uniform_blocks_match_scalar_stream(self):
        # the C draw loop consumes numpy's own bit stream: blocks()
        # must equal the definitional jobs() iterator draw for draw
        workload = StochasticWorkload(TINY, load=0.05, sides="uniform")
        from itertools import islice

        scalar = list(islice(workload.jobs(99), 200))
        cols = []
        for blk in workload.blocks(99, count=64):
            cols.extend(blk.iter_jobs())
            if len(cols) >= 200:
                break
        for a, b in zip(scalar, cols):
            assert (a.arrival_time, a.width, a.length, a.messages) == \
                (b.arrival_time, b.width, b.length, b.messages)

    def test_fallback_matches_native(self, monkeypatch):
        workload = StochasticWorkload(TINY, load=0.05, sides="uniform")
        native_blk = next(workload.blocks(5, count=128))
        monkeypatch.setenv("REPRO_NATIVE", "0")
        workload_native.reset_kernel_cache()
        try:
            fallback_blk = next(workload.blocks(5, count=128))
        finally:
            monkeypatch.delenv("REPRO_NATIVE")
            workload_native.reset_kernel_cache()
        np.testing.assert_array_equal(native_blk.arrival, fallback_blk.arrival)
        np.testing.assert_array_equal(native_blk.width, fallback_blk.width)
        np.testing.assert_array_equal(native_blk.length, fallback_blk.length)
        np.testing.assert_array_equal(
            native_blk.messages, fallback_blk.messages
        )

    @pytest.mark.parametrize("max_size", [4, 8, 9, 352])
    def test_sdsc_native_loop_matches_python(self, max_size):
        # max_size 4 and 8 put a power of two at the clamp bound, so the
        # nudge and its re-clamp run in C; 9 clamps just above one
        if workload_native.load_kernel() is None:
            pytest.skip("native draw kernel unavailable")
        args = (SDSC_PUBLISHED["jobs"], 0.4 * 1186.7, 2.4 * 1186.7,
                max_size, math.log(500.0), 1.9)
        for seed in (1995, 1, 7, 2026, 12345):
            rng_py = np.random.default_rng(seed)
            rng_c = np.random.default_rng(seed)
            expected = sdsc._python_trace(rng_py, *args)
            assert sdsc._native_trace(rng_c, *args) == expected
            assert rng_c.bit_generator.state == rng_py.bit_generator.state


class TestCoalescedWrites:
    def test_put_many_round_trips(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        items = [(f"k{i}", {"means": {"x": float(i)}}) for i in range(5)]
        cache.put_many(items)
        for k, v in items:
            assert cache.get(k) == v
        # a fresh instance reads the same shards back from disk
        fresh = ResultCache(tmp_path / "c")
        for k, v in items:
            assert fresh.get(k) == v

    def test_put_many_memory_only(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        cache = ResultCache(tmp_path / "c")
        cache.put_many([("k", {"v": 1})])
        assert cache.get("k") == {"v": 1}
        assert not (tmp_path / "c").exists()
