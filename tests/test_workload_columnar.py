"""Columnar job streams must be bit-identical to the scalar iterators.

``jobs(seed)`` is the definitional stream; ``blocks(seed, count)`` is
the fast columnar form.  For every workload source and every transform
(native vector form or the automatic fallback through
``blocks_from_jobs``), materialising the blocks must reproduce the
scalar jobs *exactly* -- same ids, same bit-for-bit arrival floats,
same sides, demands and trace runtimes -- for any seed and any block
partition.  The suite also covers the refill-sizing policy, the
process-wide block cache, ``Job.__slots__`` and the mid-chunk trace
exhaustion path of the SoA engine's ``feed``.
"""

from __future__ import annotations

import dataclasses
from itertools import islice

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import SimConfig
from repro.core.job import Job
from repro.workload import (
    JobBlock,
    LoadScale,
    Merge,
    StochasticWorkload,
    TraceJob,
    TraceWorkload,
    WorkloadTransform,
    blocks_from_jobs,
    build_pipeline,
    job_stream,
    jobs_from_blocks,
    open_stream,
    refill_size,
)
from repro.workload.columnar import (
    FIRST_FILL_SLACK,
    MAX_CHUNK,
    MIN_REFILL,
    BlockCache,
)
from repro.workload.transforms import TRANSFORMS

CFG = SimConfig(width=8, length=8, jobs=40, seed=7)
N = 80  # stream prefix length compared per property


def _trace(n: int = 60) -> list[TraceJob]:
    return [
        TraceJob(arrival=i * 3.7, size=(i % 16) + 1, runtime=5.0 + (i % 9))
        for i in range(n)
    ]


def make_source(name: str):
    if name == "real":
        return TraceWorkload(CFG, _trace(), load=0.05)
    return StochasticWorkload(CFG, load=0.05, sides=name)


class NoVectorForm(WorkloadTransform):
    """A transform with no ``blocks`` override: exercises the fallback."""

    op = "novec"

    def jobs(self, seed):
        for job in self.inner.jobs(seed):
            yield dataclasses.replace(job, messages=job.messages + 1,
                                      service_demand=job.messages + 1.0)


def assert_streams_equal(wl, seed: int, count: int, n: int = N) -> None:
    scalar = list(islice(wl.jobs(seed), n))
    columnar = list(islice(jobs_from_blocks(wl.blocks(seed, count)), n))
    assert len(scalar) == len(columnar)
    for a, b in zip(scalar, columnar):
        assert a.job_id == b.job_id
        assert a.arrival_time == b.arrival_time  # bitwise: == on floats
        assert (a.width, a.length, a.messages) == (b.width, b.length, b.messages)
        assert a.service_demand == b.service_demand
        assert a.trace_runtime == b.trace_runtime


PIPELINES = [
    "{src}",
    "{src} | scale:0.5",
    "{src} | thin:0.8",
    "{src} | jitter:4.0",
    "{src} | burst:64",
    "{src} | clamp:3:5",
    "{src}*0.5 | thin:0.7 | jitter:2.0",
    "{src} + uniform",
    "real*0.5 | thin:0.8 + {src}",
]


class TestColumnarEqualsScalar:
    @pytest.mark.parametrize("src", ("uniform", "exponential", "real"))
    @pytest.mark.parametrize("pipeline", PIPELINES)
    def test_every_workload_times_transform(self, src, pipeline):
        wl = build_pipeline(pipeline.format(src=src), make_source)
        assert_streams_equal(wl, seed=11, count=17)

    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 97))
    @settings(max_examples=25, deadline=None)
    def test_stochastic_any_seed_any_partition(self, seed, count):
        for sides in ("uniform", "exponential"):
            assert_streams_equal(make_source(sides), seed, count, n=50)

    @given(seed=st.integers(0, 2**32 - 1), count=st.integers(1, 97))
    @settings(max_examples=15, deadline=None)
    def test_transformed_any_seed_any_partition(self, seed, count):
        wl = build_pipeline("real*0.5 | thin:0.8 + uniform | jitter:3.0",
                            make_source)
        assert_streams_equal(wl, seed, count, n=50)

    def test_every_registered_transform_has_native_blocks(self):
        # the doc promise: all registry transforms carry a vector form
        for op, (cls, _) in TRANSFORMS.items():
            assert "blocks" in vars(cls), f"{op} lost its vector form"

    def test_fallback_transform(self):
        wl = NoVectorForm(make_source("uniform"), salt=1)
        assert wl.block_fingerprint() is None  # fallback is uncacheable
        assert_streams_equal(wl, seed=3, count=13)

    def test_vector_transform_over_fallback(self):
        # the fallback poisons the chain fingerprint but not correctness
        wl = LoadScale(NoVectorForm(make_source("uniform"), salt=1),
                       0.5, salt=2)
        assert wl.block_fingerprint() is None
        assert_streams_equal(wl, seed=3, count=13)

    def test_merge_over_fallback(self):
        wl = Merge(NoVectorForm(make_source("uniform"), salt=1),
                   make_source("exponential"))
        assert wl.block_fingerprint() is None
        assert_streams_equal(wl, seed=9, count=19)

    def test_merge_tie_break_matches_heapq(self):
        # identical deterministic traces: every arrival ties, so order
        # is decided purely by the stable earlier-stream-wins rule
        wl = Merge(TraceWorkload(CFG, _trace(), load=0.05),
                   TraceWorkload(CFG, _trace(), load=0.05))
        assert_streams_equal(wl, seed=1, count=7, n=120)

    def test_job_stream_adapter(self):
        for src in ("uniform", "real"):
            wl = make_source(src)
            a = list(islice(wl.jobs(5), N))
            b = list(islice(job_stream(wl, 5), N))
            assert a == b
        # no native form -> the adapter returns the plain iterator
        wl = NoVectorForm(make_source("uniform"), salt=1)
        assert list(islice(job_stream(wl, 5), N)) == list(islice(wl.jobs(5), N))


class TestJobBlock:
    def test_roundtrip_from_jobs(self):
        jobs = list(islice(make_source("real").jobs(1), 40))
        block = JobBlock.from_jobs(jobs)
        assert list(block.iter_jobs()) == jobs
        assert len(block.view(5, 10)) == 5

    def test_blocks_from_jobs_partitions(self):
        jobs = list(islice(make_source("uniform").jobs(2), 50))
        blocks = list(blocks_from_jobs(iter(jobs), count=16))
        assert [len(b) for b in blocks] == [16, 16, 16, 2]
        assert list(jobs_from_blocks(blocks)) == jobs

    def test_runtime_nan_convention(self):
        # a merge of trace + stochastic mixes runtimes and None
        wl = Merge(make_source("real"), make_source("uniform"))
        jobs = list(islice(jobs_from_blocks(wl.blocks(1, 32)), 60))
        kinds = {j.trace_runtime is None for j in jobs}
        assert kinds == {True, False}


class TestRefillPolicy:
    def test_first_fill_covers_target_plus_slack(self):
        assert refill_size(0, 1000) == 1000 + FIRST_FILL_SLACK

    def test_first_fill_caps_at_max_chunk(self):
        assert refill_size(0, 10**6) == MAX_CHUNK

    def test_later_fills_grow_with_consumption(self):
        assert refill_size(100, 1000) == MIN_REFILL
        assert refill_size(4000, 1000) == 1000
        assert refill_size(10**6, 1000) == MAX_CHUNK

    def test_matches_legacy_feed_heuristic(self):
        # the policy factored out of LaneState.feed, value for value
        for provided, target in [(0, 40), (0, 5000), (104, 40),
                                 (2048, 1000), (65536, 1000)]:
            if provided == 0:
                legacy = min(target + 64, 4096)
            else:
                legacy = min(max(512, provided // 4), 4096)
            assert refill_size(provided, target) == legacy


class TestBlockCache:
    def test_cached_streams_share_blocks(self):
        wl = make_source("uniform")
        c1, c2 = open_stream(wl, 123), open_stream(wl, 123)
        b1, b2 = c1.next_block(), c2.next_block()
        assert b1 is b2  # same object: generated once, replayed

    def test_distinct_seeds_distinct_streams(self):
        wl = make_source("uniform")
        b1 = open_stream(wl, 1).next_block()
        b2 = open_stream(wl, 2).next_block()
        assert not np.array_equal(b1.arrival, b2.arrival)

    def test_cache_disabled_by_env(self, monkeypatch):
        monkeypatch.setenv("REPRO_BLOCK_CACHE_MB", "0")
        wl = make_source("uniform")
        b1 = open_stream(wl, 99).next_block()
        b2 = open_stream(wl, 99).next_block()
        assert b1 is not b2
        assert np.array_equal(b1.arrival, b2.arrival)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "lots"])
    def test_bad_budget_falls_back_to_default(self, monkeypatch, value):
        from repro.workload.columnar import _cache_budget_bytes

        monkeypatch.setenv("REPRO_BLOCK_CACHE_MB", value)
        assert _cache_budget_bytes() == 128 * 1024 * 1024

    def test_eviction_respects_budget(self):
        cache = BlockCache(budget=1)  # ~one stream's worth at most
        wl = make_source("uniform")
        s1 = cache.stream(wl, 1, ("k", 1), count=64)
        s1.block(0)
        s2 = cache.stream(wl, 2, ("k", 2), count=64)
        s2.block(0)
        # over budget: the LRU entry was evicted, the newest survives
        assert cache.stream(wl, 2, ("k", 2), count=64) is s2
        assert cache.stream(wl, 1, ("k", 1), count=64) is not s1


class TestJobSlots:
    def test_job_has_slots(self):
        job = Job(job_id=1, arrival_time=0.0, width=2, length=2, messages=3)
        assert not hasattr(job, "__dict__")
        with pytest.raises((AttributeError, TypeError)):
            job.unknown_attribute = 1


class TestFeedExhaustionMidChunk:
    def test_trace_shorter_than_first_fill(self):
        """Exhaustion lands inside the first refill chunk: the SoA lane
        must finish the backlog and match the reference engine exactly."""
        from repro.experiments.campaign import PointSpec, Scale, build_simulator
        from repro.core.soa import run_point_batch

        scale = Scale("tiny", jobs=100, min_replications=1,
                      max_replications=1, trace_max_jobs=12)
        cfg = SimConfig(width=8, length=8, jobs=100, seed=2)
        spec = PointSpec(workload="real", load=0.5, alloc="GABL",
                         sched="FCFS", scale=scale, config=cfg)
        seeds = [1, 2]
        ref = [build_simulator(spec, s).run() for s in seeds]
        soa = run_point_batch(lambda seed: build_simulator(spec, seed), seeds)
        for r, g in zip(ref, soa):
            assert dataclasses.asdict(r) == dataclasses.asdict(g)
        assert all(r.completed_jobs == 12 for r in ref)
