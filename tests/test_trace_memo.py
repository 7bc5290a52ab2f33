"""The trace replay's one memo: a replay record per trace.

``TraceWorkload`` builds one record per trace object, replayed prefix,
mesh shape and demand parameters: the prefix columns, the content
digest, the trace statistics, the quantile-matched demands and the
per-job shapes.  Only the scaled arrival column is derived per load.  A
record hit must be indistinguishable from a fresh derivation, bit for
bit, including under concurrent first use from a thread pool.
"""

from __future__ import annotations

import sys
import threading
from concurrent import futures
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import SimConfig
from repro.experiments import campaign
from repro.experiments.campaign import SCALES, make_workload, sdsc_trace
from repro.mesh.geometry import shape_for_size
from repro.workload import trace as trace_mod
from repro.workload.trace import TraceJob, TraceWorkload, trace_stats

CFG = SimConfig(width=16, length=22, jobs=40, seed=3)
COLUMNS = ("job_id", "arrival", "width", "length", "messages", "demand",
           "runtime")


@pytest.fixture(autouse=True)
def _cold_records():
    trace_mod._REPLAYS.clear()
    yield
    trace_mod._REPLAYS.clear()


def _columns(wl: TraceWorkload) -> dict[str, np.ndarray]:
    blocks = list(wl.blocks(seed=0, count=64))
    return {c: np.concatenate([getattr(b, c) for b in blocks]) for c in COLUMNS}


def _assert_matches_fresh(wl: TraceWorkload) -> None:
    """``wl``'s record agrees with an independent derivation of its trace."""
    cfg = wl.config
    r = wl._record
    assert r.stats == trace_stats(wl.trace)
    assert r.messages.tolist() == trace_mod._quantile_matched_demands(
        r.runtimes, wl.mean_messages, cfg.max_messages,
    )
    shapes = [
        shape_for_size(min(tj.size, cfg.processors), cfg.width, cfg.length)
        for tj in wl.trace
    ]
    assert list(zip(r.width.tolist(), r.length.tolist())) == shapes


def _snapshot(wl: TraceWorkload):
    return wl.stats, wl._record.messages.tolist(), _columns(wl), list(wl.jobs(0))


def _fresh_snapshot(trace, load):
    trace_mod._REPLAYS.clear()
    return _snapshot(TraceWorkload(CFG, trace, load))


def _assert_same_snapshot(got, want) -> None:
    assert got[0] == want[0]
    assert got[1] == want[1]
    for c in COLUMNS:
        assert np.array_equal(got[2][c], want[2][c]), c
    assert got[3] == want[3]


def test_loads_and_probes_build_one_record(monkeypatch):
    # every point at every load builds its workload twice (the probe
    # simulator and the run); one record serves all six, so each
    # distinct size is shaped once and the demands are derived once
    scale = SCALES["smoke"]
    shaped, derived = [], []

    def counting_shape(size, width, length):
        shaped.append(size)
        return shape_for_size(size, width, length)

    real_demands = trace_mod._quantile_matched_demands

    def counting_demands(*args):
        derived.append(args)
        return real_demands(*args)

    monkeypatch.setattr(trace_mod, "shape_for_size", counting_shape)
    monkeypatch.setattr(trace_mod, "_quantile_matched_demands",
                        counting_demands)
    wls = []
    for load in (0.005, 0.01, 0.03):
        for _ in ("probe", "run"):
            wl = make_workload("real", CFG, load, scale)
            for _block in wl.blocks(seed=0):
                pass
            wls.append(wl)
    assert len(trace_mod._REPLAYS) == 1
    assert all(w._record is wls[0]._record for w in wls)
    assert len({w.factor for w in wls}) == 3
    assert len(derived) == 1
    sizes = {min(tj.size, CFG.processors) for tj in wls[0].trace}
    assert sorted(shaped) == sorted(sizes)
    monkeypatch.undo()
    for w in wls:
        _assert_matches_fresh(w)


@pytest.mark.parametrize("load", (0.004, 0.02))
def test_record_hit_equals_fresh_derivation(load):
    jobs = sdsc_trace(300)
    want = _fresh_snapshot(jobs, load)
    # warm the record at another load, then replay at ``load`` from it
    trace_mod._REPLAYS.clear()
    warm = TraceWorkload(CFG, jobs, 0.5)
    wl = TraceWorkload(CFG, jobs, load)
    assert wl._record is warm._record
    _assert_same_snapshot(_snapshot(wl), want)
    _assert_matches_fresh(wl)


def _edited(jobs):
    out = list(jobs)
    out[7] = TraceJob(out[7].arrival, out[7].size, out[7].runtime * 10)
    return out


@pytest.mark.parametrize("variant", (
    "content", "copy", "prefix", "mesh", "demand_mean", "max_messages",
))
def test_key_covers(variant):
    jobs = sdsc_trace(300)
    base = TraceWorkload(CFG, jobs, 0.01)
    cfg, trace, max_jobs = CFG, jobs, None
    if variant == "content":
        trace = _edited(jobs)
    elif variant == "copy":
        trace = list(jobs)
    elif variant == "prefix":
        max_jobs = 100
    elif variant == "mesh":
        cfg = replace(CFG, width=8, length=8)
    elif variant == "demand_mean":
        cfg = replace(CFG, num_mes=CFG.num_mes * 3)
    else:
        cfg = replace(CFG, max_messages=2)
    other = TraceWorkload(cfg, trace, 0.01, max_jobs=max_jobs)
    assert len(trace_mod._REPLAYS) == 2
    assert other._record is not base._record
    _assert_matches_fresh(base)
    _assert_matches_fresh(other)
    r, b = other._record, base._record
    if variant == "content":
        assert r.digest != b.digest
        assert r.messages.tolist() != b.messages.tolist()
    elif variant == "copy":
        # an equal list is another trace object: its own record, the
        # same replay
        assert r.trace is trace
        _assert_same_snapshot(_snapshot(other), _snapshot(base))
    elif variant == "prefix":
        assert r.stats.jobs == 100 and r.digest != b.digest
    elif variant == "mesh":
        assert int((r.width * r.length).max()) <= 64
        assert r.width.tolist() != b.width.tolist()
    elif variant == "demand_mean":
        assert r.messages.tolist() != b.messages.tolist()
    else:
        assert int(r.messages.max()) == 2


def test_concurrent_first_use_builds_once():
    # the 8-thread barrier hammer: every thread races through first use
    # at its own load; one record serves them all and each thread's
    # replay equals a fresh single-threaded derivation
    jobs = sdsc_trace(300)
    loads = [0.002 * (i + 1) for i in range(8)]
    calls = []
    real = trace_mod._build_record

    def counting(*args):
        calls.append(threading.get_ident())
        return real(*args)

    barrier = threading.Barrier(8)

    def worker(load):
        barrier.wait(timeout=30)
        wl = TraceWorkload(CFG, jobs, load)
        return wl._record, _snapshot(wl)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # force thread switches inside the race
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(trace_mod, "_build_record", counting)
            with futures.ThreadPoolExecutor(8) as pool:
                pending = [pool.submit(worker, load) for load in loads]
                got = [f.result(timeout=60) for f in pending]
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 1
    assert len(trace_mod._REPLAYS) == 1
    assert all(record is got[0][0] for record, _ in got)
    for load, (_, snap) in zip(loads, got):
        _assert_same_snapshot(snap, _fresh_snapshot(jobs, load))


def test_trace_and_record_memos_concurrent_first_use():
    # the sdsc trace memo and the replay record come up once under
    # concurrent first use, and every thread replays the same columns
    tiny = SimConfig(width=8, length=8, jobs=30, seed=7)
    campaign._TRACE_CACHE.pop((120, 1995), None)
    barrier = threading.Barrier(6)

    def worker():
        barrier.wait(timeout=30)
        wl = TraceWorkload(tiny, sdsc_trace(120), load=0.05, max_jobs=120)
        return wl, next(wl.blocks(seed=0))

    with futures.ThreadPoolExecutor(6) as pool:
        got = [f.result(timeout=60) for f in
               [pool.submit(worker) for _ in range(6)]]
    wl0, block0 = got[0]
    assert len(trace_mod._REPLAYS) == 1
    for wl, block in got:
        assert wl._record is wl0._record
        for c in COLUMNS:
            assert np.array_equal(getattr(block, c), getattr(block0, c)), c
