"""The trace replay's load-independent derivation memo.

``TraceWorkload`` derives its trace statistics and quantile-matched
demands once per process for a given trace content and demand
parameters; only the arrival factor is per load.  A memo hit must be
indistinguishable from a fresh derivation, bit for bit, including under
concurrent first use from a thread pool.
"""

from __future__ import annotations

import sys
import threading
from concurrent import futures
from dataclasses import replace

import numpy as np
import pytest

from repro.core.config import SimConfig
from repro.experiments.campaign import sdsc_trace
from repro.workload import trace as trace_mod
from repro.workload.trace import TraceJob, TraceWorkload, trace_stats

CFG = SimConfig(width=16, length=22, jobs=40, seed=3)
COLUMNS = ("job_id", "arrival", "width", "length", "messages", "demand",
           "runtime")


@pytest.fixture(autouse=True)
def _cold_memos():
    trace_mod._DERIVED_MEMO.clear()
    trace_mod._COLUMN_MEMO.clear()
    yield
    trace_mod._DERIVED_MEMO.clear()
    trace_mod._COLUMN_MEMO.clear()


def _columns(wl: TraceWorkload) -> dict[str, np.ndarray]:
    blocks = list(wl.blocks(seed=0, count=64))
    return {c: np.concatenate([getattr(b, c) for b in blocks]) for c in COLUMNS}


def _assert_matches_fresh(wl: TraceWorkload) -> None:
    """``wl`` agrees with the un-memoised derivation of its own trace."""
    assert wl.stats == trace_stats(wl.trace)
    assert list(wl._messages) == wl._quantile_matched_demands()


def _snapshot(wl: TraceWorkload):
    cols = _columns(wl)
    return wl.stats, list(wl._messages), cols, list(wl.jobs(seed=0))


def _fresh_snapshot(trace, load):
    trace_mod._DERIVED_MEMO.clear()
    trace_mod._COLUMN_MEMO.clear()
    return _snapshot(TraceWorkload(CFG, trace, load))


def _assert_same_snapshot(got, want) -> None:
    assert got[0] == want[0]
    assert got[1] == want[1]
    for c in COLUMNS:
        assert np.array_equal(got[2][c], want[2][c]), c
    assert got[3] == want[3]


def test_loads_share_one_derivation():
    jobs = sdsc_trace(300)
    wls = [TraceWorkload(CFG, jobs, load) for load in (0.005, 0.01, 0.03)]
    assert len(trace_mod._DERIVED_MEMO) == 1
    assert all(w.stats is wls[0].stats for w in wls)
    assert all(w._messages is wls[0]._messages for w in wls)
    assert len({w.factor for w in wls}) == 3
    for w in wls:
        _assert_matches_fresh(w)


@pytest.mark.parametrize("load", (0.004, 0.02))
def test_memo_hit_equals_fresh_derivation(load):
    jobs = sdsc_trace(300)
    want = _fresh_snapshot(jobs, load)
    # warm the derivation memo at another load, drop the column memo so
    # the blocks are rebuilt from the memoised demands
    TraceWorkload(CFG, jobs, 0.5)
    trace_mod._COLUMN_MEMO.clear()
    wl = TraceWorkload(CFG, jobs, load)
    _assert_same_snapshot(_snapshot(wl), want)


def test_key_covers_demand_parameters_and_content():
    jobs = sdsc_trace(300)
    base = TraceWorkload(CFG, jobs, 0.01)
    more = TraceWorkload(replace(CFG, num_mes=CFG.num_mes * 3), jobs, 0.01)
    capped = TraceWorkload(replace(CFG, max_messages=2), jobs, 0.01)
    edited = list(jobs)
    edited[7] = TraceJob(edited[7].arrival, edited[7].size,
                         edited[7].runtime * 10)
    other = TraceWorkload(CFG, edited, 0.01)
    prefix = TraceWorkload(CFG, jobs, 0.01, max_jobs=100)
    assert len(trace_mod._DERIVED_MEMO) == 5
    assert list(more._messages) != list(base._messages)
    assert max(capped._messages) == 2
    assert list(other._messages) != list(base._messages)
    assert prefix.stats.jobs == 100
    for w in (base, more, capped, other, prefix):
        _assert_matches_fresh(w)


def test_concurrent_first_use_derives_once():
    # the 8-thread barrier hammer: every thread races through first use
    # at its own load; one derivation serves them all and each thread's
    # replay equals a fresh single-threaded derivation
    jobs = sdsc_trace(300)
    loads = [0.002 * (i + 1) for i in range(8)]
    calls = []
    real = TraceWorkload._quantile_matched_demands

    def counting(self):
        calls.append(threading.get_ident())
        return real(self)

    barrier = threading.Barrier(8)

    def worker(load):
        barrier.wait(timeout=30)
        return _snapshot(TraceWorkload(CFG, jobs, load))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # force thread switches inside the race
    try:
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(TraceWorkload, "_quantile_matched_demands", counting)
            with futures.ThreadPoolExecutor(8) as pool:
                pending = [pool.submit(worker, load) for load in loads]
                got = [f.result(timeout=60) for f in pending]
    finally:
        sys.setswitchinterval(interval)
    assert len(calls) == 1
    assert len(trace_mod._DERIVED_MEMO) == 1
    assert all(g[0] is got[0][0] for g in got)
    for load, snap in zip(loads, got):
        _assert_same_snapshot(snap, _fresh_snapshot(jobs, load))
