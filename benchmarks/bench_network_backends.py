"""Network transport backends head-to-head on the paper's hot cell.

Times the figure-2 real-workload cell (GABL + FCFS on the 16x22 mesh at
the sweep's high load) under the ``fast`` reference, the ``batch``
backend, and ``batch`` with its compiled kernel disabled (the portable
fallback, which is the ``fast`` reference loop itself), verifies that
every batch variant reproduces ``fast`` metric-for-metric (exact
equality -- the backends share one reservation discipline), and records
the wall-clock speedup.  The acceptance bar for the batch backend is
>= 3x over ``fast`` on this cell; the assertion is gated on the
compiled reservation kernel being available, since the portable
fallback only has to be *correct*, not fast.

Results land in ``results/network_backends.txt``.
"""

from __future__ import annotations

import dataclasses
import os
import time

from _helpers import results_dir

from repro.alloc import make_allocator
from repro.core.config import PAPER_CONFIG
from repro.core.simulator import Simulator
from repro.experiments.runner import Scale, make_workload
from repro.network import _native
from repro.sched import make_scheduler

#: the fig2 cell: real workload, the smoke sweep's high load
LOAD = 0.045
SPEEDUP_TARGET = 3.0
BEST_OF = 3


def _run_cell(mode: str, jobs: int, trace_max: int):
    cfg = PAPER_CONFIG.with_(jobs=jobs, network_mode=mode)
    sc = Scale("bench", jobs=jobs, min_replications=1, max_replications=1,
               trace_max_jobs=trace_max)
    sim = Simulator(
        cfg,
        make_allocator("GABL", cfg.width, cfg.length),
        make_scheduler("FCFS"),
        make_workload("real", cfg, LOAD, sc),
    )
    t0 = time.perf_counter()
    result = sim.run()
    return result, time.perf_counter() - t0


def _measure(mode: str, jobs: int, trace_max: int, portable: bool = False):
    """Best-of-N wall clock (the container clock is noisy)."""
    if portable:
        saved = os.environ.get("REPRO_NATIVE")
        os.environ["REPRO_NATIVE"] = "0"
        _native.reset_kernel_cache()
    try:
        result, best = _run_cell(mode, jobs, trace_max)
        for _ in range(BEST_OF - 1):
            best = min(best, _run_cell(mode, jobs, trace_max)[1])
        return result, best
    finally:
        if portable:
            if saved is None:
                os.environ.pop("REPRO_NATIVE", None)
            else:
                os.environ["REPRO_NATIVE"] = saved
            _native.reset_kernel_cache()


def test_network_backends(benchmark, scale):
    jobs = {"smoke": 250, "quick": 300, "paper": 600}.get(scale, 250)
    trace_max = {"smoke": 2000, "quick": 2000, "paper": 4000}.get(scale, 2000)
    native = _native.load_kernel() is not None

    fast, t_fast = _measure("fast", jobs, trace_max)
    batch, t_batch = _measure("batch", jobs, trace_max)
    portable, t_portable = _measure("batch", jobs, trace_max, portable=True)

    speedup = t_fast / t_batch
    lines = [
        f"network backends, fig2 cell: real workload load={LOAD}, "
        f"GABL(FCFS), {jobs} jobs, native kernel: {'yes' if native else 'no'}",
        f"fast            wall={t_fast * 1e3:7.1f}ms "
        f"turnaround={fast.mean_turnaround:8.1f} "
        f"latency={fast.mean_packet_latency:6.1f}",
        f"batch           wall={t_batch * 1e3:7.1f}ms  (speedup "
        f"{speedup:.2f}x, target >= {SPEEDUP_TARGET}x with native kernel)",
        f"batch/portable  wall={t_portable * 1e3:7.1f}ms  (speedup "
        f"{t_fast / t_portable:.2f}x, correctness fallback)",
    ]
    table = "\n".join(lines)
    print("\n" + table)
    (results_dir() / "network_backends.txt").write_text(table + "\n")

    # (a) every batch engine is metric-identical to the fast reference
    for variant, tag in ((batch, "batch"), (portable, "batch/portable")):
        mismatched = [
            f.name
            for f in dataclasses.fields(fast)
            if getattr(fast, f.name) != getattr(variant, f.name)
        ]
        assert not mismatched, f"{tag} diverged from fast on: {mismatched}"
    # (b) the batch backend clears the speedup bar (with the compiled
    # kernel; the portable fallback is correctness-only)
    if native:
        assert speedup >= SPEEDUP_TARGET, (
            f"batch speedup {speedup:.2f}x below {SPEEDUP_TARGET}x"
        )
    # without a compiler the portable fallback only promises
    # correctness, so no wall-clock floor is asserted

    benchmark.pedantic(
        _run_cell, args=("batch", 60, 300), rounds=1, iterations=1
    )
