"""Structure-of-arrays execution of replication batches.

One grid point's replication batch -- same strategy combination,
different seeds -- advances as a set of *lanes* that step in lockstep
rounds.  When the compiled lane driver (:mod:`repro.core._soa_native`)
is available and the point uses strategies it implements, each round is
one C call per live lane (``soa_advance``) that executes the
discrete-event loop, schedulers, allocators and wormhole timing over
flat arrays (:class:`repro.alloc.soa_state.LaneState`), surfacing to
Python only to refill arrivals.  Otherwise each seed is one ordinary
reference :meth:`~repro.core.simulator.Simulator.run`.

Both paths are bit-identical to the per-run reference engine;
``tests/test_engine_equivalence.py`` enforces it.

Thread parallelism: each ``soa_advance`` call releases the GIL (ctypes
foreign call) and touches only its own batch's flat arrays -- the
driver's GIL-release contract (:mod:`repro.core._soa_native`).  The
campaign's thread executor exploits this: batches of *different* points
run :func:`run_point_batch` concurrently from one process, sharing the
block cache and trace memos; a batch's own lanes still advance
sequentially within its round loop.
"""

from __future__ import annotations

from typing import Callable, Iterable

from repro.alloc.soa_state import ALLOC_KINDS, SCHED_KINDS, LaneState
from repro.core import _soa_native as native
from repro.core.metrics import RunResult
from repro.core.simulator import Simulator


def native_supported(sim: Simulator) -> bool:
    """True when the compiled driver can run this simulator's point.

    The driver implements the paper's strategy matrix -- GABL /
    Paging(0) / MBS under FCFS / SSD with the batch network backend --
    with default strategy options.  Anything else (other allocators,
    rotation disabled, non-row-major paging, extra observers, per-job
    records) falls back to per-seed reference runs.  An active lossy
    channel (``config.channel``) always falls back: ARQ retransmissions
    run only through the reference per-packet path.  GABL on a mesh
    wider than 64 falls back too: the driver's rectangle search keeps
    one 64-bit word per mesh row (any length is fine), so each seed
    runs through the reference engine with the same results.
    """
    if native.load_kernel() is None:
        return False
    if sim.network.mode != "batch":
        return False
    if sim.traffic.channel is not None:
        return False
    if len(sim.observers) != 1 or sim.metrics.keep_jobs:
        return False
    alloc = sim.allocator
    if alloc.name not in ALLOC_KINDS:
        return False
    if alloc.name == "GABL" and (
        not getattr(alloc, "allow_rotation", False) or alloc.width > 64
    ):
        return False
    if alloc.name == "Paging(0)" and alloc.indexing != "row-major":
        return False
    return sim.scheduler.name in SCHED_KINDS


def run_point_batch(
    build: Callable[[int], Simulator], seeds: Iterable[int]
) -> list[RunResult]:
    """Run one replication batch; one result per seed, in seed order.

    ``build(seed)`` constructs a fresh simulator for a seed (the caller
    binds the point's strategies and workload).
    """
    seeds = list(seeds)
    if not seeds:
        return []
    probe = build(seeds[0])
    if native_supported(probe):
        return _run_native(probe, seeds)
    return [probe.run()] + [build(seed).run() for seed in seeds[1:]]


# ---------------------------------------------------------------- native
def _run_native(probe: Simulator, seeds: list[int]) -> list[RunResult]:
    kernel = native.load_kernel()
    assert kernel is not None
    alloc_kind = ALLOC_KINDS[probe.allocator.name]
    sched_kind = SCHED_KINDS[probe.scheduler.name]
    lanes = [
        LaneState(probe.config, probe.workload, seed, alloc_kind, sched_kind)
        for seed in seeds
    ]
    cells = probe.config.width * probe.config.length
    for lane in lanes:
        lane.feed()
    live = list(range(len(lanes)))
    while live:
        nxt = []
        for i in live:
            lane = lanes[i]
            rc = kernel.soa_advance(lane.ptable, lane.ci_ptr, lane.cf_ptr)
            # every processor is free or busy between events: a lane that
            # leaks cells would otherwise stall and refill without bound
            free, busy = lane.I[native.I_FREE], lane.I[native.I_BUSY]
            if free + busy != cells:
                raise RuntimeError(
                    f"soa lane lost track of processors: {free} free + "
                    f"{busy} busy != {cells} ({_where(probe, lane)})"
                )
            if rc == native.RC_DONE:
                continue
            if rc == native.RC_NEED_JOBS:
                lane.feed()
                nxt.append(i)
            else:
                raise RuntimeError(
                    f"soa kernel failed with code {rc} ({_where(probe, lane)})"
                )
        live = nxt
    return [lane.result() for lane in lanes]


def _where(probe: Simulator, lane: LaneState) -> str:
    return f"seed {lane.seed}, {probe.allocator.name}/{probe.scheduler.name}"
