"""Flat per-lane state buffers for the structure-of-arrays engine.

A :class:`LaneState` owns every array one replication lane needs --
job attributes, grid occupancy, channel free-at times, scheduler queues,
the completion heap, allocator scratch and the MBS buddy arena -- as
NumPy buffers whose raw pointers are handed to the compiled lane driver
(:mod:`repro.core._soa_native`).  The buffers are exactly the entries of
that module's :data:`~repro.core._soa_native.LANE` table, each an
attribute named after its entry's ``field``.  Python's only jobs are
slicing arrival columns from the workload's block stream
(:mod:`repro.workload.columnar`) into the arrays -- no ``Job`` objects
are materialised on this path -- and folding the final accumulator
values into a :class:`~repro.core.metrics.RunResult` through
:func:`repro.core.metrics.run_result`, the finaliser the reference
engine's :class:`~repro.core.metrics.Metrics` uses.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.alloc.mbs import cover_with_squares
from repro.core import _soa_native as native
from repro.core.config import SimConfig
from repro.core.metrics import RunResult, run_result
from repro.workload.base import Workload
from repro.workload.columnar import MAX_CHUNK, JobBlock, open_stream, refill_size

#: allocator/scheduler strategies the compiled driver implements,
#: keyed by their registry names
ALLOC_KINDS = {"GABL": 0, "Paging(0)": 1, "MBS": 2}
SCHED_KINDS = {"FCFS": 0, "SSD": 1}

__all__ = ["ALLOC_KINDS", "SCHED_KINDS", "MAX_CHUNK", "LaneState"]


def _address(buf: np.ndarray) -> int:
    """The address of ``buf``'s data.  ``c_char.from_buffer`` reads it
    about twice as fast as ``buf.ctypes.data``, but needs a byte to map,
    so an empty buffer takes the slow path."""
    if buf.nbytes:
        return ctypes.addressof(ctypes.c_char.from_buffer(buf))
    return buf.ctypes.data


class LaneState:
    """All flat state of one replication lane (one seed of one point)."""

    def __init__(
        self,
        config: SimConfig,
        workload: Workload,
        seed: int,
        alloc_kind: int,
        sched_kind: int,
    ) -> None:
        self.config = config
        self.seed = seed
        W, L = config.width, config.length
        self.processors = config.processors
        cells = W * L
        self.cap = max(config.jobs + 64, 256)
        self._cursor = open_stream(workload, seed)
        self._block: JobBlock | None = None
        self._boff = 0
        self.n_provided = 0
        self.exhausted = False

        mbs = alloc_kind == ALLOC_KINDS["MBS"]
        roots = cover_with_squares(W, L) if mbs else []
        max_k = max((k for k, _, _ in roots), default=0)
        node_cap = 2 * cells + 64 if mbs else 0
        # per-level heap arenas: blocks at level k are disjoint 2**k-sided
        # squares, so at most cells // 4**k are ever valid
        level_caps = (
            [(cells >> (2 * k)) + 8 for k in range(max_k + 1)] if mbs else []
        )
        window = max(config.scheduler_window, 1)
        # the length of each size rule of ``native.LANE``
        sizes = {
            "F": native.F_COUNT,
            "I": native.I_COUNT,
            "jobs": self.cap,
            "cells": cells,
            "channels": 6 * cells,
            "xy": 2 * cells,
            "heap": self.processors + 8,
            "length": L,
            "messages": max(config.max_messages, 1),
            "window": window,
            "nodes": node_cap,
            "arena": sum(level_caps),
            "levels": len(level_caps),
            "offsets": len(level_caps) + 1,
            "roots": len(roots),
        }
        for lane in native.LANE:
            setattr(self, lane.field,
                    np.zeros(sizes[lane.size], dtype=lane.dtype))
        self.I[native.I_MEMOVER] = -1
        self.I[native.I_FREE] = cells
        self.owner.fill(-1)
        if roots:
            self.rk[:], self.rx[:], self.ry[:] = zip(*roots)
        np.cumsum(level_caps, out=self.mhoff[1:])

        ci = self.CI = np.zeros(native.CI_COUNT, dtype=np.int64)
        ci[native.CI_MAGIC] = native.LAYOUT_MAGIC
        ci[native.CI_W] = W
        ci[native.CI_L] = L
        ci[native.CI_WRAP] = int(config.topology == "torus")
        ci[native.CI_ALLOC_KIND] = alloc_kind
        ci[native.CI_SCHED_KIND] = sched_kind
        ci[native.CI_WINDOW] = window
        ci[native.CI_JOBS_TARGET] = config.jobs
        ci[native.CI_WARMUP] = config.warmup_jobs
        ci[native.CI_HAS_UNTIL] = int(config.max_time is not None)
        ci[native.CI_NODE_CAP] = node_cap
        ci[native.CI_N_ROOTS] = len(roots)
        ci[native.CI_MAX_K] = max_k
        # timing constants, exactly as FastBackend/AllToAllTraffic derive
        # them: hop = t_s + 1, occupancy = p_len, drain = p_len - 1,
        # round gap = round_gap_factor * p_len
        cf = self.CF = np.zeros(native.CF_COUNT, dtype=np.float64)
        cf[native.CF_HOP] = config.t_s + 1.0
        cf[native.CF_OCC] = float(config.p_len)
        cf[native.CF_DRAIN] = float(config.p_len - 1)
        cf[native.CF_GAP] = config.round_gap_factor * config.p_len
        if config.max_time is not None:
            cf[native.CF_UNTIL] = config.max_time
        # ``ptable`` points at the buffers, one slot per ``native.LANE``
        # entry (the buffers stay alive as attributes)
        self.ptable = (ctypes.c_void_p * native.P_COUNT)(
            *(_address(getattr(self, lane.field)) for lane in native.LANE)
        )
        self.ci_ptr = _address(ci)
        self.cf_ptr = _address(cf)

    # ------------------------------------------------------------- feeding
    def feed(self) -> None:
        """Copy the next chunk of arrival columns into the job arrays.

        Refill sizing follows the one documented policy in
        :func:`repro.workload.columnar.refill_size` (first fill =
        completion target + slack, later fills grow with consumption,
        both capped at ``MAX_CHUNK``).  Arrivals come as
        :class:`~repro.workload.columnar.JobBlock` column slices and
        land in the lane arrays as bulk slice assignments -- zero
        ``Job`` objects on this path.  A block boundary rarely lines up
        with a refill boundary, so a partially consumed block is kept
        across calls (``_block`` / ``_boff``); exhaustion can land
        mid-chunk and simply marks the lane finished with whatever was
        copied.
        """
        if self.exhausted:
            return
        want = refill_size(self.n_provided, self.config.jobs)
        n = self.n_provided
        while want > 0:
            if self._block is None:
                self._block = self._cursor.next_block()
                self._boff = 0
                if self._block is None:
                    self.exhausted = True
                    break
            blk = self._block
            take = min(want, len(blk) - self._boff)
            a, b = self._boff, self._boff + take
            end = n + take
            while end > self.cap:
                self._grow()
            self.arr[n:end] = blk.arrival[a:b]
            self.jw[n:end] = blk.width[a:b]
            self.jl[n:end] = blk.length[a:b]
            self.jmsg[n:end] = blk.messages[a:b]
            self.jdem[n:end] = blk.demand[a:b]
            n = end
            want -= take
            if b == len(blk):
                self._block = None
            else:
                self._boff = b
        self.n_provided = n
        self.CI[native.CI_N_PROV] = n
        self.CI[native.CI_EXHAUSTED] = int(self.exhausted)

    def _grow(self) -> None:
        self.cap *= 2
        for slot, lane in enumerate(native.LANE):
            if lane.size == "jobs":
                old = getattr(self, lane.field)
                new = np.zeros(self.cap, dtype=old.dtype)
                new[: len(old)] = old
                setattr(self, lane.field, new)
                self.ptable[slot] = _address(new)

    # -------------------------------------------------------------- result
    def result(self) -> RunResult:
        """Freeze the lane accumulators through the reference engine's
        finaliser."""
        F, I = self.F, self.I
        return run_result(
            self.processors, float(F[native.F_NOW]),
            completed=int(I[native.I_COMPLETED]),
            measured=int(I[native.I_MEASURED]),
            turnaround_sum=float(F[native.F_TURN]),
            service_sum=float(F[native.F_SERV]),
            wait_sum=float(F[native.F_WAIT]),
            latency_sum=float(F[native.F_LAT]),
            blocking_sum=float(F[native.F_BLK]),
            packets=int(I[native.I_PACKETS]),
            busy_integral=float(F[native.F_BUSYINT]),
            busy_procs=int(I[native.I_BUSY]),
            last_change=float(F[native.F_LASTCHANGE]),
            fragments_sum=int(I[native.I_FRAG]),
            contiguous_jobs=int(I[native.I_CONTIG]),
            queue_peak=int(I[native.I_QPEAK]),
        )
