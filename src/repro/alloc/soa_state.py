"""Flat per-lane state buffers for the structure-of-arrays engine.

A :class:`LaneState` owns every array one replication lane needs --
job attributes, grid occupancy, channel free-at times, scheduler queues,
the completion heap, allocator scratch and the MBS buddy arena -- as
NumPy buffers whose raw pointers are handed to the compiled lane driver
(:mod:`repro.core._soa_native`).  Python's only jobs are slicing arrival
columns from the workload's block stream
(:mod:`repro.workload.columnar`) into the arrays -- no ``Job`` objects
are materialised on this path -- and folding the final accumulator
values into a :class:`~repro.core.metrics.RunResult` with the exact
float operations of :meth:`repro.core.metrics.Metrics.result`.
"""

from __future__ import annotations

import ctypes

import numpy as np

from repro.alloc.mbs import cover_with_squares
from repro.core import _soa_native as native
from repro.core.config import SimConfig
from repro.core.metrics import RunResult
from repro.workload.base import Workload
from repro.workload.columnar import MAX_CHUNK, JobBlock, open_stream, refill_size

#: allocator/scheduler strategies the compiled driver implements,
#: keyed by their registry names
ALLOC_KINDS = {"GABL": 0, "Paging(0)": 1, "MBS": 2}
SCHED_KINDS = {"FCFS": 0, "SSD": 1}

__all__ = ["ALLOC_KINDS", "SCHED_KINDS", "MAX_CHUNK", "LaneState"]


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

        self.F = np.zeros(native.F_COUNT, dtype=np.float64)
        self.I = np.zeros(native.I_COUNT, dtype=np.int64)
        self.I[native.I_MEMOVER] = -1
        self.I[native.I_FREE] = cells

        cap = self.cap
        self.arr = np.zeros(cap, dtype=np.float64)
        self.jw = np.zeros(cap, dtype=np.int64)
        self.jl = np.zeros(cap, dtype=np.int64)
        self.jmsg = np.zeros(cap, dtype=np.int64)
        self.jdem = np.zeros(cap, dtype=np.float64)
        self.jat = np.zeros(cap, dtype=np.float64)
        self.jpk = np.zeros(cap, dtype=np.int64)
        self.jlat = np.zeros(cap, dtype=np.float64)
        self.jblk = np.zeros(cap, dtype=np.float64)
        self.jns = np.zeros(cap, dtype=np.int64)
        self.fcfs = np.zeros(cap, dtype=np.int64)
        self.ssdk = np.zeros(cap, dtype=np.float64)
        self.ssds = np.zeros(cap, dtype=np.int64)
        self.ssdj = np.zeros(cap, dtype=np.int64)
        self.rem = np.zeros(cap, dtype=np.uint8)

        self.owner = np.full(cells, -1, dtype=np.int64)
        self.free_at = np.zeros(cells * 6, dtype=np.float64)
        self.memo = np.zeros(cells, dtype=np.uint8)
        heap_cap = self.processors + 8
        self.ct = np.zeros(heap_cap, dtype=np.float64)
        self.cs = np.zeros(heap_cap, dtype=np.int64)
        self.cj = np.zeros(heap_cap, dtype=np.int64)
        self.ids = np.zeros(cells, dtype=np.int64)
        self.offs = np.zeros(max(config.max_messages, 1), dtype=np.int64)
        self.xy = np.zeros(2 * cells, dtype=np.int64)
        self.link = np.zeros(cells, dtype=np.int64)
        self.jhead = np.zeros(cap, dtype=np.int64)
        window = max(config.scheduler_window, 1)
        self.window = window
        self.pkk = np.zeros(window, dtype=np.float64)
        self.pks = np.zeros(window, dtype=np.int64)
        self.pkj = np.zeros(window, dtype=np.int64)
        self.hts = np.zeros(cells, dtype=np.int64)
        self.ero = np.zeros(cells, dtype=np.int64)
        self.sat = np.zeros((W + 1) * (L + 1), dtype=np.int64)

        if alloc_kind == ALLOC_KINDS["MBS"]:
            roots = cover_with_squares(W, L)
            self.max_k = max(k for k, _, _ in roots)
            self.rk = np.array([k for k, _, _ in roots], dtype=np.int64)
            self.rx = np.array([x for _, x, _ in roots], dtype=np.int64)
            self.ry = np.array([y for _, _, y in roots], dtype=np.int64)
            self.node_cap = 2 * cells + 64
            node_cap = self.node_cap
            self.nk = np.zeros(node_cap, dtype=np.int64)
            self.nx = np.zeros(node_cap, dtype=np.int64)
            self.ny = np.zeros(node_cap, dtype=np.int64)
            self.npar = np.zeros(node_cap, dtype=np.int64)
            self.nchild = np.zeros(node_cap, dtype=np.int64)
            self.nstate = np.zeros(node_cap, dtype=np.uint8)
            self.nepoch = np.zeros(node_cap, dtype=np.int64)
            self.nown = np.zeros(node_cap, dtype=np.int64)
            # per-level heap arenas: blocks at level k are disjoint
            # 2**k-sided squares, so at most cells // 4**k are ever valid
            level_caps = [
                (cells >> (2 * k)) + 8 for k in range(self.max_k + 1)
            ]
            self.mhoff = np.zeros(self.max_k + 2, dtype=np.int64)
            np.cumsum(level_caps, out=self.mhoff[1:])
            arena = int(self.mhoff[-1])
            self.mhe = np.zeros(arena, dtype=np.int64)
            self.mhn = np.zeros(arena, dtype=np.int64)
            self.mhl = np.zeros(self.max_k + 1, dtype=np.int64)
        else:
            self.max_k = 0
            self.node_cap = 0
            one = np.zeros(1, dtype=np.int64)
            self.rk = self.rx = self.ry = one
            self.nk = self.nx = self.ny = one
            self.npar = self.nchild = self.nepoch = self.nown = one
            self.nstate = np.zeros(1, dtype=np.uint8)
            self.mhe = self.mhn = self.mhl = one
            self.mhoff = np.zeros(2, dtype=np.int64)

        self.CI = np.zeros(native.CI_COUNT, dtype=np.int64)
        ci = self.CI
        ci[native.CI_MAGIC] = native.LAYOUT_MAGIC
        ci[native.CI_W] = W
        ci[native.CI_L] = L
        ci[native.CI_WRAP] = int(config.topology == "torus")
        ci[native.CI_ALLOC] = alloc_kind
        ci[native.CI_SCHED] = sched_kind
        ci[native.CI_WINDOW] = window
        ci[native.CI_JOBS] = config.jobs
        ci[native.CI_WARMUP] = config.warmup_jobs
        ci[native.CI_HASUNTIL] = int(config.max_time is not None)
        ci[native.CI_NODECAP] = self.node_cap
        ci[native.CI_NROOTS] = len(self.rk)
        ci[native.CI_MAXK] = self.max_k
        # timing constants, exactly as FastBackend/AllToAllTraffic derive
        # them: hop = t_s + 1, occupancy = p_len, drain = p_len - 1,
        # round gap = round_gap_factor * p_len
        self.CF = np.array(
            [
                config.t_s + 1.0,
                float(config.p_len),
                float(config.p_len - 1),
                config.round_gap_factor * config.p_len,
                config.max_time if config.max_time is not None else 0.0,
            ],
            dtype=np.float64,
        )
        self._rebuild_pointers()

    # ------------------------------------------------------------ pointers
    def _rebuild_pointers(self) -> None:
        arrays = [
            self.F, self.I, self.arr, self.jw, self.jl, self.jmsg,
            self.jdem, self.jat, self.jpk, self.jlat, self.jblk, self.jns,
            self.owner, self.free_at, self.memo,
            self.fcfs, self.ssdk, self.ssds, self.ssdj, self.rem,
            self.ct, self.cs, self.cj,
            self.ids, self.offs, self.pkk, self.pks, self.pkj,
            self.hts, self.ero, self.sat,
            self.nk, self.nx, self.ny, self.npar, self.nchild,
            self.nstate, self.nepoch, self.nown,
            self.mhe, self.mhn, self.mhl, self.mhoff,
            self.rk, self.rx, self.ry, self.xy, self.link, self.jhead,
        ]
        assert len(arrays) == native.P_COUNT
        table = (ctypes.c_void_p * native.P_COUNT)()
        for i, a in enumerate(arrays):
            table[i] = a.ctypes.data
        #: keep the backing arrays alive alongside the raw pointers
        self._arrays = arrays
        self.ptable = table

    @property
    def ci_ptr(self) -> int:
        return self.CI.ctypes.data

    @property
    def cf_ptr(self) -> int:
        return self.CF.ctypes.data

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
        self.CI[native.CI_NPROV] = n
        self.CI[native.CI_EXH] = int(self.exhausted)

    def _grow(self) -> None:
        new_cap = self.cap * 2

        def g(a: np.ndarray) -> np.ndarray:
            out = np.zeros(new_cap, dtype=a.dtype)
            out[: self.cap] = a
            return out

        self.arr = g(self.arr)
        self.jw = g(self.jw)
        self.jl = g(self.jl)
        self.jmsg = g(self.jmsg)
        self.jdem = g(self.jdem)
        self.jat = g(self.jat)
        self.jpk = g(self.jpk)
        self.jlat = g(self.jlat)
        self.jblk = g(self.jblk)
        self.jns = g(self.jns)
        self.fcfs = g(self.fcfs)
        self.ssdk = g(self.ssdk)
        self.ssds = g(self.ssds)
        self.ssdj = g(self.ssdj)
        self.rem = g(self.rem)
        self.jhead = g(self.jhead)
        self.cap = new_cap
        self._rebuild_pointers()

    # -------------------------------------------------------------- result
    def result(self) -> RunResult:
        """Freeze the lane accumulators, mirroring ``Metrics.result``."""
        F, I = self.F, self.I
        now = float(F[native.F_NOW])
        measured = int(I[native.I_MEASURED])
        n = max(measured, 1)
        packets = int(I[native.I_PACKETS])
        pk = max(packets, 1)
        span = now - 0.0
        if span <= 0:
            utilization = 0.0
        else:
            integral = float(F[native.F_BUSYINT]) + int(
                I[native.I_BUSY]
            ) * (now - float(F[native.F_LASTCHANGE]))
            utilization = integral / (self.processors * span)
        return RunResult(
            completed_jobs=int(I[native.I_COMPLETED]),
            measured_jobs=measured,
            mean_turnaround=float(F[native.F_TURN]) / n,
            mean_service=float(F[native.F_SERV]) / n,
            mean_wait=float(F[native.F_WAIT]) / n,
            mean_packet_latency=float(F[native.F_LAT]) / pk,
            mean_packet_blocking=float(F[native.F_BLK]) / pk,
            utilization=utilization,
            sim_time=now,
            packets_delivered=packets,
            mean_fragments=int(I[native.I_FRAG]) / n,
            contiguity_rate=int(I[native.I_CONTIG]) / n,
            queue_peak=int(I[native.I_QPEAK]),
        )
