"""Launch-level transport backend (bit-identical to ``fast``).

The ``fast`` engine resolves each packet with one Python loop over its
route; at high load a single job injects thousands of packets, making
that loop the simulation's hot path.  This backend keeps the *same*
reservation discipline -- whole-path reservation in deterministic packet
order, FIFO channel grants, identical ``PathTiming`` arithmetic -- but
hands an entire launch (every round of a job's all-to-all exchange) to
the compiled kernel in :mod:`repro.network._native`, which walks the XY
routes and runs the reference recurrence at C speed in one call.

A lossy launch cannot be resolved in one call: its fates are drawn in
Python between rounds.  There ``round_reserver`` hands each round of
original sends to the kernel's ``solve_round``, which writes every
packet's timing, and retransmissions go through the inherited
per-packet ``transmit``.

With the kernel loaded, the reservation table ``free_at`` is an
``array('d')``: the kernel writes its contiguous float64 buffer in
place, and ``transmit`` reads plain Python floats from it, not NumPy
scalars.  When no kernel is available (no C compiler,
``REPRO_NATIVE=0``) the backend *is* the ``fast`` reference loop: the
inherited list ``free_at``, ``inject_rounds`` and ``round_reserver``.
The kernel performs literally the same float64 operations in the same
order, so both paths are bit-identical to ``fast`` for any float
configuration -- enforced by ``tests/test_network_backend_equivalence.py``
and ``tests/test_network_properties.py``.
"""

from __future__ import annotations

import ctypes
from array import array
from typing import Sequence

import numpy as np

from repro.core.engine import Engine
from repro.network import _native
from repro.network.backend import RoundReserver, RoundStats, register_backend
from repro.network.topology import MeshTopology
from repro.network.wormhole import FastBackend


@register_backend
class BatchBackend(FastBackend):
    """Whole launches through the compiled reservation kernel.

    Subclasses :class:`~repro.network.wormhole.FastBackend` so the
    single-packet ``transmit`` path -- and, without a kernel, the whole
    ``inject_rounds`` loop -- *is* the reference implementation (one
    shared recurrence, no drift).  With a kernel, ``free_at`` is an
    ``array('d')`` table whose buffer the kernel updates in place.
    """

    mode = "batch"
    synchronous = True

    def __init__(
        self,
        topology: MeshTopology,
        engine: Engine,
        t_s: float = 3.0,
        p_len: int = 8,
    ) -> None:
        super().__init__(topology, engine, t_s=t_s, p_len=p_len)
        self._kernel = _native.load_kernel()
        if self._kernel is not None:
            self.free_at = array("d", bytes(8 * topology.channel_count))
            #: the kernel's per-launch (x, y) scratch, two slots per node
            self._xy = array("q", bytes(16 * topology.node_count))

    def reset(self) -> None:
        super().reset()
        if self._kernel is not None:
            self.free_at = array("d", bytes(8 * self.topology.channel_count))

    def inject_rounds(
        self,
        nodes: Sequence[int],
        offsets: Sequence[int],
        now: float,
        round_gap: float,
    ) -> RoundStats:
        if self._kernel is None:
            return super().inject_rounds(nodes, offsets, now, round_gap)
        n = len(nodes)
        ids = np.array(nodes, dtype=np.int64)
        if 2 * n > len(self._xy):  # a node list with repeats
            self._xy = array("q", bytes(16 * n))
        packets = n * len(offsets)
        self.packets_sent += packets
        offs = np.asarray(offsets, dtype=np.int64)
        out = np.zeros(3)
        out[2] = now  # last-delivery accumulator starts at launch time
        topo = self.topology
        as_ptr = ctypes.c_void_p
        self._kernel.solve_rounds(
            as_ptr(ids.ctypes.data), ctypes.c_int64(n),
            as_ptr(offs.ctypes.data), ctypes.c_int64(len(offs)),
            ctypes.c_double(now), ctypes.c_double(round_gap),
            as_ptr(self.free_at.buffer_info()[0]),
            ctypes.c_double(self.hop_cost), ctypes.c_double(self.occupancy),
            ctypes.c_double(self.drain),
            ctypes.c_int64(topo.width), ctypes.c_int64(topo.length),
            ctypes.c_int32(int(topo.wrap)), as_ptr(self._xy.buffer_info()[0]),
            as_ptr(out.ctypes.data),
        )
        return RoundStats(
            packets=packets,
            latency_sum=float(out[0]),
            blocking_sum=float(out[1]),
            last_delivery=float(out[2]),
        )

    def round_reserver(self, nodes: Sequence[int]) -> RoundReserver:
        """One ``solve_round`` kernel call per round.  The node ids and
        their ``(x, y)`` are converted once here, per launch; each round
        then reads its packets' timings back from one ``3 * n`` buffer."""
        if self._kernel is None:
            return super().round_reserver(nodes)
        n = len(nodes)
        topo = self.topology
        width = topo.width
        ids = array("q", nodes)
        xy = array("q", [c for v in nodes for c in (v % width, v // width)])
        out = array("d", bytes(24 * n))
        solve = self._kernel.solve_round
        head = (ids.buffer_info()[0], xy.buffer_info()[0], n)
        tail = (
            self.free_at.buffer_info()[0], self.hop_cost, self.occupancy,
            self.drain, topo.width, topo.length, int(topo.wrap),
            out.buffer_info()[0],
        )

        def reserve(offset: int, now: float, _own=(ids, xy)):
            # _own keeps the buffers behind ``head`` alive with the closure
            solve(*head, offset, now, *tail)
            self.packets_sent += n
            timings = iter(out.tolist())
            return zip(timings, timings, timings)

        return reserve
