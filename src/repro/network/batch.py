"""Launch-level transport backend (bit-identical to ``fast``).

The ``fast`` engine resolves each packet with one Python loop over its
route; at high load a single job injects thousands of packets, making
that loop the simulation's hot path.  This backend keeps the *same*
reservation discipline -- whole-path reservation in deterministic packet
order, FIFO channel grants, identical ``PathTiming`` arithmetic -- but
hands an entire launch (every round of a job's all-to-all exchange) to
the compiled kernel in :mod:`repro.network._native`, which walks the XY
routes and runs the reference recurrence at C speed in one call.

A lossy launch goes to the same kernel's ``resolve_launch`` through
:func:`repro.network.channel.resolve_launch`, which reads the loaded
kernel from :attr:`BatchBackend.kernel`: C runs the whole launch -- its
reservations, retransmissions and ARQ protocol -- while the fates and
delays are still drawn in Python, a buffer per generation of failures.

With the kernel loaded, the reservation table ``free_at`` is an
``array('d')``: the kernel writes its contiguous float64 buffer in
place.  When no kernel is available (no C compiler, ``REPRO_NATIVE=0``)
the backend *is* the ``fast`` reference loop: the inherited list
``free_at`` and ``inject_rounds``, and lossy launches run the Python
resolver over the inherited ``transmit``.  The kernel performs
literally the same float64 operations in the same order, so both paths
are bit-identical to ``fast`` for any float configuration -- enforced
by ``tests/test_network_backend_equivalence.py``,
``tests/test_network_properties.py`` and
``tests/test_channel_equivalence.py``.
"""

from __future__ import annotations

import ctypes
from array import array
from typing import Sequence

import numpy as np

from repro.core.engine import Engine
from repro.network import _native
from repro.network.backend import RoundStats, register_backend
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
        #: the compiled kernel, ``None`` when unavailable
        self.kernel = _native.load_kernel()
        if self.kernel is not None:
            self.free_at = array("d", bytes(8 * topology.channel_count))
            #: the kernel's per-launch (x, y) scratch, two slots per node
            self._xy = array("q", bytes(16 * topology.node_count))

    def reset(self) -> None:
        super().reset()
        if self.kernel is not None:
            self.free_at = array("d", bytes(8 * self.topology.channel_count))

    def inject_rounds(
        self,
        nodes: Sequence[int],
        offsets: Sequence[int],
        now: float,
        round_gap: float,
    ) -> RoundStats:
        if self.kernel is None:
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
        self.kernel.solve_rounds(
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
