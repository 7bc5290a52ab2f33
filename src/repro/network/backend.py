"""Network transport-backend interface and registry.

The wormhole timing model (DESIGN.md 2.1) is implemented by several
interchangeable *backends* that share one arithmetic core -- the channel
table, the ``PathTiming`` accounting and the FIFO reservation rule --
but differ in how they execute it:

* ``fast``    -- whole-path reservation, one Python loop per packet
  (the reference engine; see :mod:`repro.network.wormhole`);
* ``batch``   -- whole launches through a compiled kernel, else the
  ``fast`` loop; metric-identical to ``fast`` (see
  :mod:`repro.network.batch`);
* ``causal``  -- one event per hop, exact FIFO-by-arrival arbitration;
* ``sfb``     -- single-flit-buffer wormhole with chained channel holding.

Backends address processors by the row-major node ids allocations
carry (``Allocation.nodes``) and use them as-is.

Backends come in two families.  *Synchronous* backends
(``synchronous = True``) resolve a whole launch of traffic rounds at
injection time through :meth:`NetworkBackend.inject_rounds` and return
aggregate :class:`RoundStats`, and serve a lossy launch's Python
resolver through :meth:`NetworkBackend.transmit`, one call per
attempt (``batch`` with a kernel runs its compiled resolver instead);
*event-driven* backends deliver each packet through the engine via
:meth:`NetworkBackend.send` callbacks.
:class:`~repro.network.traffic.AllToAllTraffic` picks the path from the
``synchronous`` flag, so new backends plug in without touching the
traffic generator.

Register implementations with :func:`register_backend`; construct them
with :func:`make_backend`.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Callable, NamedTuple, Sequence, Type

from repro.core.engine import Engine
from repro.network.routing import xy_route
from repro.network.topology import MeshTopology


class PathTiming(NamedTuple):
    """Outcome of transmitting one packet.

    An immutable named tuple: the synchronous paths build one per
    packet attempt, so construction cost counts.
    """

    t_inject: float  #: service start on the injection channel
    t_deliver: float  #: last flit arrives at the destination processor
    blocking: float  #: contention stall total (injection wait excluded)

    @property
    def latency(self) -> float:
        """Paper's packet latency: injection to delivery."""
        return self.t_deliver - self.t_inject


#: XY route memos shared by every backend in the process, one per
#: ``(width, length, wrap)``: channel-id tuples keyed ``src * nodes + dst``
_ROUTE_MEMOS: dict[tuple[int, int, bool], dict[int, tuple[int, ...]]] = {}
#: shapes whose memos stay registered; the oldest is dropped beyond this
#: (a backend keeps the memo it was built with)
_ROUTE_MEMO_SHAPES = 4
#: one int object per channel id, shared by every memoised route
_CHANNEL_IDS: list[int] = []
#: guards memo creation and every route insertion, so a route is
#: computed once however many threads miss on it together
_ROUTE_LOCK = threading.Lock()


def route_memo(topology: MeshTopology) -> dict[int, tuple[int, ...]]:
    """The process-wide XY route memo of ``topology``'s shape.

    Routes depend only on ``(width, length, wrap)``, so every backend
    (every replication, every worker thread) of one shape shares one
    memo.  Its routes are tuples, never mutated.  A memo holds at most
    ``N * (N - 1)`` routes for ``N`` nodes, each at most ``W + L + 1``
    channel ids; channel ids are shared ints, so the paper's 16 x 22
    mesh tops out at about 27 MB with every pair routed.
    """
    shape = (topology.width, topology.length, bool(topology.wrap))
    memo = _ROUTE_MEMOS.get(shape)
    if memo is None:
        with _ROUTE_LOCK:
            memo = _ROUTE_MEMOS.get(shape)
            if memo is None:
                while len(_ROUTE_MEMOS) >= _ROUTE_MEMO_SHAPES:
                    del _ROUTE_MEMOS[next(iter(_ROUTE_MEMOS))]
                memo = _ROUTE_MEMOS[shape] = {}
    return memo


def _channel_ids(count: int) -> list[int]:
    """Shared int objects for channel ids ``0 .. count - 1`` (call with
    ``_ROUTE_LOCK`` held)."""
    if len(_CHANNEL_IDS) < count:
        _CHANNEL_IDS.extend(range(len(_CHANNEL_IDS), count))
    return _CHANNEL_IDS


@dataclass(frozen=True, slots=True)
class RoundStats:
    """Aggregate outcome of one job's traffic rounds (bulk ingestion)."""

    packets: int  #: packets delivered
    latency_sum: float  #: sum of per-packet latencies
    blocking_sum: float  #: sum of per-packet blocking times
    last_delivery: float  #: completion time of the final packet


class NetworkBackend:
    """Shared state and arithmetic of every transport backend.

    Holds the channel reservation table (``free_at``), the shape's
    shared XY route memo (:func:`route_memo`) and the timing constants
    derived from ``t_s``/``p_len``:
    ``hop_cost`` (header advance per channel), ``occupancy`` (channel
    hold per packet) and ``drain`` (body drain after header ejection).
    """

    #: registry name; set by subclasses
    mode: str = "abstract"
    #: True -> ``inject_rounds`` resolves a launch immediately;
    #: False -> packets travel event-driven through ``send``
    synchronous: bool = True

    def __init__(
        self,
        topology: MeshTopology,
        engine: Engine,
        t_s: float = 3.0,
        p_len: int = 8,
    ) -> None:
        self.topology = topology
        self.engine = engine
        self.t_s = float(t_s)
        self.p_len = int(p_len)
        self.hop_cost = self.t_s + 1.0  #: header advance per channel
        self.occupancy = float(p_len)  #: channel hold per packet
        self.drain = float(p_len - 1)  #: body drain after header ejection
        self.free_at: list[float] = [0.0] * topology.channel_count
        self.packets_sent = 0
        #: XY routes are static: the shape's shared memo, keyed by
        #: ``src * _node_count + dst``
        self._routes = route_memo(topology)
        self._node_count = topology.node_count

    # ------------------------------------------------------------- routing
    def _route(self, src: int, dst: int) -> tuple[int, ...]:
        key = src * self._node_count + dst
        path = self._routes.get(key)
        if path is None:
            with _ROUTE_LOCK:
                path = self._routes.get(key)
                if path is None:
                    channels = _channel_ids(self.topology.channel_count)
                    path = tuple(
                        [channels[c] for c in xy_route(self.topology, src, dst)]
                    )
                    self._routes[key] = path
        return path

    # ------------------------------------------------------------ traffic
    def transmit(self, src: int, dst: int, now: float) -> PathTiming:
        """Synchronously transmit one packet (synchronous backends only)."""
        raise NotImplementedError(
            f"{self.mode!r} backend does not support synchronous transmit"
        )

    def send(
        self,
        src: int,
        dst: int,
        now: float,
        on_delivered: Callable[[PathTiming], None],
    ) -> None:
        """Transmit one packet event-driven (event-driven backends only)."""
        raise NotImplementedError(
            f"{self.mode!r} backend does not support event-driven send"
        )

    def inject_rounds(
        self,
        nodes: Sequence[int],
        offsets: Sequence[int],
        now: float,
        round_gap: float,
    ) -> RoundStats:
        """Inject one job's full traffic: round ``r`` (the cyclic
        permutation ``i -> (i + offsets[r]) mod n`` over the node ids
        ``nodes``) is injected at ``now + r * round_gap``, every processor
        sending one packet per round.  Returns the aggregate packet
        statistics (synchronous backends only)."""
        raise NotImplementedError(
            f"{self.mode!r} backend does not support round injection"
        )

    # ------------------------------------------------------------- control
    def reset(self) -> None:
        """Clear all channel reservations (between replications)."""
        self.free_at = [0.0] * self.topology.channel_count
        self.packets_sent = 0


#: mode name -> backend class
BACKENDS: dict[str, Type[NetworkBackend]] = {}


def register_backend(cls: Type[NetworkBackend]) -> Type[NetworkBackend]:
    """Class decorator: add a backend implementation to the registry."""
    if cls.mode in BACKENDS:
        raise ValueError(f"duplicate network backend {cls.mode!r}")
    BACKENDS[cls.mode] = cls
    return cls


def make_backend(
    mode: str,
    topology: MeshTopology,
    engine: Engine,
    t_s: float = 3.0,
    p_len: int = 8,
) -> NetworkBackend:
    """Instantiate the backend registered under ``mode``."""
    try:
        cls = BACKENDS[mode]
    except KeyError:
        raise ValueError(
            f"unknown network mode {mode!r}; choose from {tuple(BACKENDS)}"
        ) from None
    return cls(topology, engine, t_s=t_s, p_len=p_len)
