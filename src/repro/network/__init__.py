"""Wormhole-switched 2D-mesh interconnect simulator.

Implements the paper's network model: XY dimension-ordered routing,
``t_s``-cycle router decisions, one flit per time unit per link,
``P_len``-flit packets, per-channel FIFO arbitration, and all-to-all
job traffic (section 5).

The timing engines live behind the pluggable transport-backend layer in
:mod:`repro.network.backend`: ``fast`` (reference whole-path
reservation), ``batch`` (whole launches through a compiled kernel,
bit-identical to ``fast``, the default), ``causal`` (exact per-hop
arbitration) and ``sfb`` (single-flit-buffer wormhole).
"""

from repro.network.topology import MeshTopology, Direction
from repro.network.routing import xy_route, xy_route_nodes
from repro.network.backend import (
    NetworkBackend,
    PathTiming,
    RoundStats,
    make_backend,
    register_backend,
)
from repro.network.wormhole import CausalBackend, FastBackend, SFBBackend
from repro.network.batch import BatchBackend
from repro.network.arq import ARQ_PROTOCOLS, LaunchArq
from repro.network.channel import (
    ChannelModel,
    ChannelPolicy,
    canonical_channel,
    parse_channel,
)
from repro.network.traffic import (
    AllToAllTraffic,
    destination_offsets,
    destination_schedule,
)

__all__ = [
    "MeshTopology",
    "Direction",
    "xy_route",
    "xy_route_nodes",
    "NetworkBackend",
    "PathTiming",
    "RoundStats",
    "make_backend",
    "register_backend",
    "FastBackend",
    "BatchBackend",
    "CausalBackend",
    "SFBBackend",
    "AllToAllTraffic",
    "destination_offsets",
    "destination_schedule",
    "ARQ_PROTOCOLS",
    "LaunchArq",
    "ChannelModel",
    "ChannelPolicy",
    "canonical_channel",
    "parse_channel",
]
