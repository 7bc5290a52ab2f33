"""Simulation configuration (the paper's section-5 parameter table).

Defaults are the paper's: a 16x22 mesh (chosen to match the 352-node SDSC
Paragon partition that generated the trace), router delay ``t_s = 3`` time
units, ``P_len = 8`` flits per packet, and a mean of ``num_mes = 5``
messages per processor per job, all-to-all pattern.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from numbers import Integral, Real
from typing import Any

#: network timing engines selectable through :attr:`SimConfig.network_mode`
#: (kept as a literal so the config layer does not import the network
#: package; the registry in repro.network.backend is the source of truth)
NETWORK_MODES = ("batch", "fast", "causal", "sfb")

#: simulation engines selectable through :attr:`SimConfig.engine`:
#: "reference" runs one Python event loop per replication (the original
#: implementation), "soa" advances a whole replication batch in lockstep
#: through the structure-of-arrays driver (repro.core.soa), which runs
#: the event loop, schedulers and allocators in a compiled kernel when a
#: C compiler is available.  Both engines are bit-identical (enforced by
#: tests/test_engine_equivalence.py), so the choice never affects results.
ENGINES = ("reference", "soa")

#: resolution of the dyadic simulation-time grid (ticks per time unit).
#: Workloads snap arrival times onto it so that -- together with
#: grid-exact timing constants -- every derived event time is an exact
#: binary float, making all network backends bit-identical regardless
#: of how their sums are associated (see repro.network.batch).
TIME_GRID = 1024.0

#: fields that must hold an integer / a finite real number: a malformed
#: scenario override fails at construction, not mid-run
_INT_FIELDS = (
    "width", "length", "p_len", "max_messages", "jobs", "warmup_jobs",
    "seed", "scheduler_window",
)
_REAL_FIELDS = ("t_s", "num_mes", "trace_demand_multiplier", "round_gap_factor")


def _is_finite_real(value: Any) -> bool:
    return (isinstance(value, Real) and not isinstance(value, bool)
            and math.isfinite(value))


@dataclass(frozen=True, slots=True)
class SimConfig:
    """All knobs of one simulation run."""

    # --- machine (paper: 16 x 22 mesh, 352 processors)
    width: int = 16
    length: int = 22
    #: "mesh" (the paper) or "torus" (its stated future-work direction)
    topology: str = "mesh"

    # --- interconnect (paper: wormhole switching, t_s = 3, P_len = 8)
    t_s: float = 3.0  #: router decision delay per node, time units
    p_len: int = 8  #: packet size in flits; links move one flit/time unit

    # --- network transport backend (see repro.network.backend)
    #: timing engine: "batch" (compiled kernel, the default), "fast" (the
    #: bit-identical reference loop), "causal" (exact per-hop
    #: arbitration) or "sfb" (single-flit-buffer wormhole)
    network_mode: str = "batch"

    # --- traffic (paper: all-to-all, num_mes = 5)
    num_mes: float = 5.0  #: mean messages per processor per job
    max_messages: int = 512  #: cap on per-processor messages (trace tail)
    #: trace jobs' mean communication demand is
    #: ``num_mes * trace_demand_multiplier`` messages per processor,
    #: calibrated so simulated real-workload service times land in the
    #: 200-1500 time-unit range of the paper's Fig. 5 (DESIGN.md 2.3)
    trace_demand_multiplier: float = 1.0
    #: communication rounds are spaced ``round_gap_factor * p_len`` time
    #: units apart (the compute phase between message exchanges of the
    #: ProcSimity job model); 1.0 means back-to-back injection
    round_gap_factor: float = 2.0

    # --- run control
    jobs: int = 1000  #: completed jobs per run (paper: 1000)
    warmup_jobs: int = 0  #: completions excluded from statistics
    seed: int = 12345  #: master RNG seed
    max_time: float | None = None  #: optional wall-clock cut-off (sim time)

    # --- scheduling
    scheduler_window: int = 1  #: 1 = paper's head-blocking semantics

    # --- execution engine (see repro.core.soa; results are identical)
    engine: str = "reference"  #: "reference" (per-run loop) or "soa" (lockstep)

    # --- lossy interconnect (see repro.network.channel)
    #: channel policy spec (e.g. ``"loss:0.05 + delay:exp:0.1"``) or None
    #: for the paper's perfect links; stored in canonical form.  A policy
    #: that can fail packets requires :attr:`arq`.
    channel: str | None = None
    #: ARQ retransmission protocol: "stop-and-wait", "go-back-n" or
    #: "selective-repeat" (inert unless :attr:`channel` can fail packets)
    arq: str | None = None

    def __post_init__(self) -> None:
        for name in _INT_FIELDS:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, Integral):
                raise ValueError(f"{name} must be an integer, got {value!r}")
        for name in _REAL_FIELDS:
            value = getattr(self, name)
            if not _is_finite_real(value):
                raise ValueError(
                    f"{name} must be a finite real number, got {value!r}"
                )
        if self.max_time is not None and not (
            _is_finite_real(self.max_time) and self.max_time > 0
        ):
            raise ValueError(
                "max_time must be null or a positive finite number, "
                f"got {self.max_time!r}"
            )
        if self.width <= 0 or self.length <= 0:
            raise ValueError("mesh dimensions must be positive")
        if self.topology not in ("mesh", "torus"):
            raise ValueError(f"unknown topology {self.topology!r}")
        if self.network_mode not in NETWORK_MODES:
            raise ValueError(
                f"unknown network mode {self.network_mode!r}; "
                f"choose from {NETWORK_MODES}"
            )
        if self.t_s < 0:
            raise ValueError("t_s must be non-negative")
        if self.p_len < 1:
            raise ValueError("p_len must be at least one flit")
        if self.num_mes <= 0:
            raise ValueError("num_mes must be positive")
        if self.trace_demand_multiplier <= 0:
            raise ValueError("trace_demand_multiplier must be positive")
        if self.round_gap_factor < 1.0:
            raise ValueError("round_gap_factor must be >= 1 (injection floor)")
        if self.engine not in ENGINES:
            raise ValueError(
                f"unknown engine {self.engine!r}; choose from {ENGINES}"
            )
        if self.jobs <= 0:
            raise ValueError("jobs must be positive")
        if not 0 <= self.warmup_jobs < self.jobs:
            raise ValueError("warmup_jobs must be in [0, jobs)")
        if self.channel is not None or self.arq is not None:
            # lazy import: the channel grammar lives with the network
            # layer; configs without a channel never touch it
            from repro.network.arq import ARQ_PROTOCOLS
            from repro.network.channel import parse_channel

            if self.arq is not None and self.arq not in ARQ_PROTOCOLS:
                raise ValueError(
                    f"unknown ARQ protocol {self.arq!r}; "
                    f"choose from {ARQ_PROTOCOLS}"
                )
            if self.channel is not None:
                policy = parse_channel(self.channel)
                if policy.failure_rate > 0.0 and self.arq is None:
                    raise ValueError(
                        f"channel {policy.spec()!r} can fail packets and "
                        f"needs an ARQ protocol (arq=...; choose from "
                        f"{ARQ_PROTOCOLS})"
                    )
                object.__setattr__(self, "channel", policy.spec())

    @property
    def processors(self) -> int:
        """Machine size ``W * L``."""
        return self.width * self.length

    def with_(self, **changes: Any) -> "SimConfig":
        """Functional update (configs are immutable)."""
        return replace(self, **changes)


#: the exact parameterisation of the paper's experiments
PAPER_CONFIG = SimConfig()
