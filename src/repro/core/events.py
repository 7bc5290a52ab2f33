"""Event primitives of the discrete-event simulation kernel.

Events are ordered by ``(time, priority, seq)``: ties at the same instant
are broken first by an explicit priority class (departures before arrivals
before dispatch, so freed processors are visible to the dispatcher within
the same time step), then by scheduling order, which makes runs fully
deterministic.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Any, Callable


class Priority(enum.IntEnum):
    """Tie-break classes for simultaneous events (lower runs first)."""

    NETWORK = 0  #: channel releases / worm grants
    DEPARTURE = 1  #: job completion & deallocation
    ARRIVAL = 2  #: job arrival
    DISPATCH = 3  #: scheduler pass
    STATS = 4  #: sampling hooks


@dataclass(order=True, slots=True)
class Event:
    """One scheduled callback."""

    time: float
    priority: int
    seq: int
    callback: Callable[..., None] = field(compare=False)
    args: tuple[Any, ...] = field(compare=False, default=())
