"""Minimal deterministic discrete-event simulation kernel.

ProcSimity's engine re-implemented: a binary-heap event list, a simulation
clock, and a run loop with stop predicates.  No processes/coroutines --
callbacks keep the hot path (hundreds of thousands of network events per
run) cheap in pure Python, per the profiling guidance in the HPC coding
guides.
"""

from __future__ import annotations

import heapq
from typing import Any, Callable

from repro.core.events import Event, Priority


class Engine:
    """Event heap + clock."""

    __slots__ = ("_heap", "_now", "_seq", "_processed")

    def __init__(self) -> None:
        self._heap: list[Event] = []
        self._now = 0.0
        self._seq = 0
        self._processed = 0

    # ------------------------------------------------------------------ API
    @property
    def now(self) -> float:
        """Current simulation time."""
        return self._now

    @property
    def processed(self) -> int:
        """Number of events executed so far."""
        return self._processed

    def schedule(
        self,
        delay: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = Priority.STATS,
    ) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` from now."""
        if delay < 0:
            raise ValueError(f"cannot schedule into the past (delay={delay})")
        return self.schedule_at(self._now + delay, callback, *args, priority=priority)

    def schedule_at(
        self,
        time: float,
        callback: Callable[..., None],
        *args: Any,
        priority: int = Priority.STATS,
    ) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time."""
        if time < self._now:
            raise ValueError(
                f"cannot schedule into the past (t={time} < now={self._now})"
            )
        self._seq += 1
        ev = Event(time, int(priority), self._seq, callback, args)
        heapq.heappush(self._heap, ev)
        return ev

    def run(
        self,
        until: float | None = None,
        stop: Callable[[], bool] | None = None,
    ) -> None:
        """Drain the event heap.

        Stop conditions, checked *between* events (no event is ever half
        processed):

        * ``stop()`` returns True -- before the next event executes;
        * the next event is later than ``until`` -- the clock advances
          (clamps) to ``until`` and the event stays queued;
        * the heap is empty -- the clock advances to ``until`` if given.

        An early stop via ``stop`` leaves the clock at the last executed
        event: events earlier than ``until`` are still pending, and
        clamping past them would make a resumed ``run()`` move time
        backwards.
        """
        heap = self._heap
        while heap:
            if stop is not None and stop():
                break
            ev = heap[0]
            if until is not None and ev.time > until:
                self._now = until
                break
            heapq.heappop(heap)
            self._now = ev.time
            self._processed += 1
            ev.callback(*ev.args)
        else:
            if until is not None:
                self._now = max(self._now, until)
