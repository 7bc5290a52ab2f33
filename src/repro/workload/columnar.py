"""Columnar job streams: struct-of-arrays blocks off the hot path.

Every :class:`~repro.workload.base.Workload` yields jobs two ways:

* ``jobs(seed)`` -- the sequential iterator of
  :class:`~repro.core.job.Job` objects.  This is the *definitional*
  stream: golden masters, cache keys and the paper's methodology are all
  expressed against it, and it never changes.
* ``blocks(seed, count)`` -- the same stream as a sequence of
  :class:`JobBlock` structs-of-arrays (NumPy columns).  Native
  implementations (stochastic, trace replay, the vectorised transforms)
  generate whole columns at once and are **bit-identical** to the
  scalar iterator by construction -- the vectorised RNG draws consume
  the underlying bit stream in exactly the per-job order the scalar
  loop does (``tests/test_workload_columnar.py`` proves the equality
  property-style).  Anything without a native form falls back to
  :func:`blocks_from_jobs`, which batches the scalar iterator, so the
  columnar protocol is total.

Consumers sit at both ends of the engine split:

* the SoA engine's :meth:`repro.alloc.soa_state.LaneState.feed` copies
  block columns straight into lane arrays -- zero ``Job`` objects on
  the hot path;
* the reference :class:`~repro.core.simulator.Simulator` pulls jobs
  through :func:`job_stream`, a block-buffered adapter that
  materialises ``Job`` objects from cached columns when the workload
  has a native columnar form (and degrades to the plain iterator when
  it does not).

Blocks for a ``(workload, seed)`` pair whose workload advertises a
:meth:`~repro.workload.base.Workload.block_fingerprint` are memoised in
a process-wide :class:`BlockCache`, so the six strategy combinations of
a campaign figure replay one generated stream instead of re-drawing it
six times.  ``REPRO_BLOCK_CACHE_MB`` bounds the cache (``0`` disables
it).

The refill sizing policy shared by all block consumers lives here too:
:func:`refill_size` with :data:`MAX_CHUNK`, :data:`FIRST_FILL_SLACK`,
:data:`MIN_REFILL` and :data:`REFILL_GROWTH`.
"""

from __future__ import annotations

import math
import os
import threading
from collections import OrderedDict
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

import numpy as np

from repro.core.job import Job

if TYPE_CHECKING:  # pragma: no cover - import cycle guard (base imports us)
    from repro.workload.base import Workload

#: default jobs per generated block (a hint; producers may emit less)
DEFAULT_BLOCK = 2048

# --------------------------------------------------------- refill policy
#
# One documented policy for every consumer that materialises arrivals in
# chunks (previously duplicated ad hoc inside ``LaneState.feed``):
#
# * the FIRST fill covers the whole completion target plus
#   ``FIRST_FILL_SLACK`` jobs of slack, so a lane that never saturates
#   needs exactly one refill;
# * every LATER fill grows with consumption -- a quarter of what has
#   already been provided, but at least ``MIN_REFILL`` -- so the number
#   of refills stays logarithmic in the arrivals actually needed while
#   the overshoot past the last needed arrival stays bounded;
# * both are capped at ``MAX_CHUNK`` so a single refill never stalls
#   the event loop for long or over-allocates on huge targets.

#: hard ceiling on arrivals materialised per refill
MAX_CHUNK = 4096
#: extra jobs beyond the completion target on the first fill
FIRST_FILL_SLACK = 64
#: smallest later refill
MIN_REFILL = 512
#: later refills are ``provided / REFILL_GROWTH``
REFILL_GROWTH = 4


def refill_size(provided: int, target_jobs: int) -> int:
    """How many arrivals the next refill should materialise.

    ``provided`` is how many arrivals the consumer has already been
    given (0 selects the first-fill rule); ``target_jobs`` is the run's
    completion target.  See the policy comment above.
    """
    if provided == 0:
        return min(target_jobs + FIRST_FILL_SLACK, MAX_CHUNK)
    return min(max(MIN_REFILL, provided // REFILL_GROWTH), MAX_CHUNK)


@dataclass(frozen=True, slots=True)
class JobBlock:
    """A batch of jobs as parallel NumPy columns (struct of arrays).

    ``runtime`` is ``None`` when no job in the block carries a recorded
    trace runtime; otherwise it is a float64 column with ``NaN`` marking
    jobs that have none (a merge of trace and stochastic streams mixes
    both).  ``demand`` mirrors ``Job.service_demand`` -- equal to
    ``float(messages)`` for stochastic jobs, the recorded runtime for
    trace jobs.
    """

    job_id: np.ndarray
    arrival: np.ndarray
    width: np.ndarray
    length: np.ndarray
    messages: np.ndarray
    demand: np.ndarray
    runtime: np.ndarray | None = None

    def __len__(self) -> int:
        """Number of jobs in the block."""
        return len(self.arrival)

    @property
    def nbytes(self) -> int:
        """Total bytes across all columns (cache accounting)."""
        n = (self.job_id.nbytes + self.arrival.nbytes + self.width.nbytes
             + self.length.nbytes + self.messages.nbytes + self.demand.nbytes)
        if self.runtime is not None:
            n += self.runtime.nbytes
        return n

    def view(self, start: int, stop: int) -> "JobBlock":
        """A zero-copy sub-block of rows ``[start, stop)``."""
        rt = None if self.runtime is None else self.runtime[start:stop]
        return JobBlock(
            self.job_id[start:stop], self.arrival[start:stop],
            self.width[start:stop], self.length[start:stop],
            self.messages[start:stop], self.demand[start:stop], rt,
        )

    def take(self, mask: np.ndarray) -> "JobBlock":
        """The rows selected by a boolean ``mask`` (order preserved)."""
        rt = None if self.runtime is None else self.runtime[mask]
        return JobBlock(
            self.job_id[mask], self.arrival[mask], self.width[mask],
            self.length[mask], self.messages[mask], self.demand[mask], rt,
        )

    def iter_jobs(self) -> Iterator[Job]:
        """Materialise the block as :class:`~repro.core.job.Job` objects.

        Columns are converted to Python lists once (``tolist``), so the
        per-job cost is a plain constructor call -- this is the
        reference engine's adapter path.
        """
        rts = None if self.runtime is None else self.runtime.tolist()
        rows = zip(
            self.job_id.tolist(), self.arrival.tolist(), self.width.tolist(),
            self.length.tolist(), self.messages.tolist(), self.demand.tolist(),
        )
        for i, (jid, arr, w, l, msg, dem) in enumerate(rows):
            rt = None
            if rts is not None and not math.isnan(rts[i]):
                rt = rts[i]
            yield Job(
                job_id=jid, arrival_time=arr, width=w, length=l,
                messages=msg, service_demand=dem, trace_runtime=rt,
            )

    @classmethod
    def from_jobs(cls, jobs: Sequence[Job]) -> "JobBlock":
        """Build a block from materialised jobs (the fallback path)."""
        rt = None
        if any(j.trace_runtime is not None for j in jobs):
            rt = np.array(
                [math.nan if j.trace_runtime is None else j.trace_runtime
                 for j in jobs], dtype=np.float64,
            )
        return cls(
            np.array([j.job_id for j in jobs], dtype=np.int64),
            np.array([j.arrival_time for j in jobs], dtype=np.float64),
            np.array([j.width for j in jobs], dtype=np.int64),
            np.array([j.length for j in jobs], dtype=np.int64),
            np.array([j.messages for j in jobs], dtype=np.int64),
            np.array([j.service_demand for j in jobs], dtype=np.float64),
            rt,
        )

    @staticmethod
    def concat(blocks: Sequence["JobBlock"]) -> "JobBlock":
        """Concatenate blocks row-wise (runtime promotes to NaN-filled)."""
        if len(blocks) == 1:
            return blocks[0]
        rt = None
        if any(b.runtime is not None for b in blocks):
            rt = np.concatenate([
                b.runtime if b.runtime is not None
                else np.full(len(b), math.nan) for b in blocks
            ])
        return JobBlock(
            np.concatenate([b.job_id for b in blocks]),
            np.concatenate([b.arrival for b in blocks]),
            np.concatenate([b.width for b in blocks]),
            np.concatenate([b.length for b in blocks]),
            np.concatenate([b.messages for b in blocks]),
            np.concatenate([b.demand for b in blocks]),
            rt,
        )

    def renumber(self, start: int) -> "JobBlock":
        """The same rows with ids replaced by ``start, start+1, ...``."""
        ids = np.arange(start, start + len(self), dtype=np.int64)
        return replace(self, job_id=ids)


def blocks_from_jobs(
    jobs: Iterable[Job], count: int = DEFAULT_BLOCK
) -> Iterator[JobBlock]:
    """Batch a sequential job iterator into blocks of up to ``count``.

    This is the automatic fallback behind the default
    ``Workload.blocks`` -- any workload or transform without a native
    vector form still satisfies the columnar protocol through it.
    """
    batch: list[Job] = []
    for job in jobs:
        batch.append(job)
        if len(batch) >= count:
            yield JobBlock.from_jobs(batch)
            batch = []
    if batch:
        yield JobBlock.from_jobs(batch)


def jobs_from_blocks(blocks: Iterable[JobBlock]) -> Iterator[Job]:
    """Flatten a block stream back into a sequential job iterator."""
    for block in blocks:
        yield from block.iter_jobs()


# ----------------------------------------------------------- block cache


def _cache_budget_bytes() -> int:
    """The block-cache byte budget (``REPRO_BLOCK_CACHE_MB``, default 128;
    an unparsable or non-finite value falls back to the default)."""
    try:
        mb = float(os.environ.get("REPRO_BLOCK_CACHE_MB", "128"))
    except ValueError:
        mb = 128.0
    if not math.isfinite(mb):
        mb = 128.0
    return max(0, int(mb * 1024 * 1024))


class BlockStream:
    """The materialised prefix of one ``(workload, seed)`` block stream.

    Blocks are pulled from the producer lazily and kept, so any number
    of cursors can replay the stream from the start without re-drawing
    the RNG -- this is what lets six strategy combinations of one
    campaign cell share a single generation pass.

    Thread-safe: streams are shared process-wide through
    :class:`BlockCache`, and the thread-based campaign executor replays
    one stream from many worker threads at once.  The producer pull is
    the critical section -- two threads advancing ``_it`` concurrently
    would interleave RNG draws and corrupt the stream -- so it runs
    under a per-stream lock; reads of already-materialised blocks are
    lock-free (the list is append-only).

    A stream held by a :class:`BlockCache` (``cache``) reports each new
    block's bytes to it, so the cache keeps a running total.
    """

    def __init__(self, workload: "Workload", seed: int,
                 count: int = DEFAULT_BLOCK,
                 cache: "BlockCache | None" = None) -> None:
        self._it = workload.blocks(seed, count)
        self._lock = threading.Lock()
        self.blocks: list[JobBlock] = []
        self.exhausted = False
        self.nbytes = 0
        self.cache = cache

    def block(self, i: int) -> JobBlock | None:
        """Block ``i`` of the stream, or ``None`` past the end."""
        if i >= len(self.blocks) and not self.exhausted:
            with self._lock:
                while i >= len(self.blocks) and not self.exhausted:
                    blk = next(self._it, None)
                    if blk is None:
                        self.exhausted = True
                    elif len(blk):
                        self.blocks.append(blk)
                        if self.cache is None:
                            self.nbytes += blk.nbytes
                        else:
                            self.cache._grew(self, blk.nbytes)
        return self.blocks[i] if i < len(self.blocks) else None


class _StreamCursor:
    """Sequential reader over a (possibly shared) :class:`BlockStream`."""

    def __init__(self, stream: BlockStream) -> None:
        self._stream = stream
        self._i = 0

    def next_block(self) -> JobBlock | None:
        """The next unread block, or ``None`` when the stream ends."""
        blk = self._stream.block(self._i)
        if blk is not None:
            self._i += 1
        return blk

    def __iter__(self) -> Iterator[JobBlock]:
        """Iterate the remaining blocks."""
        while (blk := self.next_block()) is not None:
            yield blk


class _IterCursor:
    """Cursor over a raw block iterator (uncacheable streams)."""

    def __init__(self, it: Iterator[JobBlock]) -> None:
        self._it = it

    def next_block(self) -> JobBlock | None:
        """The next non-empty block, or ``None`` when exhausted."""
        for blk in self._it:
            if len(blk):
                return blk
        return None

    def __iter__(self) -> Iterator[JobBlock]:
        """Iterate the remaining blocks."""
        while (blk := self.next_block()) is not None:
            yield blk


class BlockCache:
    """Process-wide LRU of :class:`BlockStream` prefixes.

    Keyed by ``(workload.block_fingerprint(), seed)``.  Eviction runs on
    :meth:`stream` against an approximate byte budget (streams keep
    growing after admission; live cursors hold their stream alive
    regardless, so eviction never breaks an in-flight consumer).

    Thread-safe: lookup, admission, LRU bookkeeping and eviction all
    run under one lock, so concurrent first use of the same key from a
    thread pool admits exactly one stream -- every caller shares it and
    the underlying generation pass runs once
    (``tests/test_thread_executor.py`` hammers this).
    """

    def __init__(self, budget: int | None = None) -> None:
        self._streams: OrderedDict[tuple, BlockStream] = OrderedDict()
        self._budget = budget
        self._lock = threading.Lock()
        #: the summed ``nbytes`` of the cached streams
        self._nbytes = 0

    @property
    def budget(self) -> int:
        """The byte budget (re-read from the environment when unset)."""
        return self._budget if self._budget is not None else _cache_budget_bytes()

    def stream(self, workload: "Workload", seed: int, key: tuple,
               count: int = DEFAULT_BLOCK) -> BlockStream:
        """The shared stream for ``key``, creating and evicting as needed."""
        with self._lock:
            stream = self._streams.get(key)
            if stream is None:
                stream = BlockStream(workload, seed, count, cache=self)
                self._streams[key] = stream
            self._streams.move_to_end(key)
            self._trim()
            return stream

    def _grew(self, stream: BlockStream, nbytes: int) -> None:
        """``stream`` materialised ``nbytes`` more (called under the
        stream's lock; the total counts only streams still cached)."""
        with self._lock:
            stream.nbytes += nbytes
            if stream.cache is self:
                self._nbytes += nbytes

    def _trim(self) -> None:
        # caller holds self._lock
        while len(self._streams) > 1 and self._nbytes > self.budget:
            self._evict(self._streams.popitem(last=False)[1])

    def _evict(self, stream: BlockStream) -> None:
        # caller holds self._lock
        stream.cache = None
        self._nbytes -= stream.nbytes

    def clear(self) -> None:
        """Drop every cached stream (tests and memory pressure)."""
        with self._lock:
            for stream in self._streams.values():
                self._evict(stream)
            self._streams.clear()


#: the process-wide cache shared by every consumer in this process
GLOBAL_BLOCK_CACHE = BlockCache()


def open_stream(workload: "Workload", seed: int,
                count: int = DEFAULT_BLOCK):
    """A fresh cursor over the block stream of ``(workload, seed)``.

    Streams whose workload has a stable :meth:`block_fingerprint` are
    served from :data:`GLOBAL_BLOCK_CACHE` (generation happens once per
    process and every later consumer replays the cached columns).
    Workloads without a fingerprint -- user subclasses, transforms on
    the fallback path -- get an uncached pass-through cursor.
    """
    key = workload.block_fingerprint()
    if key is None or _cache_budget_bytes() == 0:
        return _IterCursor(iter(workload.blocks(seed, count)))
    return _StreamCursor(GLOBAL_BLOCK_CACHE.stream(workload, seed, (key, seed)))


def job_stream(workload: "Workload", seed: int) -> Iterator[Job]:
    """The reference engine's arrival iterator for ``(workload, seed)``.

    Block-buffered when the workload has a native columnar form (jobs
    are materialised from cached columns in batches); otherwise exactly
    ``workload.jobs(seed)`` -- the scalar path is never wrapped just to
    be unwrapped again.
    """
    if workload.block_fingerprint() is None:
        return workload.jobs(seed)
    return jobs_from_blocks(open_stream(workload, seed))
