"""Allocator interface shared by every allocation strategy.

An allocator owns the :class:`~repro.mesh.grid.MeshGrid` occupancy state.
A request is the sub-mesh shape ``w x l`` asked for by a job
(non-contiguous strategies may scatter the ``w*l`` processors); on success
the allocator returns an :class:`Allocation` that the simulator later
hands back to :meth:`Allocator.release`.

Invariants enforced (and property-tested):

* a processor is never double-allocated;
* an allocation covers exactly ``w*l`` processors;
* release restores the free count;
* for the paper's three non-contiguous strategies, allocation succeeds
  if and only if ``free >= w*l`` (they "have the same ability to eliminate
  both internal and external processor fragmentation").
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Any, Sequence

from repro.mesh.geometry import SubMesh
from repro.mesh.grid import MeshGrid


@dataclass(frozen=True, slots=True)
class Allocation:
    """The processors granted to one job.

    ``nodes`` are row-major node ids, sub-mesh by sub-mesh; the network
    consumes them as-is and the all-to-all traffic generator uses this
    order for its round-robin destination schedule.  ``token`` is an
    opaque allocator payload (e.g. the MBS buddy blocks) threaded back
    into ``release``.
    """

    job_id: int
    submeshes: tuple[SubMesh, ...]
    nodes: tuple[int, ...]
    token: Any = None

    @property
    def size(self) -> int:
        """Number of processors allocated."""
        return len(self.nodes)

    @property
    def contiguous(self) -> bool:
        """Whether the job received one single sub-mesh."""
        return len(self.submeshes) == 1

    @property
    def fragment_count(self) -> int:
        """Number of disjoint sub-meshes the job was scattered over."""
        return len(self.submeshes)


@dataclass(slots=True)
class AllocatorStats:
    """Bookkeeping every allocator maintains for the experiment reports."""

    attempts: int = 0
    successes: int = 0
    failures: int = 0
    contiguous_successes: int = 0
    fragments_sum: int = 0
    released: int = 0

    @property
    def mean_fragments(self) -> float:
        """Mean number of sub-meshes per successful allocation."""
        return self.fragments_sum / self.successes if self.successes else 0.0

    @property
    def contiguity_rate(self) -> float:
        """Fraction of successful allocations that were one sub-mesh."""
        return self.contiguous_successes / self.successes if self.successes else 0.0


class Allocator(abc.ABC):
    """Base class of every allocation strategy.

    The occupancy grid is owned by the allocator: once constructed, mutate
    it only through :meth:`allocate`/:meth:`release`.  Strategies with
    internal bookkeeping (MBS buddy trees, Paging page tables) rely on the
    grid and their own structures staying in lock-step; direct grid writes
    would desynchronise them (the grid itself will detect and reject the
    resulting double allocations).
    """

    #: human-readable strategy name, e.g. ``"GABL"`` or ``"Paging(0)"``
    name: str = "abstract"
    #: True when allocation is guaranteed to succeed whenever
    #: ``free >= w*l`` (holds for Paging(0), MBS, GABL, ANCA and Random).
    #: :meth:`allocate` fails a complete strategy's ``w*l > free``
    #: request itself, so ``_allocate`` only sees requests that fit.
    complete: bool = False
    #: True when ``_allocate`` is a pure function of the grid and the
    #: allocator's own state (everything except the randomised baseline).
    #: Enables memoising failed requests per grid version: the head-of-
    #: line job is re-attempted on every dispatch, so under load the same
    #: doomed request is otherwise recomputed against an unchanged mesh.
    deterministic: bool = True

    def __init__(self, width: int, length: int) -> None:
        self.grid = MeshGrid(width, length)
        self.stats = AllocatorStats()
        self._failed_requests: set[tuple[int, int]] = set()
        self._failed_version = -1

    # ------------------------------------------------------------------ API
    @property
    def width(self) -> int:
        return self.grid.width

    @property
    def length(self) -> int:
        return self.grid.length

    @property
    def free_count(self) -> int:
        """Number of free processors right now."""
        return self.grid.free_count

    def allocate(self, job_id: int, w: int, l: int) -> Allocation | None:
        """Try to allocate a ``w x l`` request for ``job_id``.

        Returns ``None`` on failure (the caller keeps the job queued).
        """
        self._validate_request(w, l)
        self.stats.attempts += 1
        if self.complete and w * l > self.grid.free_count:
            # too few free processors: every complete strategy fails
            # here, so none of them searches first
            self.stats.failures += 1
            return None
        if self.deterministic:
            version = self.grid.version
            if version != self._failed_version:
                self._failed_version = version
                self._failed_requests.clear()
            if (w, l) in self._failed_requests:
                # same request against an unchanged mesh: same outcome
                self.stats.failures += 1
                return None
        allocation = self._allocate(job_id, w, l)
        if allocation is None:
            self.stats.failures += 1
            if self.deterministic:
                self._failed_requests.add((w, l))
            return None
        self.stats.successes += 1
        self.stats.fragments_sum += allocation.fragment_count
        if allocation.contiguous:
            self.stats.contiguous_successes += 1
        return allocation

    def release(self, allocation: Allocation) -> None:
        """Return every processor of ``allocation`` to the free pool."""
        self._release(allocation)
        self.stats.released += 1

    def reset(self) -> None:
        """Drop all state (between simulation replications)."""
        self.grid.reset()
        self.stats = AllocatorStats()
        self._failed_requests.clear()
        self._failed_version = -1

    # ------------------------------------------------------------ internals
    @abc.abstractmethod
    def _allocate(self, job_id: int, w: int, l: int) -> Allocation | None:
        """Strategy-specific allocation; must mutate ``self.grid``."""

    def _release(self, allocation: Allocation) -> None:
        """Default release: free each sub-mesh on the grid."""
        for s in allocation.submeshes:
            self.grid.release_submesh(s, allocation.job_id)

    def _validate_request(self, w: int, l: int) -> None:
        if w <= 0 or l <= 0:
            raise ValueError(f"request sides must be positive, got {w}x{l}")
        # a side may exceed the corresponding mesh side (rotation or
        # non-contiguous scatter can still satisfy it); only requests
        # larger than the whole machine are nonsensical
        if w * l > self.width * self.length:
            raise ValueError(
                f"request {w}x{l} exceeds machine capacity "
                f"{self.width}x{self.length}"
            )

    # ------------------------------------------------------------- helpers
    def _nodes_of(self, submeshes: Sequence[SubMesh]) -> tuple[int, ...]:
        """Concatenate the node ids of the sub-meshes, in order."""
        out: list[int] = []
        for s in submeshes:
            out.extend(s.node_ids(self.width))
        return tuple(out)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"<{type(self).__name__} {self.name} {self.width}x{self.length} "
            f"free={self.free_count}>"
        )
