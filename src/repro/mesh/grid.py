"""Mutable occupancy state of the ``W x L`` mesh.

The grid is the single source of truth about which processors are free.
Allocators mutate it through :meth:`MeshGrid.allocate_submesh` /
:meth:`MeshGrid.allocate_nodes` and the matching ``release`` calls; every
mutation keeps the free-processor count and an owner map consistent, which
the test-suite leans on heavily.

The free state is one Python-int bitmask per row: bit ``x`` of
``rows[y]`` is set iff processor ``(x, y)`` is free.  The rectangle
searches of :mod:`repro.mesh.rectfind` AND and shift these rows, so a
query on a small mesh is a few dozen integer operations.  Beside them the
grid keeps a flat row-major owner list (index ``y * W + x``, ``-1`` for
*free*); :meth:`free_mask` builds a NumPy view only for the callers that
want an array.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.mesh.geometry import Coord, SubMesh

FREE = -1


class MeshGrid:
    """Occupancy grid of a ``width x length`` 2D mesh."""

    __slots__ = ("width", "length", "rows", "_owner", "_free_count", "_version")

    def __init__(self, width: int, length: int) -> None:
        if width <= 0 or length <= 0:
            raise ValueError(f"mesh dimensions must be positive, got {width}x{length}")
        self.width = int(width)
        self.length = int(length)
        #: bit ``x`` of ``rows[y]`` is set iff ``(x, y)`` is free; mutate
        #: only through the grid's own methods
        self.rows = [(1 << self.width) - 1] * self.length
        self._owner = [FREE] * (self.width * self.length)
        self._free_count = self.width * self.length
        self._version = 0  # bumped on every mutation; used for cache invalidation

    # ------------------------------------------------------------------ state
    @property
    def size(self) -> int:
        """Total number of processors ``W * L``."""
        return self.width * self.length

    @property
    def free_count(self) -> int:
        """Number of currently free processors."""
        return self._free_count

    @property
    def version(self) -> int:
        """Monotone counter bumped on every mutation (for caches)."""
        return self._version

    def free_mask(self) -> np.ndarray:
        """Boolean ``(L, W)`` array, ``True`` where the processor is free."""
        owner = np.array(self._owner, dtype=np.int64)
        return (owner == FREE).reshape(self.length, self.width)

    def is_free(self, c: Coord) -> bool:
        """Whether the processor at ``c`` is free."""
        self._check_coord(c)
        return bool(self.rows[c.y] >> c.x & 1)

    def in_bounds(self, s: SubMesh) -> bool:
        """Whether ``s`` lies entirely inside the mesh."""
        return s.x2 < self.width and s.y2 < self.length

    # ---------------------------------------------------------- mutation API
    def allocate_submesh(self, s: SubMesh, job_id: int) -> None:
        """Mark every processor of ``s`` as owned by ``job_id``.

        Raises ``ValueError`` if any processor is already allocated -- the
        allocators are required to never double-allocate.
        """
        self._check_submesh(s)
        x1, y1, x2, y2 = s.x1, s.y1, s.x2 + 1, s.y2 + 1
        mask = ((1 << (x2 - x1)) - 1) << x1
        rows = self.rows
        for y in range(y1, y2):
            if rows[y] & mask != mask:
                raise ValueError(f"double allocation of {s} for job {job_id}")
        owner, width = self._owner, self.width
        run = [job_id] * (x2 - x1)
        for y in range(y1, y2):
            rows[y] ^= mask
            owner[y * width + x1 : y * width + x2] = run
        self._free_count -= (x2 - x1) * (y2 - y1)
        self._version += 1

    def release_submesh(self, s: SubMesh, job_id: int) -> None:
        """Free every processor of ``s`` (must be owned by ``job_id``)."""
        self._check_submesh(s)
        x1, y1, x2, y2 = s.x1, s.y1, s.x2 + 1, s.y2 + 1
        owner, width = self._owner, self.width
        run = [job_id] * (x2 - x1)
        for y in range(y1, y2):
            if owner[y * width + x1 : y * width + x2] != run:
                raise ValueError(f"release of {s} not owned by job {job_id}")
        mask = ((1 << (x2 - x1)) - 1) << x1
        rows = self.rows
        free_run = [FREE] * (x2 - x1)
        for y in range(y1, y2):
            rows[y] |= mask
            owner[y * width + x1 : y * width + x2] = free_run
        self._free_count += (x2 - x1) * (y2 - y1)
        self._version += 1

    def allocate_nodes(self, nodes: Iterable[Coord], job_id: int) -> None:
        """Mark an arbitrary set of processors as owned by ``job_id``."""
        nodes = list(nodes)
        for c in nodes:
            if not self.is_free(c):
                raise ValueError(f"double allocation of {c} for job {job_id}")
        for c in nodes:
            self.rows[c.y] &= ~(1 << c.x)
            self._owner[c.y * self.width + c.x] = job_id
        self._free_count -= len(nodes)
        self._version += 1

    def reset(self) -> None:
        """Free the entire mesh (used between simulation replications)."""
        self.rows = [(1 << self.width) - 1] * self.length
        self._owner = [FREE] * self.size
        self._free_count = self.size
        self._version += 1

    # ----------------------------------------------------------- validation
    def validate(self) -> None:
        """Internal consistency check (tests call this after every step)."""
        actual_free = self._owner.count(FREE)
        if actual_free != self._free_count:
            raise AssertionError(
                f"free-count drift: counter={self._free_count} actual={actual_free}"
            )
        for y, row in enumerate(self.rows):
            owners = self._owner[y * self.width : (y + 1) * self.width]
            expect = sum(1 << x for x, o in enumerate(owners) if o == FREE)
            if row != expect:
                raise AssertionError(
                    f"row {y} drift: rows={row:#x} owner map={expect:#x}"
                )

    # ------------------------------------------------------------- plumbing
    def _check_coord(self, c: Coord) -> None:
        if not (0 <= c.x < self.width and 0 <= c.y < self.length):
            raise ValueError(f"coordinate {c} outside {self.width}x{self.length} mesh")

    def _check_submesh(self, s: SubMesh) -> None:
        if not self.in_bounds(s):
            raise ValueError(f"sub-mesh {s} outside {self.width}x{self.length} mesh")

    def ascii_art(self, free_char: str = ".", busy_char: str = "#") -> str:
        """Render the grid for debugging/examples, row ``L-1`` on top."""
        return "\n".join(
            "".join(
                free_char if row >> x & 1 else busy_char for x in range(self.width)
            )
            for row in reversed(self.rows)
        )

