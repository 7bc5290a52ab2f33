"""Mutable occupancy state of the ``W x L`` mesh.

The grid is the single source of truth about which processors are free.
Allocators mutate it through :meth:`MeshGrid.allocate_submesh` /
:meth:`MeshGrid.allocate_nodes` and the matching ``release`` calls; every
mutation keeps the free-processor count and an owner map consistent, which
the test-suite leans on heavily.

Internally the state is a NumPy ``int32`` owner array of shape ``(L, W)``
(row ``y``, column ``x``) where ``-1`` means *free*; a boolean free mask is
derived lazily for the vectorised rectangle searches in
:mod:`repro.mesh.rectfind`.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.mesh.geometry import Coord, SubMesh

FREE = -1


class MeshGrid:
    """Occupancy grid of a ``width x length`` 2D mesh."""

    __slots__ = (
        "width", "length", "_owner", "_free_count", "_version", "rect_scratch",
    )

    def __init__(self, width: int, length: int) -> None:
        if width <= 0 or length <= 0:
            raise ValueError(f"mesh dimensions must be positive, got {width}x{length}")
        self.width = int(width)
        self.length = int(length)
        self._owner = np.full((self.length, self.width), FREE, dtype=np.int32)
        self._free_count = self.width * self.length
        self._version = 0  # bumped on every mutation; used for cache invalidation
        #: version-tagged scratch space owned by repro.mesh.rectfind (the
        #: free-rectangle geometry derived from the current occupancy);
        #: invalidated implicitly by the version counter
        self.rect_scratch: dict | None = None

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
    def busy_count(self) -> int:
        """Number of currently allocated processors."""
        return self.size - self._free_count

    @property
    def version(self) -> int:
        """Monotone counter bumped on every mutation (for caches)."""
        return self._version

    def free_mask(self) -> np.ndarray:
        """Boolean ``(L, W)`` array, ``True`` where the processor is free.

        The caller must not mutate the returned array.
        """
        return self._owner == FREE

    def owner_at(self, c: Coord) -> int:
        """Owner job id at coordinate ``c`` (``FREE`` if unallocated)."""
        self._check_coord(c)
        return int(self._owner[c.y, c.x])

    def is_free(self, c: Coord) -> bool:
        """Whether the processor at ``c`` is free."""
        self._check_coord(c)
        return self._owner[c.y, c.x] == FREE

    def submesh_free(self, s: SubMesh) -> bool:
        """Definition 3: whether all processors of ``s`` are free."""
        self._check_submesh(s)
        return bool((self._owner[s.y1 : s.y2 + 1, s.x1 : s.x2 + 1] == FREE).all())

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
        view = self._owner[s.y1 : s.y2 + 1, s.x1 : s.x2 + 1]
        if (view != FREE).any():
            raise ValueError(f"double allocation of {s} for job {job_id}")
        view[:] = job_id
        self._free_count -= s.area
        self._version += 1

    def release_submesh(self, s: SubMesh, job_id: int) -> None:
        """Free every processor of ``s`` (must be owned by ``job_id``)."""
        self._check_submesh(s)
        view = self._owner[s.y1 : s.y2 + 1, s.x1 : s.x2 + 1]
        if (view != job_id).any():
            raise ValueError(f"release of {s} not owned by job {job_id}")
        view[:] = FREE
        self._free_count += s.area
        self._version += 1

    def allocate_nodes(self, nodes: Iterable[Coord], job_id: int) -> None:
        """Mark an arbitrary set of processors as owned by ``job_id``."""
        nodes = list(nodes)
        for c in nodes:
            self._check_coord(c)
            if self._owner[c.y, c.x] != FREE:
                raise ValueError(f"double allocation of {c} for job {job_id}")
        for c in nodes:
            self._owner[c.y, c.x] = job_id
        self._free_count -= len(nodes)
        self._version += 1

    def reset(self) -> None:
        """Free the entire mesh (used between simulation replications)."""
        self._owner[:] = FREE
        self._free_count = self.size
        self._version += 1

    # ----------------------------------------------------------- validation
    def validate(self) -> None:
        """Internal consistency check (tests call this after every step)."""
        actual_free = int((self._owner == FREE).sum())
        if actual_free != self._free_count:
            raise AssertionError(
                f"free-count drift: counter={self._free_count} actual={actual_free}"
            )

    def owned_by(self, job_id: int) -> list[Coord]:
        """All coordinates currently owned by ``job_id`` (row-major order)."""
        ys, xs = np.nonzero(self._owner == job_id)
        return [Coord(int(x), int(y)) for y, x in zip(ys, xs)]

    # ------------------------------------------------------------- plumbing
    def _check_coord(self, c: Coord) -> None:
        if not (0 <= c.x < self.width and 0 <= c.y < self.length):
            raise ValueError(f"coordinate {c} outside {self.width}x{self.length} mesh")

    def _check_submesh(self, s: SubMesh) -> None:
        if not self.in_bounds(s):
            raise ValueError(f"sub-mesh {s} outside {self.width}x{self.length} mesh")

    def ascii_art(self, free_char: str = ".", busy_char: str = "#") -> str:
        """Render the grid for debugging/examples, row ``L-1`` on top."""
        rows = []
        for y in range(self.length - 1, -1, -1):
            rows.append(
                "".join(
                    free_char if self._owner[y, x] == FREE else busy_char
                    for x in range(self.width)
                )
            )
        return "\n".join(rows)


def submeshes_disjoint(submeshes: Sequence[SubMesh]) -> bool:
    """Whether no two sub-meshes in the sequence overlap (test helper)."""
    for i, a in enumerate(submeshes):
        for b in submeshes[i + 1 :]:
            if a.overlaps(b):
                return False
    return True
