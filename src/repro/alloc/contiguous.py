"""Contiguous baseline allocators: First-Fit and Best-Fit sub-mesh.

The paper's figures evaluate only non-contiguous strategies, but its
motivation (external fragmentation, section 1) and the wider literature
[2, 19] are defined against contiguous allocation.  These baselines back
the ``bench_abl_contiguity`` ablation, which quantifies the fragmentation
the non-contiguous strategies eliminate.

* **First-Fit** scans base nodes in row-major order and takes the first
  suitable sub-mesh, trying the rotated orientation on failure (Zhu [19]).
* **Best-Fit** considers every suitable base (both orientations) and takes
  the candidate with the highest *boundary contact* -- the number of
  perimeter-adjacent cells that are allocated or outside the mesh.  Packing
  against existing allocations and walls preserves large free rectangles.
"""

from __future__ import annotations

import numpy as np

from repro.alloc.base import Allocation, Allocator
from repro.mesh.geometry import SubMesh
from repro.mesh.rectfind import all_suitable_bases, find_suitable_submesh


class FirstFitAllocator(Allocator):
    """Contiguous First-Fit with optional rotation."""

    name = "FF"
    complete = False  # contiguous: fails under external fragmentation

    def __init__(self, width: int, length: int, allow_rotation: bool = True) -> None:
        super().__init__(width, length)
        self.allow_rotation = allow_rotation

    def _allocate(self, job_id: int, w: int, l: int) -> Allocation | None:
        s = find_suitable_submesh(self.grid, w, l)
        if s is None and self.allow_rotation and w != l:
            s = find_suitable_submesh(self.grid, l, w)
        if s is None:
            return None
        self.grid.allocate_submesh(s, job_id)
        return Allocation(job_id=job_id, submeshes=(s,), nodes=self._nodes_of((s,)))


class BestFitAllocator(Allocator):
    """Contiguous Best-Fit by maximal boundary contact."""

    name = "BF"
    complete = False

    def __init__(self, width: int, length: int, allow_rotation: bool = True) -> None:
        super().__init__(width, length)
        self.allow_rotation = allow_rotation

    def _allocate(self, job_id: int, w: int, l: int) -> Allocation | None:
        shapes = [(w, l)]
        if self.allow_rotation and w != l:
            shapes.append((l, w))
        best: SubMesh | None = None
        best_contact = -1
        free = self.grid.free_mask()  # identical for every candidate
        for sw, sl in shapes:
            for base in all_suitable_bases(self.grid, sw, sl):
                cand = SubMesh.from_base(base.x, base.y, sw, sl)
                contact = self._boundary_contact(cand, free)
                if contact > best_contact:
                    best_contact = contact
                    best = cand
        if best is None:
            return None
        self.grid.allocate_submesh(best, job_id)
        return Allocation(
            job_id=job_id, submeshes=(best,), nodes=self._nodes_of((best,))
        )

    def _boundary_contact(self, s: SubMesh, free: np.ndarray | None = None) -> int:
        """Perimeter cells of ``s`` that touch busy processors or walls.

        Each side contributes its full extent when flush against a mesh
        wall, otherwise the count of busy cells in the adjacent row or
        column strip of the free mask (no per-cell Python).  Pass the
        current ``free`` mask when scoring many candidates of one grid
        state.
        """
        grid = self.grid
        if free is None:
            free = grid.free_mask()
        extents = (s.length, s.length, s.width, s.width)
        strips = (
            None if s.x1 == 0 else free[s.y1:s.y2 + 1, s.x1 - 1],
            None if s.x2 == grid.width - 1 else free[s.y1:s.y2 + 1, s.x2 + 1],
            None if s.y1 == 0 else free[s.y1 - 1, s.x1:s.x2 + 1],
            None if s.y2 == grid.length - 1 else free[s.y2 + 1, s.x1:s.x2 + 1],
        )
        contact = 0
        for extent, strip in zip(extents, strips):
            if strip is None:
                contact += extent  # wall: every perimeter cell touches
            else:
                contact += extent - int(np.count_nonzero(strip))
        return contact
