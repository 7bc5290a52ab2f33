"""GABL -- Greedy Available Busy List allocation (Bani-Mohammad et al. [12]).

GABL combines contiguous and non-contiguous allocation:

1. When a job requesting ``S(a, b)`` is selected, a *suitable* free
   sub-mesh for the whole job is searched for (both orientations, as in
   the authors' SIMPAT 2007 paper).  If found, the job is allocated
   contiguously and allocation is done.
2. Otherwise -- provided at least ``a*b`` processors are free -- the
   largest free sub-mesh that fits inside ``S(a, b)`` is allocated, and
   then repeatedly the largest free sub-mesh whose side lengths do not
   exceed those of the previously allocated sub-mesh, under the constraint
   that the total never exceeds ``a*b`` processors, until exactly ``a*b``
   processors are allocated.

The greedy largest-first decomposition is what maintains GABL's "high
degree of contiguity": big chunks keep communicating processors close,
shrinking message distances and contention.  Allocation always succeeds
when ``free >= a*b`` (a 1x1 chunk always exists), so GABL is *complete*
like Paging(0) and MBS.
"""

from __future__ import annotations

from repro.alloc.base import Allocation, Allocator
from repro.mesh.geometry import SubMesh
from repro.mesh.rectfind import find_suitable_submesh, largest_free_rect_bounded


class GABLAllocator(Allocator):
    """Greedy Available Busy List allocator."""

    name = "GABL"
    complete = True

    def __init__(self, width: int, length: int, allow_rotation: bool = True) -> None:
        super().__init__(width, length)
        self.allow_rotation = allow_rotation

    # ---------------------------------------------------------- allocation
    def _allocate(self, job_id: int, w: int, l: int) -> Allocation | None:
        contiguous = self._find_contiguous(w, l)
        if contiguous is not None:
            self.grid.allocate_submesh(contiguous, job_id)
            return Allocation(
                job_id=job_id,
                submeshes=(contiguous,),
                nodes=self._nodes_of((contiguous,)),
            )
        chunks = self._greedy_decompose(job_id, w, l)
        return Allocation(
            job_id=job_id,
            submeshes=tuple(chunks),
            nodes=self._nodes_of(chunks),
        )

    def _find_contiguous(self, w: int, l: int) -> SubMesh | None:
        """Suitable whole-job sub-mesh, trying the rotated shape as well."""
        s = find_suitable_submesh(self.grid, w, l)
        if s is None and self.allow_rotation and w != l:
            s = find_suitable_submesh(self.grid, l, w)
        return s

    def _greedy_decompose(self, job_id: int, w: int, l: int) -> list[SubMesh]:
        """Largest-first non-contiguous decomposition (paper section 3)."""
        chunks: list[SubMesh] = []
        remaining = w * l
        bound_w, bound_l = w, l
        while remaining > 0:
            chunk = self._largest_within(bound_w, bound_l, remaining)
            # a free processor always exists while remaining > 0 because
            # Allocator.allocate verified free >= w*l and chunks consume
            # free processors one-for-one with `remaining`
            assert chunk is not None, "GABL invariant violated: no free chunk"
            self.grid.allocate_submesh(chunk, job_id)
            chunks.append(chunk)
            remaining -= chunk.area
            bound_w, bound_l = chunk.width, chunk.length
        return chunks

    def _largest_within(
        self, bound_w: int, bound_l: int, max_area: int
    ) -> SubMesh | None:
        """Largest free sub-mesh fitting a ``bound_w x bound_l`` frame.

        A candidate may be rotated into the frame (a ``rw x rl`` rectangle
        fits ``a x b`` iff it fits directly or rotated), so both bound
        orientations are searched and the larger result kept.
        """
        best = largest_free_rect_bounded(self.grid, bound_w, bound_l, max_area)
        if self.allow_rotation and bound_w != bound_l:
            alt = largest_free_rect_bounded(self.grid, bound_l, bound_w, max_area)
            if alt is not None and (best is None or alt.area > best.area):
                best = alt
        return best
