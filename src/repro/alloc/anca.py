"""ANCA -- Adaptive Non-Contiguous Allocation (Chang & Mohapatra [4]).

The strategy the paper cites as the other classic non-contiguous scheme:
a request ``S(a, b)`` is first tried contiguously; on failure it is split
into two *equal halves along the longer side*, and each half is allocated
(recursively) the same way.  Splitting bottoms out at single processors,
so ANCA -- like Paging(0), MBS and GABL -- succeeds whenever enough
processors are free.

Compared with GABL, the halving is *request-driven* rather than
*availability-driven*: ANCA may split a request although a large free
sub-mesh barely misses one dimension, where GABL's
largest-free-rectangle search would carve a better chunk.  The
``bench_abl_contiguity`` ablation quantifies this gap.
"""

from __future__ import annotations

from repro.alloc.base import Allocation, Allocator
from repro.mesh.geometry import SubMesh
from repro.mesh.rectfind import find_suitable_submesh


class ANCAAllocator(Allocator):
    """Adaptive Non-Contiguous Allocation via recursive request halving."""

    name = "ANCA"
    complete = True

    def __init__(self, width: int, length: int, allow_rotation: bool = True) -> None:
        super().__init__(width, length)
        self.allow_rotation = allow_rotation

    def _allocate(self, job_id: int, w: int, l: int) -> Allocation | None:
        chunks: list[SubMesh] = []
        self._place(job_id, w, l, chunks)
        return Allocation(
            job_id=job_id,
            submeshes=tuple(chunks),
            nodes=self._nodes_of(chunks),
        )

    def _place(self, job_id: int, w: int, l: int, out: list[SubMesh]) -> None:
        """Allocate a (sub)request contiguously or split it in half.

        The caller guarantees enough free processors exist for the whole
        original request, and every split conserves the processor count,
        so the recursion always terminates with exact coverage (1x1
        pieces exist while any processor is free).
        """
        s = find_suitable_submesh(self.grid, w, l)
        if s is None and self.allow_rotation and w != l:
            s = find_suitable_submesh(self.grid, l, w)
        if s is not None:
            self.grid.allocate_submesh(s, job_id)
            out.append(s)
            return
        # split the longer side into two halves (sizes differ by <= 1)
        if w >= l:
            if w == 1 and l == 1:
                raise AssertionError(
                    "ANCA invariant violated: no free processor for a 1x1 piece"
                )
            half = w // 2
            self._place(job_id, half, l, out)
            self._place(job_id, w - half, l, out)
        else:
            half = l // 2
            self._place(job_id, w, half, out)
            self._place(job_id, w, l - half, out)
