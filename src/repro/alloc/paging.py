"""Paging(size_index) non-contiguous allocation (Lo et al. [17]).

The mesh is divided into square pages of side ``2**size_index``; a page is
the allocation unit.  Pages are kept in a fixed index order (row-major by
default, see :mod:`repro.alloc.indexing`) and a request for a ``w x l``
sub-mesh is satisfied by the first ``ceil(w/ps) * ceil(l/ps)`` free pages
in that order.

With ``size_index = 0`` (the paper's Paging(0)) a page is a single
processor, so a request takes exactly ``w*l`` free processors and the
strategy is *complete*: it succeeds iff enough processors are free.  For
``size_index >= 1`` whole pages are granted to partially-filled requests,
i.e. internal fragmentation appears and grows with the index -- the
ablation bench ``bench_abl_pagesize`` measures this.

Adjacent allocated pages (in grid terms) are merged into maximal runs per
row when building the allocation's sub-mesh list, which keeps the busy
list and the traffic generator's notion of locality honest.
"""

from __future__ import annotations

from repro.alloc.base import Allocation, Allocator
from repro.alloc.indexing import scheme
from repro.mesh.geometry import Coord, SubMesh


class PagingAllocator(Allocator):
    """Paging(``size_index``) with a configurable page indexing scheme."""

    complete = True  # only literally true for size_index == 0 (see class doc)

    def __init__(
        self,
        width: int,
        length: int,
        size_index: int = 0,
        indexing: str = "row-major",
    ) -> None:
        super().__init__(width, length)
        if size_index < 0:
            raise ValueError(f"size_index must be >= 0, got {size_index}")
        self.size_index = size_index
        self.page_side = 2**size_index
        if width % self.page_side or length % self.page_side:
            raise ValueError(
                f"mesh {width}x{length} not divisible into "
                f"{self.page_side}x{self.page_side} pages"
            )
        self.indexing = indexing
        self.name = f"Paging({size_index})"
        self.complete = size_index == 0
        self.pages_w = width // self.page_side
        self.pages_l = length // self.page_side
        #: page bases in allocation order
        self._order: list[Coord] = scheme(indexing)(self.pages_w, self.pages_l)
        #: ``_page_free[i]``: whether page ``_order[i]`` is free
        self._page_free = [True] * len(self._order)
        self._free_pages = len(self._order)

    # ------------------------------------------------------------ allocation
    def pages_needed(self, w: int, l: int) -> int:
        """Pages required for a ``w x l`` request (ceil per side)."""
        ps = self.page_side
        return (-(-w // ps)) * (-(-l // ps))

    def _allocate(self, job_id: int, w: int, l: int) -> Allocation | None:
        need = self.pages_needed(w, l)
        if need > self._free_pages:
            return None
        free = self._page_free
        positions: list[int] = []
        pos = -1
        for _ in range(need):
            # the first free page after the last one taken, in index order
            pos = free.index(True, pos + 1)
            free[pos] = False
            positions.append(pos)
        self._free_pages -= need
        submeshes = self._merge_pages([self._order[p] for p in positions])
        for s in submeshes:
            self.grid.allocate_submesh(s, job_id)
        return Allocation(
            job_id=job_id,
            submeshes=tuple(submeshes),
            nodes=self._nodes_of(submeshes),
            token=tuple(positions),
        )

    def _release(self, allocation: Allocation) -> None:
        super()._release(allocation)
        positions: tuple[int, ...] = allocation.token
        for pos in positions:
            if self._page_free[pos]:
                raise ValueError(f"page {self._order[pos]} already free")
            self._page_free[pos] = True
        self._free_pages += len(positions)

    def reset(self) -> None:
        super().reset()
        self._page_free = [True] * len(self._order)
        self._free_pages = len(self._order)

    # -------------------------------------------------------------- helpers
    def _merge_pages(self, pages: list[Coord]) -> list[SubMesh]:
        """Merge taken pages into maximal horizontal runs per page row.

        A full 2D merge is unnecessary: runs already capture the locality
        the indexing scheme provides, and each allocation stays a short
        list of sub-meshes.
        """
        ps = self.page_side
        out: list[SubMesh] = []
        row = first = last = -2  # the open run: page row, first..last page column
        for y, x in sorted([(p.y, p.x) for p in pages]):
            if y == row and x == last + 1:
                last = x
                continue
            if first >= 0:
                out.append(SubMesh(first * ps, row * ps, (last + 1) * ps - 1, (row + 1) * ps - 1))
            row, first, last = y, x, x
        if first >= 0:
            out.append(SubMesh(first * ps, row * ps, (last + 1) * ps - 1, (row + 1) * ps - 1))
        return out
