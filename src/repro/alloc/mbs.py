"""MBS -- the Multiple Buddy Strategy (Lo et al. [17]).

On initialisation the ``W x L`` mesh is covered by non-overlapping square
blocks with power-of-two sides (a 16x22 mesh becomes one 16x16 block, four
4x4 blocks and eight 2x2 blocks).  The number of processors ``p`` requested
by a job is factorised into base 4, ``p = sum(d_i * 4**i)`` with
``0 <= d_i <= 3``, and the request asks for ``d_i`` blocks of side ``2**i``
per level, largest level first.

If a required block size is unavailable, MBS splits the smallest larger
free block into four buddies (recursively); if no larger block exists the
required block is broken into four requests one level down.  Deallocation
returns blocks to their free lists and merges four free buddies back into
their parent, cascading upwards.

Because every free processor always belongs to some free leaf block, the
strategy is *complete*: a request succeeds iff ``free >= p``.  Its known
weakness -- reproduced by the real-workload experiments -- is that
contiguous allocation is only ever sought for request sizes of the form
``2**(2n)``, so the non-power-of-two sizes that dominate real traces get
scattered into many small blocks.
"""

from __future__ import annotations

import heapq

from repro.alloc.base import Allocation, Allocator
from repro.mesh.geometry import SubMesh

# block states
_FREE = 0
_ALLOC = 1
_SPLIT = 2
_ABSORBED = 3  # merged back into the parent; not a leaf


class _Block:
    """A square buddy block of side ``2**k`` based at ``(x, y)``."""

    __slots__ = ("k", "x", "y", "parent", "children", "state", "epoch")

    def __init__(self, k: int, x: int, y: int, parent: "_Block | None") -> None:
        self.k = k
        self.x = x
        self.y = y
        self.parent = parent
        self.children: tuple[_Block, ...] | None = None
        self.state = _FREE
        self.epoch = 0  # bumped on every state change (lazy heap invalidation)

    @property
    def side(self) -> int:
        return 1 << self.k

    @property
    def area(self) -> int:
        return 1 << (2 * self.k)

    def submesh(self) -> SubMesh:
        return SubMesh.from_base(self.x, self.y, self.side, self.side)

    def make_children(self) -> tuple["_Block", ...]:
        """Create (or reuse) the four buddies one level down."""
        if self.children is None:
            h = self.side // 2
            self.children = (
                _Block(self.k - 1, self.x, self.y, self),
                _Block(self.k - 1, self.x + h, self.y, self),
                _Block(self.k - 1, self.x, self.y + h, self),
                _Block(self.k - 1, self.x + h, self.y + h, self),
            )
        return self.children

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"<Block k={self.k} at ({self.x},{self.y}) state={self.state}>"


def base4_digits(p: int) -> list[int]:
    """Base-4 digits of ``p``, least significant first (``d_i`` of the paper)."""
    if p <= 0:
        raise ValueError(f"processor count must be positive, got {p}")
    digits: list[int] = []
    while p:
        digits.append(p % 4)
        p //= 4
    return digits


def cover_with_squares(width: int, length: int) -> list[tuple[int, int, int]]:
    """Cover a ``width x length`` rectangle with power-of-two squares.

    Returns ``(k, x, y)`` triples (side ``2**k`` based at ``(x, y)``),
    placing the largest fitting squares first and recursing into the two
    remaining strips.  The cover is exact and non-overlapping.
    """
    out: list[tuple[int, int, int]] = []

    def cover(x0: int, y0: int, w: int, l: int) -> None:
        if w <= 0 or l <= 0:
            return
        k = min(w, l).bit_length() - 1  # largest 2**k <= min(w, l)
        side = 1 << k
        across, up = w // side, l // side
        for j in range(up):
            for i in range(across):
                out.append((k, x0 + i * side, y0 + j * side))
        cover(x0 + across * side, y0, w - across * side, l)  # right strip
        cover(x0, y0 + up * side, across * side, l - up * side)  # bottom remainder

    cover(0, 0, width, length)
    return out


class MBSAllocator(Allocator):
    """Multiple Buddy Strategy allocator."""

    name = "MBS"
    complete = True

    def __init__(self, width: int, length: int) -> None:
        super().__init__(width, length)
        roots = cover_with_squares(width, length)
        self.max_k = max(k for k, _, _ in roots)
        #: per-level lazy min-heaps of (y, x, epoch, block)
        self._free: list[list[tuple[int, int, int, _Block]]] = [
            [] for _ in range(self.max_k + 1)
        ]
        self._roots = [_Block(k, x, y, None) for k, x, y in roots]
        for b in self._roots:
            self._push_free(b)

    # ----------------------------------------------------------- free lists
    def _push_free(self, block: _Block) -> None:
        block.state = _FREE
        block.epoch += 1
        heapq.heappush(self._free[block.k], (block.y, block.x, block.epoch, block))

    def _pop_free(self, k: int) -> _Block | None:
        """Pop the row-major-first valid free block at level ``k``."""
        heap = self._free[k]
        while heap:
            y, x, epoch, block = heap[0]
            if block.state == _FREE and block.epoch == epoch:
                heapq.heappop(heap)
                return block
            heapq.heappop(heap)  # stale entry
        return None

    def _peek_free(self, k: int) -> bool:
        heap = self._free[k]
        while heap:
            _, _, epoch, block = heap[0]
            if block.state == _FREE and block.epoch == epoch:
                return True
            heapq.heappop(heap)
        return False

    # ------------------------------------------------------------ splitting
    def _split_down(self, block: _Block, target_k: int) -> _Block:
        """Split ``block`` until a block of level ``target_k`` emerges.

        The base-corner child is followed; the other three buddies join the
        free lists at each level.
        """
        while block.k > target_k:
            block.state = _SPLIT
            block.epoch += 1
            children = block.make_children()
            for child in children[1:]:
                self._push_free(child)
            block = children[0]
        return block

    def _take_block(self, k: int) -> _Block | None:
        """Obtain an allocated block of level ``k`` (splitting if needed)."""
        block = self._pop_free(k)
        if block is None:
            for j in range(k + 1, self.max_k + 1):
                if self._peek_free(j):
                    block = self._pop_free(j)
                    assert block is not None
                    block = self._split_down(block, k)
                    break
            else:
                return None
        block.state = _ALLOC
        block.epoch += 1
        return block

    # ------------------------------------------------------------- merging
    def _merge_up(self, block: _Block) -> None:
        """Cascade buddy merges from a freshly freed block upwards."""
        parent = block.parent
        while parent is not None:
            children = parent.children
            assert children is not None
            if any(c.state != _FREE for c in children):
                return
            for c in children:
                c.state = _ABSORBED
                c.epoch += 1
            self._push_free(parent)
            parent = parent.parent

    # ---------------------------------------------------------- allocation
    def _allocate(self, job_id: int, w: int, l: int) -> Allocation | None:
        p = w * l
        # needs[i] = blocks of level i still required, seeded by the base-4
        # factorisation of p
        digits = base4_digits(p)
        needs = [0] * (self.max_k + 1)
        for i, d in enumerate(digits):
            if i > self.max_k:
                # request bigger than the largest block level: express the
                # excess as extra blocks at the top level
                needs[self.max_k] += d * 4 ** (i - self.max_k)
            else:
                needs[i] += d
        blocks: list[_Block] = []
        for i in range(self.max_k, -1, -1):
            while needs[i]:
                block = self._take_block(i)
                if block is None:
                    if i == 0:
                        # cannot happen while free >= p (every free processor
                        # sits in a splittable free leaf); guard anyway
                        raise AssertionError("MBS free lists inconsistent")
                    needs[i - 1] += 4 * needs[i]
                    needs[i] = 0
                    break
                blocks.append(block)
                needs[i] -= 1
        submeshes = tuple(b.submesh() for b in blocks)
        for s, b in zip(submeshes, blocks):
            self.grid.allocate_submesh(s, job_id)
        return Allocation(
            job_id=job_id,
            submeshes=submeshes,
            nodes=self._nodes_of(submeshes),
            token=tuple(blocks),
        )

    def _release(self, allocation: Allocation) -> None:
        super()._release(allocation)
        blocks: tuple[_Block, ...] = allocation.token
        for block in blocks:
            if block.state != _ALLOC:
                raise ValueError(f"releasing non-allocated block {block}")
            self._push_free(block)
        for block in blocks:
            if block.state == _FREE:  # may have been absorbed by a merge
                self._merge_up(block)

    def reset(self) -> None:
        super().reset()
        self._free = [[] for _ in range(self.max_k + 1)]
        for b in self._roots:
            b.children = None
            self._push_free(b)
