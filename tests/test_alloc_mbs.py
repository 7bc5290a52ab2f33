"""Unit tests for the Multiple Buddy Strategy (repro.alloc.mbs)."""

import pytest

from repro.alloc.mbs import MBSAllocator, base4_digits, cover_with_squares
from tests.conftest import free_blocks_at, submeshes_disjoint


class TestBase4:
    def test_small(self):
        assert base4_digits(1) == [1]
        assert base4_digits(3) == [3]
        assert base4_digits(4) == [0, 1]
        assert base4_digits(5) == [1, 1]

    def test_paper_form(self):
        """p = sum d_i * 4^i with 0 <= d_i <= 3."""
        for p in range(1, 400):
            digits = base4_digits(p)
            assert all(0 <= d <= 3 for d in digits)
            assert sum(d * 4**i for i, d in enumerate(digits)) == p

    def test_non_positive(self):
        with pytest.raises(ValueError):
            base4_digits(0)


class TestCover:
    def test_square_power_of_two(self):
        cover = cover_with_squares(16, 16)
        assert cover == [(4, 0, 0)]

    def test_paper_mesh_16x22(self):
        cover = cover_with_squares(16, 22)
        # one 16x16, four 4x4, eight 2x2 = 256 + 64 + 32 = 352
        sides = sorted((1 << k for k, _, _ in cover), reverse=True)
        assert sides == [16, 4, 4, 4, 4, 2, 2, 2, 2, 2, 2, 2, 2]
        assert sum(s * s for s in sides) == 352

    def test_cover_is_exact_partition(self):
        for w, l in [(16, 22), (8, 8), (5, 7), (1, 1), (3, 10)]:
            cover = cover_with_squares(w, l)
            cells = set()
            for k, x, y in cover:
                side = 1 << k
                for dy in range(side):
                    for dx in range(side):
                        cell = (x + dx, y + dy)
                        assert cell not in cells, "overlapping cover"
                        cells.add(cell)
            assert len(cells) == w * l


class TestAllocate:
    def test_power_of_four_is_contiguous(self):
        a = MBSAllocator(16, 16)
        alloc = a.allocate(1, 4, 4)  # 16 = 2^2 * 2^2 -> one 4x4 block
        assert alloc is not None
        assert alloc.contiguous
        assert alloc.submeshes[0].area == 16

    def test_non_power_gets_multiple_blocks(self):
        a = MBSAllocator(16, 16)
        alloc = a.allocate(1, 5, 7)  # 35 = 2*16 + 3*1
        assert alloc is not None
        assert alloc.size == 35
        sides = sorted(s.area for s in alloc.submeshes)
        assert sides == [1, 1, 1, 16, 16]

    def test_blocks_are_squares(self):
        a = MBSAllocator(16, 22)
        alloc = a.allocate(1, 6, 5)  # 30 = 16 + 3*4 + 2
        assert alloc is not None
        for s in alloc.submeshes:
            assert s.width == s.length
            assert s.width in (1, 2, 4, 8, 16)

    def test_complete_on_exact_capacity(self):
        a = MBSAllocator(8, 8)
        assert a.allocate(1, 8, 8) is not None
        assert a.free_count == 0

    def test_succeeds_iff_free(self):
        a = MBSAllocator(8, 8)
        assert a.allocate(1, 7, 9 - 2) is not None  # 49
        assert a.allocate(2, 4, 4) is None  # 16 > 15 free
        assert a.allocate(3, 5, 3) is not None  # 15 == 15 free

    def test_splitting_produces_buddies(self):
        a = MBSAllocator(8, 8)  # one 8x8 root
        alloc = a.allocate(1, 2, 2)  # needs a 2x2: split 8->4->2
        assert alloc is not None
        # after splitting, free blocks: 3 of 4x4 + 3 of 2x2
        assert free_blocks_at(a, 2) == 3
        assert free_blocks_at(a, 1) == 3
        assert a.free_count == 60

    def test_merge_restores_root(self):
        a = MBSAllocator(8, 8)
        alloc = a.allocate(1, 3, 3)
        a.release(alloc)
        assert a.free_count == 64
        # buddy merges must rebuild the single 8x8 root
        assert free_blocks_at(a, 3) == 1
        assert free_blocks_at(a, 2) == 0
        assert free_blocks_at(a, 1) == 0
        assert free_blocks_at(a, 0) == 0

    def test_interleaved_alloc_release(self):
        a = MBSAllocator(16, 22)
        a1 = a.allocate(1, 5, 5)
        a2 = a.allocate(2, 7, 3)
        a3 = a.allocate(3, 2, 9)
        assert all(x is not None for x in (a1, a2, a3))
        subs = list(a1.submeshes) + list(a2.submeshes) + list(a3.submeshes)
        assert submeshes_disjoint(subs)
        a.release(a2)
        a4 = a.allocate(4, 10, 2)
        assert a4 is not None
        a.release(a1)
        a.release(a3)
        a.release(a4)
        assert a.free_count == 352
        a.grid.validate()

    def test_big_request_on_paper_mesh(self):
        a = MBSAllocator(16, 22)
        alloc = a.allocate(1, 16, 22)  # 352 = 16*22, larger than max block
        assert alloc is not None
        assert alloc.size == 352
        assert a.free_count == 0

    def test_reset(self):
        a = MBSAllocator(16, 22)
        a.allocate(1, 7, 7)
        a.reset()
        assert a.free_count == 352
        assert a.allocate(2, 16, 16) is not None


class TestMBSWeakness:
    def test_non_power_of_two_fragments(self):
        """The paper's explanation for MBS's real-workload weakness:
        contiguity is only sought for sizes of the form 2^(2n)."""
        a = MBSAllocator(16, 16)
        p17 = a.allocate(1, 17, 1)  # 17 = 16 + 1 -> at least 2 blocks
        assert p17 is not None
        assert p17.fragment_count >= 2
        a.reset()
        p16 = a.allocate(2, 4, 4)  # 16 = 4^2 -> single block
        assert p16.fragment_count == 1
