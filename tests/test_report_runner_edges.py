"""Edge-case tests for reporting, runner plumbing and misc strategy knobs."""

import pytest

from repro.experiments.figures import FIGURES
from repro.experiments.report import (
    ascii_plot,
    endpoint_ratio,
    format_figure,
    mean_of,
    series_leq,
)
from repro.experiments.runner import FigureResult, ResultCache, make_workload, Scale
from repro.core.config import SimConfig


def fig(series, loads=(0.01, 0.02), fig_id="fig3"):
    return FigureResult(spec=FIGURES[fig_id], loads=loads, series=series)


class TestReportEdges:
    def test_format_small_values_get_decimals(self):
        r = fig({"GABL(FCFS)": (0.71, 0.82), "MBS(FCFS)": (0.69, 0.80)})
        text = format_figure(r)
        assert "0.710" in text and "0.800" in text

    def test_format_large_values_one_decimal(self):
        r = fig({"GABL(FCFS)": (1000.5, 2000.25)})
        text = format_figure(r)
        assert "1000.5" in text
        assert "2000.2" in text or "2000.3" in text

    def test_explicit_precision(self):
        r = fig({"A": (1.23456,)}, loads=(0.01,))
        assert "1.2346" in format_figure(r, precision=4)

    def test_ascii_plot_constant_series(self):
        r = fig({"A": (5.0, 5.0), "B": (5.0, 5.0)})
        art = ascii_plot(r)  # flat series must not divide by zero
        assert "A = A" in art

    def test_mean_of_empty(self):
        assert mean_of([]) == 0.0

    def test_series_leq_slack_boundary(self):
        assert series_leq((10.0,), (10.0,), slack=1.0)
        assert not series_leq((10.1,), (10.0,), slack=1.0)

    def test_endpoint_ratio_zero_denominator(self):
        assert endpoint_ratio((2.0,), (0.0,)) == float("inf")


class TestResultCacheEdges:
    def test_corrupt_shard_ignored(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "1")
        cache = ResultCache(tmp_path / "c")
        cache.put_many([("k", {"m": 1.0})])
        shards = list(cache.path.glob("*.json"))
        assert len(shards) == 1
        shards[0].write_text("{torn write")
        assert ResultCache(tmp_path / "c").get("k") is None

    def test_memory_only_when_disk_disabled(self, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_CACHE", "0")
        cache = ResultCache(tmp_path / "c")
        cache.put_many([("k", {"m": 2.0})])
        assert cache.get("k") == {"m": 2.0}
        assert not cache.path.exists()


class TestWorkloadFactory:
    CFG = SimConfig(width=8, length=8, jobs=10)
    SC = Scale("t", jobs=10, min_replications=1, max_replications=1,
               trace_max_jobs=50)

    def test_uniform(self):
        wl = make_workload("uniform", self.CFG, 0.01, self.SC)
        assert wl.name == "stochastic-uniform"

    def test_exponential(self):
        wl = make_workload("exponential", self.CFG, 0.01, self.SC)
        assert wl.name == "stochastic-exponential"

    def test_real_uses_trace_prefix(self):
        wl = make_workload("real", self.CFG, 0.01, self.SC)
        assert wl.name == "real-trace"
        assert len(wl.trace) == 50

    def test_unknown(self):
        with pytest.raises(KeyError):
            make_workload("adversarial", self.CFG, 0.01, self.SC)


class TestStrategyKnobs:
    def test_gabl_rotation_off_changes_behaviour(self):
        from repro.alloc.gabl import GABLAllocator
        from repro.mesh.geometry import SubMesh

        def fragments(rotation):
            a = GABLAllocator(8, 8, allow_rotation=rotation)
            a.grid.allocate_submesh(SubMesh.from_base(0, 4, 8, 4), 999)
            alloc = a.allocate(1, 3, 6)  # fits only rotated (6x3)
            assert alloc is not None
            return alloc.fragment_count

        assert fragments(True) == 1
        assert fragments(False) > 1

    def test_mbs_deterministic_block_choice(self):
        from repro.alloc.mbs import MBSAllocator

        a1, a2 = MBSAllocator(16, 16), MBSAllocator(16, 16)
        s1 = a1.allocate(1, 5, 5).submeshes
        s2 = a2.allocate(1, 5, 5).submeshes
        assert s1 == s2

    def test_paging_all_schemes_complete(self):
        from repro.alloc.paging import PagingAllocator

        for scheme in ("row-major", "snake", "shuffled-row-major",
                       "shuffled-snake"):
            a = PagingAllocator(8, 8, size_index=0, indexing=scheme)
            allocs = [a.allocate(j, 4, 4) for j in range(4)]
            assert all(x is not None for x in allocs)
            assert a.free_count == 0

    def test_anca_rotation_flag(self):
        from repro.alloc.anca import ANCAAllocator

        a = ANCAAllocator(8, 4, allow_rotation=False)
        alloc = a.allocate(1, 3, 7)  # cannot fit upright; splits instead
        assert alloc is not None
        assert alloc.size == 21
        assert not alloc.contiguous
