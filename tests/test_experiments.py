"""Tests for the experiment registry, runner, caching and reporting."""

import pytest

from repro.core.config import SimConfig
from repro.experiments.figures import COMBOS, FIGURES, combo_label
from repro.experiments.report import (
    ascii_plot,
    check_ranking,
    endpoint_ratio,
    format_figure,
    series_leq,
)
from repro.experiments.runner import (
    METRICS,
    ResultCache,
    Scale,
    SCALES,
    FigureResult,
    run_figure,
    run_point,
    sdsc_trace,
)
from repro.workload.trace import TraceJob

TINY = SimConfig(width=8, length=8, jobs=15, seed=11)


class TestRegistry:
    def test_all_fifteen_figures(self):
        assert set(FIGURES) == {f"fig{i}" for i in range(2, 17)}

    def test_six_combos_in_paper_order(self):
        assert len(COMBOS) == 6
        assert COMBOS[0] == ("GABL", "FCFS")
        assert combo_label("GABL", "SSD") == "GABL(SSD)"

    def test_figure_metric_names_valid(self):
        valid = set(METRICS)
        for spec in FIGURES.values():
            assert spec.metric in valid

    def test_workload_coverage(self):
        workloads = {spec.workload for spec in FIGURES.values()}
        assert workloads == {"real", "uniform", "exponential"}

    def test_smoke_loads_subset_span(self):
        for spec in FIGURES.values():
            assert len(spec.smoke_loads) <= len(spec.loads)
            assert spec.loads_for("smoke") == spec.smoke_loads
            assert spec.loads_for("paper") == spec.loads

    def test_saturation_figures(self):
        for fig in ("fig8", "fig9", "fig10"):
            assert FIGURES[fig].saturation
            assert len(FIGURES[fig].loads) == 1


class TestScales:
    def test_presets(self):
        assert set(SCALES) == {"smoke", "quick", "paper"}
        assert SCALES["paper"].jobs == 1000
        assert SCALES["paper"].max_replications == 20

    def test_unknown(self):
        with pytest.raises(KeyError):
            Scale.by_name("gigantic")


class TestRunPoint:
    def test_returns_all_metrics(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        out = run_point(
            "uniform", 0.01, "GABL", "FCFS",
            scale="smoke", config=TINY, cache=cache,
        )
        assert set(out) == set(METRICS)
        assert out["mean_turnaround"] > 0

    def test_cache_hit_identical(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        a = run_point("uniform", 0.01, "MBS", "SSD",
                      scale="smoke", config=TINY, cache=cache)
        b = run_point("uniform", 0.01, "MBS", "SSD",
                      scale="smoke", config=TINY, cache=cache)
        assert a == b

    def test_cache_persists_to_disk(self, tmp_path):
        path = tmp_path / "c"
        c1 = ResultCache(path)
        a = run_point("uniform", 0.01, "GABL", "FCFS",
                      scale="smoke", config=TINY, cache=c1)
        c2 = ResultCache(path)  # fresh instance reads the shards
        b = run_point("uniform", 0.01, "GABL", "FCFS",
                      scale="smoke", config=TINY, cache=c2)
        assert a == b

    def test_distinct_keys_not_conflated(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        a = run_point("uniform", 0.01, "GABL", "FCFS",
                      scale="smoke", config=TINY, cache=cache)
        b = run_point("uniform", 0.02, "GABL", "FCFS",
                      scale="smoke", config=TINY, cache=cache)
        assert a != b

    def test_custom_trace(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        trace = [
            TraceJob(arrival=float(i * 5), size=(i % 4) + 1, runtime=30.0)
            for i in range(40)
        ]
        out = run_point("real", 0.05, "GABL", "FCFS",
                        scale="smoke", config=TINY, cache=cache, trace=trace)
        assert out["mean_service"] > 0


class TestRunFigure:
    def test_figure_shape(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        result = run_figure("fig3", scale="smoke", config=TINY, cache=cache)
        assert result.spec.fig_id == "fig3"
        assert len(result.loads) == 2
        assert set(result.series) == {combo_label(a, s) for a, s in COMBOS}
        for series in result.series.values():
            assert len(series) == len(result.loads)
            assert all(v > 0 for v in series)

    def test_series_for(self, tmp_path):
        cache = ResultCache(tmp_path / "c")
        result = run_figure("fig9", scale="smoke", config=TINY, cache=cache)
        assert result.series_for("GABL", "FCFS") == result.series["GABL(FCFS)"]


class TestSDSCTraceCache:
    def test_prefix_memoised(self):
        t1 = sdsc_trace(max_jobs=50)
        t2 = sdsc_trace(max_jobs=50)
        assert t1 is t2
        assert len(t1) == 50

    def test_full_consistent_with_prefix(self):
        full = sdsc_trace()
        prefix = sdsc_trace(max_jobs=10)
        assert full[:10] == list(prefix)


def _fake_result() -> FigureResult:
    spec = FIGURES["fig3"]
    return FigureResult(
        spec=spec,
        loads=(0.01, 0.02),
        series={
            "GABL(FCFS)": (10.0, 20.0),
            "Paging(0)(FCFS)": (15.0, 30.0),
            "MBS(FCFS)": (12.0, 25.0),
        },
    )


class TestReport:
    def test_format_figure_contains_everything(self):
        text = format_figure(_fake_result())
        assert "FIG3" in text
        assert "GABL(FCFS)" in text
        assert "0.01" in text and "0.02" in text
        assert "20.0" in text

    def test_series_leq(self):
        assert series_leq((1, 2), (3, 4))
        assert not series_leq((5, 5), (1, 1))
        assert series_leq((10, 10), (10, 10))  # slack covers equality

    def test_endpoint_ratio(self):
        assert endpoint_ratio((1, 2), (1, 4)) == pytest.approx(0.5)
        assert endpoint_ratio((1, 2), (1, 0)) == float("inf")

    def test_check_ranking_passes(self):
        problems = check_ranking(
            _fake_result(), ["GABL(FCFS)", "MBS(FCFS)", "Paging(0)(FCFS)"]
        )
        assert problems == []

    def test_check_ranking_flags_violation(self):
        problems = check_ranking(
            _fake_result(), ["Paging(0)(FCFS)", "GABL(FCFS)"]
        )
        assert len(problems) == 1
        assert "expected" in problems[0]

    def test_ascii_plot_renders(self):
        art = ascii_plot(_fake_result())
        assert "A = GABL(FCFS)" in art
        assert "A" in art.split("\n")[1] or "A" in art
