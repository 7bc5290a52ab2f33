"""Unit tests for the time-series primitives (repro.stats.series)."""

from __future__ import annotations

import math

import pytest

from repro.stats.series import (
    DIVERGED,
    IDENTICAL,
    WITHIN_BAND,
    area_between,
    band_exceedances,
    detect_plateau,
    detect_saturation,
    diff_series,
    geometric_ladder,
    max_deviation,
    resample,
    union_grid,
    worst_series_verdict,
)


class TestResample:
    def test_identity_on_source_grid(self):
        times = [0.0, 1.0, 2.5, 7.0]
        values = [1.0, 3.0, 2.0, 5.0]
        assert resample(times, values, times) == values

    def test_carry_forward_between_samples(self):
        assert resample([0.0, 2.0], [1.0, 9.0], [0.5, 1.9, 2.0, 3.0]) == [
            1.0, 1.0, 9.0, 9.0,
        ]

    def test_extends_first_value_backward(self):
        assert resample([5.0, 6.0], [2.0, 3.0], [0.0, 4.9]) == [2.0, 2.0]

    def test_rejects_bad_input(self):
        with pytest.raises(ValueError):
            resample([], [], [0.0])
        with pytest.raises(ValueError):
            resample([0.0, 1.0], [1.0], [0.0])
        with pytest.raises(ValueError):
            resample([0.0, 0.0], [1.0, 2.0], [0.0])

    def test_union_grid_merges_and_dedups(self):
        assert union_grid([0.0, 2.0], [1.0, 2.0, 3.0]) == [0.0, 1.0, 2.0, 3.0]
        with pytest.raises(ValueError):
            union_grid([], [])


class TestDeviationAndArea:
    def test_max_deviation_location(self):
        worst, at = max_deviation([1.0, 2.0, 3.0], [1.0, 5.0, 3.5])
        assert worst == 3.0
        assert at == 1

    def test_max_deviation_symmetric(self):
        a, b = [1.0, 4.0, 2.0], [2.0, 2.0, 2.0]
        assert max_deviation(a, b) == max_deviation(b, a)

    def test_area_between_step_integral(self):
        grid = [0.0, 1.0, 3.0]
        # |1-2|*1 + |5-2|*2; the last sample carries no width
        assert area_between(grid, [1.0, 5.0, 0.0], [2.0, 2.0, 9.0]) == 7.0

    def test_area_single_point_grid_is_zero(self):
        assert area_between([0.0], [4.0], [1.0]) == 0.0

    def test_band_exceedances_respect_atol_and_rtol(self):
        a = [10.0, 10.0, 10.0]
        b = [10.5, 11.5, 10.0]
        assert band_exceedances(a, b, atol=1.0) == [1]
        assert band_exceedances(a, b, rtol=0.2) == []
        with pytest.raises(ValueError):
            band_exceedances(a, b, atol=-1.0)

    @pytest.mark.parametrize("tol", ["atol", "rtol"])
    @pytest.mark.parametrize("value", [math.nan, math.inf])
    def test_band_exceedances_reject_non_finite_tolerances(self, tol, value):
        with pytest.raises(ValueError, match="finite"):
            band_exceedances([1.0], [100.0], **{tol: value})


class TestDiffSeries:
    def test_identical_series(self):
        d = diff_series("u", [0.0, 1.0], [0.5, 0.7], [0.0, 1.0], [0.5, 0.7])
        assert d.verdict == IDENTICAL
        assert d.max_abs == 0.0
        assert d.area == 0.0

    def test_within_band_then_diverged_as_band_shrinks(self):
        args = ("u", [0.0, 1.0, 2.0], [1.0, 1.0, 1.0],
                [0.0, 1.0, 2.0], [1.0, 1.05, 1.0])
        assert diff_series(*args, atol=0.1).verdict == WITHIN_BAND
        assert diff_series(*args).verdict == DIVERGED

    def test_different_grids_are_unioned(self):
        d = diff_series(
            "u", [0.0, 2.0], [1.0, 1.0], [0.0, 1.0, 2.0], [1.0, 1.0, 1.0]
        )
        assert d.n == 3
        assert d.verdict == IDENTICAL

    def test_max_at_reports_grid_time(self):
        d = diff_series(
            "u", [0.0, 4.0, 8.0], [0.0, 1.0, 1.0],
            [0.0, 4.0, 8.0], [0.0, 3.0, 1.0],
        )
        assert d.max_at == 4.0
        assert d.max_abs == 2.0
        assert d.exceedances == 1

    def test_worst_series_verdict_order(self):
        assert worst_series_verdict([]) == IDENTICAL
        assert worst_series_verdict([IDENTICAL, WITHIN_BAND]) == WITHIN_BAND
        assert worst_series_verdict([WITHIN_BAND, DIVERGED]) == DIVERGED


class TestPlateauDetection:
    def test_detects_plateau_after_confirm_steps(self):
        vals = [0.1, 0.3, 0.6, 0.72, 0.73, 0.73, 0.73]
        assert detect_plateau(vals, rel_tol=0.03, confirm=2) == 5

    def test_no_plateau_in_growing_sequence(self):
        assert detect_plateau([0.1, 0.2, 0.4, 0.8], rel_tol=0.03) is None

    def test_flat_run_resets_on_growth(self):
        vals = [0.5, 0.5, 0.7, 0.7, 0.7]
        assert detect_plateau(vals, rel_tol=0.01, confirm=2) == 4

    def test_decrease_counts_as_flat(self):
        assert detect_plateau([0.8, 0.7, 0.6], confirm=2) == 2

    def test_validation(self):
        with pytest.raises(ValueError):
            detect_plateau([1.0], rel_tol=-0.1)
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                detect_plateau([1.0], rel_tol=value)
        with pytest.raises(ValueError):
            detect_plateau([1.0], confirm=0)

    def test_short_sequences_never_confirm(self):
        assert detect_plateau([], confirm=1) is None
        assert detect_plateau([1.0], confirm=1) is None


class TestSaturationDetection:
    def test_plain_plateau_without_queue(self):
        utils = [0.3, 0.6, 0.73, 0.73, 0.73]
        assert detect_saturation(utils, rel_tol=0.03, confirm=2) == 4

    def test_queue_growth_corroborates(self):
        utils = [0.3, 0.6, 0.73, 0.73, 0.73]
        queue = [0.0, 1.0, 5.0, 20.0, 80.0]
        assert detect_saturation(utils, queue) == 4

    def test_draining_queue_rejects_lull(self):
        # utilization plateaus twice; the first time the backlog drains
        utils = [0.3, 0.5, 0.5, 0.5, 0.7, 0.7, 0.7]
        queue = [9.0, 5.0, 2.0, 0.0, 1.0, 9.0, 30.0]
        assert detect_saturation(utils, queue, rel_tol=0.01, confirm=2) == 6

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            detect_saturation([0.5], [1.0, 2.0])


class TestGeometricLadder:
    def test_shape_and_anchor(self):
        ladder = geometric_ladder(0.013, factor=1.5, max_steps=4)
        assert ladder[1] == 0.013
        assert ladder[0] == pytest.approx(0.013 / 1.5)
        assert ladder[3] == pytest.approx(0.013 * 1.5**2)
        assert len(ladder) == 4

    def test_validation(self):
        for bad in ((0.0,), (-1.0,)):
            with pytest.raises(ValueError):
                geometric_ladder(*bad)
        with pytest.raises(ValueError):
            geometric_ladder(1.0, factor=1.0)
        with pytest.raises(ValueError):
            geometric_ladder(1.0, max_steps=1)
