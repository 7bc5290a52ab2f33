"""Unit tests for repro.stats.distribution."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.distribution import percentile


class TestPercentile:
    def test_median_odd(self):
        assert percentile([3, 1, 2], 50) == 2.0

    def test_median_even_interpolates(self):
        assert percentile([1, 2, 3, 4], 50) == 2.5

    def test_extremes(self):
        data = [5.0, 1.0, 9.0]
        assert percentile(data, 0) == 1.0
        assert percentile(data, 100) == 9.0

    def test_single_value(self):
        assert percentile([7.5], 95) == 7.5

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            percentile([], 50)

    def test_out_of_range_raises(self):
        with pytest.raises(ValueError):
            percentile([1], 101)

    @settings(max_examples=40, deadline=None)
    @given(
        data=st.lists(st.floats(-1e6, 1e6), min_size=1, max_size=60),
        q=st.floats(0, 100),
    )
    def test_matches_numpy(self, data, q):
        assert percentile(data, q) == pytest.approx(
            float(np.percentile(np.array(data), q)), rel=1e-9, abs=1e-6
        )
