"""Hypothesis properties for the series utilities (repro.stats.series).

The invariants pinned here are the ones the trajectory subsystem leans
on: resampling must be lossless on the source grid, deviation symmetric,
the tolerance-band verdict monotone in the band width (a wider band can
never turn a pass into a failure), and the saturation knee a pure
function of the *values* -- invariant under any rescaling of the time or
load axis.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats import series as S

# finite, moderately sized floats keep the math exact enough to compare
_value = st.floats(
    min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False
)


@st.composite
def step_series(draw, min_size=1, max_size=24):
    """A strictly increasing time grid with parallel values."""
    times = draw(
        st.lists(
            st.floats(min_value=0.0, max_value=1e5, allow_nan=False),
            min_size=min_size, max_size=max_size, unique=True,
        )
    )
    times.sort()
    values = draw(
        st.lists(_value, min_size=len(times), max_size=len(times))
    )
    return times, values


@given(step_series())
@settings(max_examples=200)
def test_resample_is_identity_on_source_grid(series):
    times, values = series
    assert S.resample(times, values, times) == values


@given(step_series(min_size=2), step_series(min_size=2))
@settings(max_examples=100)
def test_resample_union_preserves_endpoint_values(sa, sb):
    """On the union grid, each series still passes through its own
    source samples (resampling never invents or moves data)."""
    times_a, values_a = sa
    times_b, values_b = sb
    grid = S.union_grid(times_a, times_b)
    on_grid = dict(zip(grid, S.resample(times_a, values_a, grid)))
    for t, v in zip(times_a, values_a):
        assert on_grid[t] == v


@given(
    st.lists(_value, min_size=1, max_size=32),
    st.lists(_value, min_size=1, max_size=32),
)
@settings(max_examples=200)
def test_max_deviation_symmetry(a, b):
    n = min(len(a), len(b))
    a, b = a[:n], b[:n]
    worst_ab, at_ab = S.max_deviation(a, b)
    worst_ba, at_ba = S.max_deviation(b, a)
    assert worst_ab == worst_ba
    assert at_ab == at_ba
    # and deviation against self is always zero
    assert S.max_deviation(a, a) == (0.0, 0)


@given(
    step_series(min_size=2),
    step_series(min_size=2),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=10.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
    st.floats(min_value=0.0, max_value=2.0, allow_nan=False),
)
@settings(max_examples=100)
def test_band_verdict_monotone_in_band_width(sa, sb, atol, extra_a, rtol, extra_r):
    """Widening the tolerance band never worsens the verdict."""
    ta, va = sa
    tb, vb = sb
    narrow = S.diff_series("m", ta, va, tb, vb, atol=atol, rtol=rtol)
    wide = S.diff_series(
        "m", ta, va, tb, vb, atol=atol + extra_a, rtol=rtol + extra_r
    )
    rank = {v: i for i, v in enumerate(S.SERIES_VERDICTS)}  # worst first
    assert rank[wide.verdict] >= rank[narrow.verdict]
    assert wide.exceedances <= narrow.exceedances
    # the band does not change the measured deviation, only the verdict
    assert wide.max_abs == narrow.max_abs
    assert wide.area == narrow.area


@given(step_series(min_size=2))
@settings(max_examples=100)
def test_identical_series_diff_is_identical(series):
    times, values = series
    d = S.diff_series("m", times, values, times, values)
    assert d.verdict == S.IDENTICAL
    assert d.max_abs == 0.0
    assert d.area == 0.0
