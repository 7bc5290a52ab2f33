"""Bit-equality of the stats layer's ``scipy.special`` formulation.

The library computes Student-t quantiles with ``scipy.special.stdtrit``
and Welch p-values with ``scipy.special.stdtr`` so that ``scipy.stats``
stays off its import path.  These tests use ``scipy.stats`` as the oracle
and demand exact float equality: every half-width, p-value, stopping
decision and golden master depends on these bits.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from repro.stats.ci import mean_confidence_interval, t_quantile
from repro.stats.compare import MetricSummary, welch_t_test

CONFIDENCES = (0.5, 0.8, 0.9, 0.95, 0.98, 0.99, 0.999)


def _oracle_ppf(confidence: float, df: float) -> float:
    return float(stats.t.ppf(0.5 + confidence / 2.0, df))


@pytest.mark.parametrize("confidence", CONFIDENCES)
def test_t_quantile_matches_scipy_stats_over_df_grid(confidence):
    dfs = [*range(1, 200), *range(200, 5000, 37), 10_000, 1_000_000]
    got = [t_quantile(confidence, df) for df in dfs]
    assert got == [_oracle_ppf(confidence, df) for df in dfs]


@settings(max_examples=200, deadline=None)
@given(
    confidence=st.floats(min_value=0.01, max_value=0.999),
    df=st.floats(min_value=0.5, max_value=1e5),
)
def test_t_quantile_matches_scipy_stats_on_generated_inputs(confidence, df):
    assert t_quantile(confidence, df) == _oracle_ppf(confidence, df)


def test_t_quantile_is_memoised():
    t_quantile.cache_clear()
    t_quantile(0.95, 7)
    t_quantile(0.95, 7)
    info = t_quantile.cache_info()
    assert (info.hits, info.misses) == (1, 1)


def test_half_width_matches_scipy_stats_formula():
    values = [3.0, 5.5, 4.25, 6.125, 2.0]
    mean, hw = mean_confidence_interval(values, 0.95)
    var = sum((v - mean) ** 2 for v in values) / 4
    assert hw == _oracle_ppf(0.95, 4) * math.sqrt(var / 5)
    assert MetricSummary.from_values(values).half_width(0.95) == hw


#: mixes ordinary, tiny and subnormal variances -- the last square to
#: zero inside Welch's df denominator and take the fallback branch
variances = st.one_of(
    st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    st.floats(min_value=0.0, max_value=1e-300),
    st.floats(min_value=5e-324, max_value=2.2e-308),
)

summaries = st.builds(
    MetricSummary,
    mean=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    variance=variances,
    n=st.integers(min_value=2, max_value=60),
)


@settings(max_examples=400, deadline=None)
@given(a=summaries, b=summaries)
def test_welch_p_value_matches_scipy_stats(a, b):
    res = welch_t_test(a, b)
    oracle = min(2.0 * float(stats.t.sf(abs(res.t), res.df)), 1.0)
    assert res.p_value == oracle


def test_welch_covers_non_integer_df_and_subnormal_fallback():
    # unequal variances and sizes give a fractional Welch df
    res = welch_t_test(MetricSummary(1.0, 0.3, 5), MetricSummary(1.4, 2.0, 9))
    assert res.df != int(res.df)
    assert res.p_value == 2.0 * float(stats.t.sf(abs(res.t), res.df))
    # subnormal variances: df falls back to min(n) - 1
    tiny = MetricSummary(0.0, 1e-310, 4)
    res = welch_t_test(tiny, MetricSummary(1e-155, 1e-310, 6))
    assert res.df == 3.0
    assert res.p_value == min(2.0 * float(stats.t.sf(abs(res.t), 3.0)), 1.0)
