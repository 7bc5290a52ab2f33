"""Property tests (hypothesis) for the statistics layer.

Covers the invariants the comparison subsystem leans on: the two-pass
mean/variance ignores observation order and shifts, the Student-t CI
half-width shrinks with n, and Welch's t-test is symmetric (and the
identity comparison is ``identical``) -- so ``repro diff`` verdicts
cannot depend on which report is named first beyond the
improved/regressed sign flip.
"""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.stats.ci import mean_confidence_interval, mean_variance
from repro.stats.compare import MetricSummary, compare_metric, welch_t_test

#: bounded magnitudes keep float error deterministic-small so the
#: approx tolerances below are about algorithm identity, not overflow
values = st.lists(
    st.floats(min_value=-1e3, max_value=1e3, allow_nan=False),
    min_size=1,
    max_size=40,
)

summaries = st.builds(
    MetricSummary,
    mean=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    variance=st.floats(min_value=0.0, max_value=1e6, allow_nan=False),
    n=st.integers(min_value=2, max_value=50),
)


class TestMeanVarianceProperties:
    @given(values, st.randoms(use_true_random=False))
    @settings(max_examples=60, deadline=None)
    def test_order_invariance(self, xs, rnd):
        """Any permutation of the observations gives the same moments."""
        mean, var = mean_variance(xs)
        shuffled = list(xs)
        rnd.shuffle(shuffled)
        s_mean, s_var = mean_variance(shuffled)
        assert s_mean == pytest.approx(mean, rel=1e-9, abs=1e-9)
        assert s_var == pytest.approx(var, rel=1e-7, abs=1e-7)

    @given(values, st.floats(min_value=-1e3, max_value=1e3, allow_nan=False))
    @settings(max_examples=60, deadline=None)
    def test_shift_moves_mean_not_variance(self, xs, c):
        mean, var = mean_variance(xs)
        s_mean, s_var = mean_variance([x + c for x in xs])
        assert s_mean == pytest.approx(mean + c, rel=1e-9, abs=1e-9)
        assert s_var == pytest.approx(var, rel=1e-7, abs=1e-6)

    @given(values)
    @settings(max_examples=60, deadline=None)
    def test_variance_non_negative_and_zero_for_constants(self, xs):
        _, var = mean_variance(xs)
        assert var >= 0.0
        c_mean, c_var = mean_variance([xs[0]] * len(xs))
        assert c_mean == pytest.approx(xs[0], rel=1e-12, abs=1e-300)
        assert c_var == pytest.approx(0.0, abs=1e-12)


class TestCIProperties:
    @given(
        mean=st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        variance=st.floats(min_value=1e-6, max_value=1e6),
        n1=st.integers(min_value=2, max_value=200),
        extra=st.integers(min_value=1, max_value=200),
    )
    @settings(max_examples=60, deadline=None)
    def test_half_width_monotone_in_n(self, mean, variance, n1, extra):
        """At fixed variance, more replications never widen the CI."""
        wide = MetricSummary(mean, variance, n1).half_width()
        narrow = MetricSummary(mean, variance, n1 + extra).half_width()
        assert narrow < wide

    @given(
        variance=st.floats(min_value=1e-6, max_value=1e6),
        n=st.integers(min_value=2, max_value=50),
        lo=st.floats(min_value=0.5, max_value=0.9),
        hi=st.floats(min_value=0.91, max_value=0.999),
    )
    @settings(max_examples=60, deadline=None)
    def test_half_width_monotone_in_confidence(self, variance, n, lo, hi):
        s = MetricSummary(0.0, variance, n)
        assert s.half_width(lo) < s.half_width(hi)

    @given(values)
    @settings(max_examples=60, deadline=None)
    def test_summary_half_width_agrees_with_ci_module(self, xs):
        s = MetricSummary.from_values(xs)
        mean, hw = mean_confidence_interval(xs, 0.95)
        assert s.mean == mean
        if math.isinf(hw):
            assert math.isinf(s.half_width())
        else:
            assert s.half_width() == pytest.approx(hw, rel=1e-9, abs=1e-12)


class TestWelchProperties:
    @given(summaries, summaries)
    @settings(max_examples=80, deadline=None)
    def test_antisymmetry(self, a, b):
        """Swapping the reports flips the sign and nothing else."""
        ab = welch_t_test(a, b)
        ba = welch_t_test(b, a)
        assert ab.t == -ba.t or (ab.t == 0.0 and ba.t == 0.0)
        assert ab.df == ba.df
        assert ab.p_value == ba.p_value

    @given(summaries)
    @settings(max_examples=40, deadline=None)
    def test_identity_on_equal_samples(self, s):
        res = welch_t_test(s, s)
        assert res.t == 0.0
        assert res.p_value == 1.0
        assert compare_metric("mean_service", s, s).verdict == "identical"

    @given(summaries, summaries)
    @settings(max_examples=80, deadline=None)
    def test_compare_verdict_antisymmetry(self, a, b):
        flip = {
            "improved": "regressed",
            "regressed": "improved",
            "identical": "identical",
            "indistinguishable": "indistinguishable",
        }
        ab = compare_metric("mean_turnaround", a, b)
        ba = compare_metric("mean_turnaround", b, a)
        assert ba.verdict == flip[ab.verdict]
