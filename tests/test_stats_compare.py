"""Unit tests for the pairwise comparison layer (stats/compare.py)."""

import math

import pytest

from repro.stats.compare import (
    HIGHER_IS_BETTER,
    VERDICTS,
    MetricSummary,
    ci_overlap,
    compare_metric,
    relative_delta,
    welch_t_test,
    worst_verdict,
)


def S(mean, variance=0.0, n=1) -> MetricSummary:
    return MetricSummary(mean=mean, variance=variance, n=n)


class TestMetricSummary:
    def test_from_values_matches_ci_module(self):
        from repro.stats.ci import mean_confidence_interval

        values = [3.0, 5.5, 4.25, 6.125]
        s = MetricSummary.from_values(values)
        mean, hw = mean_confidence_interval(values, 0.95)
        assert s.mean == mean  # identical float expressions, not approx
        assert s.n == 4
        assert s.half_width(0.95) == hw  # one shared formula

    def test_from_values_single_observation(self):
        s = MetricSummary.from_values([7.0])
        assert (s.mean, s.variance, s.n) == (7.0, 0.0, 1)
        assert s.half_width() == math.inf

    def test_from_values_unbiased_variance(self):
        s = MetricSummary.from_values([1.0, 2.0, 4.0])
        assert s.mean == pytest.approx(7.0 / 3.0)
        # sum of squared deviations 14/3 over n - 1 = 2
        assert s.variance == pytest.approx(7.0 / 3.0)
        assert s.n == 3

    def test_dict_round_trip(self):
        s = S(1.5, 0.25, 8)
        assert MetricSummary.from_dict(s.to_dict()) == s

    def test_validation(self):
        with pytest.raises(ValueError):
            S(1.0, n=0)
        with pytest.raises(ValueError):
            S(1.0, variance=-0.1, n=2)
        with pytest.raises(ValueError):
            MetricSummary.from_values([])
        with pytest.raises(ValueError):
            S(1.0, 1.0, 3).half_width(confidence=1.5)


class TestWelch:
    def test_known_value(self):
        # equal variances, n=10 each: classic two-sample t with df=18
        a, b = S(10.0, 4.0, 10), S(12.0, 4.0, 10)
        res = welch_t_test(a, b)
        assert res.t == pytest.approx(2.0 / math.sqrt(0.8), rel=1e-12)
        assert res.df == pytest.approx(18.0, rel=1e-12)
        assert res.p_value == pytest.approx(0.0384, abs=2e-4)

    def test_requires_two_observations(self):
        with pytest.raises(ValueError, match="n >= 2"):
            welch_t_test(S(1.0, 0.0, 1), S(1.0, 1.0, 5))

    def test_degenerate_zero_variance(self):
        same = welch_t_test(S(3.0, 0.0, 4), S(3.0, 0.0, 4))
        assert (same.t, same.p_value) == (0.0, 1.0)
        diff = welch_t_test(S(3.0, 0.0, 4), S(4.0, 0.0, 4))
        assert diff.t == math.inf and diff.p_value == 0.0
        assert welch_t_test(S(4.0, 0.0, 4), S(3.0, 0.0, 4)).t == -math.inf

    def test_ci_overlap(self):
        # tight CIs far apart: no overlap; n=1 has infinite width
        assert not ci_overlap(S(10.0, 0.01, 10), S(11.0, 0.01, 10))
        assert ci_overlap(S(10.0, 4.0, 3), S(11.0, 4.0, 3))
        assert ci_overlap(S(10.0, 0.0, 1), S(1e9, 0.01, 10))


class TestCompareMetric:
    def test_identical_means_bit_for_bit(self):
        c = compare_metric("mean_turnaround", S(123.456), S(123.456))
        assert c.verdict == "identical"
        assert c.delta == 0.0 and c.relative_delta == 0.0
        assert c.p_value is None

    def test_deterministic_regression_and_improvement(self):
        worse = compare_metric("mean_turnaround", S(100.0), S(105.0))
        assert worse.verdict == "regressed"  # turnaround up = bad
        better = compare_metric("mean_turnaround", S(100.0), S(95.0))
        assert better.verdict == "improved"

    def test_orientation_higher_is_better(self):
        assert "utilization" in HIGHER_IS_BETTER
        up = compare_metric("utilization", S(0.5), S(0.6))
        assert up.verdict == "improved"
        down = compare_metric("utilization", S(0.5), S(0.4))
        assert down.verdict == "regressed"
        # explicit override beats the name table
        forced = compare_metric("utilization", S(0.5), S(0.6),
                                higher_is_better=False)
        assert forced.verdict == "regressed"

    def test_rel_tol_dead_band(self):
        c = compare_metric("mean_service", S(100.0), S(100.4), rel_tol=0.005)
        assert c.verdict == "indistinguishable"
        c = compare_metric("mean_service", S(100.0), S(101.0), rel_tol=0.005)
        assert c.verdict == "regressed"

    def test_noisy_samples_are_indistinguishable(self):
        a, b = S(100.0, 400.0, 5), S(104.0, 400.0, 5)
        c = compare_metric("mean_turnaround", a, b)
        assert c.verdict == "indistinguishable"
        assert c.p_value is not None and c.p_value >= 0.05
        assert c.ci_overlap is True

    def test_significant_difference_uses_welch(self):
        a, b = S(100.0, 1.0, 10), S(110.0, 1.0, 10)
        c = compare_metric("mean_turnaround", a, b)
        assert c.verdict == "regressed"
        assert c.p_value is not None and c.p_value < 0.05
        assert c.ci_overlap is False

    def test_zero_baseline_relative_delta(self):
        assert relative_delta(S(0.0), S(1.0)) == math.inf
        assert relative_delta(S(0.0), S(-1.0)) == -math.inf
        c = compare_metric("mean_packet_blocking", S(0.0), S(0.5))
        assert c.verdict == "regressed"

    def test_validation(self):
        with pytest.raises(ValueError):
            compare_metric("m", S(1.0), S(2.0), alpha=0.0)
        with pytest.raises(ValueError):
            compare_metric("m", S(1.0), S(2.0), rel_tol=-1.0)
        for value in (math.nan, math.inf):
            with pytest.raises(ValueError, match="finite"):
                compare_metric("m", S(1.0), S(2.0), rel_tol=value)

    def test_to_dict_is_json_ready(self):
        import json

        c = compare_metric("utilization", S(0.5, 0.01, 5), S(0.6, 0.01, 5))
        doc = json.loads(json.dumps(c.to_dict()))
        assert doc["verdict"] == c.verdict
        assert doc["a"]["n"] == 5


class TestWorstVerdict:
    def test_precedence(self):
        assert VERDICTS == (
            "regressed", "improved", "indistinguishable", "identical",
        )
        assert worst_verdict(["identical", "regressed", "improved"]) == "regressed"
        assert worst_verdict(["identical", "improved"]) == "improved"
        assert worst_verdict(["identical", "indistinguishable"]) == "indistinguishable"
        assert worst_verdict(["identical"]) == "identical"
        assert worst_verdict([]) == "identical"
