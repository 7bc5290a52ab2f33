"""Unit tests for the statistics package (mean/variance, CI, replications)."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.stats.ci import mean_confidence_interval, mean_variance, relative_error
from repro.stats.replication import ReplicationController


class TestMeanVariance:
    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_variance([])

    def test_single(self):
        assert mean_variance([5.0]) == (5.0, 0.0)

    def test_two_values(self):
        # deviations of +-1 over n - 1 = 1
        assert mean_variance([1.0, 3.0]) == (2.0, 2.0)

    def test_matches_numpy(self):
        rng = np.random.default_rng(1)
        xs = rng.normal(10, 3, size=500).tolist()
        mean, var = mean_variance(xs)
        assert mean == pytest.approx(float(np.mean(xs)))
        assert var == pytest.approx(float(np.var(xs, ddof=1)))

    @settings(max_examples=30, deadline=None)
    @given(st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=50))
    def test_property_matches_reference(self, xs):
        mean, _ = mean_variance(xs)
        assert mean == pytest.approx(sum(xs) / len(xs), rel=1e-9, abs=1e-6)


class TestCI:
    def test_known_value(self):
        """95% CI of [1..10]: mean 5.5, sd=3.0277, sem=0.9574,
        t(0.975, 9)=2.2622 -> half-width 2.1659."""
        values = list(range(1, 11))
        mean, hw = mean_confidence_interval(values)
        assert mean == pytest.approx(5.5)
        assert hw == pytest.approx(2.1659, rel=1e-3)

    def test_single_value_infinite(self):
        mean, hw = mean_confidence_interval([4.2])
        assert mean == 4.2
        assert math.isinf(hw)

    def test_constant_values_zero_width(self):
        mean, hw = mean_confidence_interval([7.0] * 5)
        assert mean == 7.0 and hw == 0.0

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([])

    def test_bad_confidence(self):
        with pytest.raises(ValueError):
            mean_confidence_interval([1, 2], confidence=1.5)

    def test_wider_confidence_wider_interval(self):
        values = [1.0, 3.0, 2.0, 5.0, 4.0]
        _, hw95 = mean_confidence_interval(values, 0.95)
        _, hw99 = mean_confidence_interval(values, 0.99)
        assert hw99 > hw95

    def test_relative_error(self):
        assert relative_error(10.0, 0.5) == pytest.approx(0.05)
        assert relative_error(0.0, 0.5) == math.inf
        assert relative_error(0.0, 0.0) == 0.0
        assert relative_error(-10.0, 0.5) == pytest.approx(0.05)


def _stream(seed: int) -> dict:
    """Synthetic metric stream: deterministic per seed, converges slowly."""
    rng = np.random.default_rng(seed)
    return {"m": float(rng.normal(100, 15.0)), "k": float(rng.normal(5, 0.1))}


def _drive(run=_stream, names=("m", "k"), **kwargs):
    """Run a controller to completion; returns it and its seed batches."""
    ctrl = ReplicationController(names, **kwargs)
    seen = []
    while seeds := ctrl.next_seeds():
        seen.append(seeds)
        ctrl.add_batch([run(s) for s in seeds])
    return ctrl, seen


class TestReplications:
    """The paper's stopping rule, driven through the controller."""

    def test_deterministic_single_run(self):
        calls = []

        def run(seed):
            calls.append(seed)
            return {"m": 42.0}

        ctrl, _ = _drive(run, ["m"], min_replications=1, max_replications=1)
        res = ctrl.result()
        assert res.replications == 1
        assert res.converged
        assert res.mean("m") == 42.0

    def test_stops_when_converged(self):
        """Low-variance stream converges at min_replications."""
        rng = np.random.default_rng(0)

        def run(seed):
            return {"m": 100.0 + float(rng.normal(0, 0.01))}

        ctrl, _ = _drive(run, ["m"], min_replications=3, max_replications=20)
        res = ctrl.result()
        assert res.replications == 3
        assert res.converged
        assert res["m"].relative_error <= 0.05

    def test_runs_to_cap_when_noisy(self):
        rng = np.random.default_rng(1)

        def run(seed):
            return {"m": float(rng.uniform(0, 1000))}

        ctrl, _ = _drive(run, ["m"], min_replications=3, max_replications=5)
        res = ctrl.result()
        assert res.replications == 5
        assert not res.converged

    def test_paper_stopping_rule(self):
        """95% confidence, 5% relative error (paper section 5)."""
        rng = np.random.default_rng(2)

        def run(seed):
            return {"m": float(rng.normal(50, 2.0))}

        ctrl, _ = _drive(run, ["m"], min_replications=3, max_replications=50)
        res = ctrl.result()
        assert res.converged
        assert res["m"].relative_error <= 0.05

    def test_multiple_metrics_all_must_converge(self):
        rng = np.random.default_rng(3)

        def run(seed):
            return {"stable": 10.0, "noisy": float(rng.uniform(0, 100))}

        ctrl, _ = _drive(
            run, ["stable", "noisy"], min_replications=3, max_replications=6
        )
        res = ctrl.result()
        assert res.replications == 6
        assert not res.converged

    def test_distinct_seeds_passed(self):
        seeds = []

        def run(seed):
            seeds.append(seed)
            return {"m": float(seed)}

        _drive(run, ["m"], min_replications=3, max_replications=3,
               base_seed=100)
        assert seeds == [100, 101, 102]

    def test_validation(self):
        run = lambda seed: {"m": 1.0}
        with pytest.raises(ValueError):
            _drive(run, ["m"], min_replications=0)
        with pytest.raises(ValueError):
            _drive(run, ["m"], min_replications=5, max_replications=2)


class TestReplicationController:
    """Batch shape and feedback contract of the controller."""

    def test_warmup_batch_is_min_replications(self):
        ctrl, seen = _drive(min_replications=3, max_replications=20,
                            base_seed=10)
        assert seen[0] == (10, 11, 12)
        assert all(len(batch) == 1 for batch in seen[1:])

    def test_single_deterministic_run(self):
        ctrl, seen = _drive(min_replications=1, max_replications=1)
        assert seen == [(0,)]
        assert ctrl.result().converged

    def test_cap_without_convergence(self):
        def noisy(seed):
            return {"m": float(np.random.default_rng(seed).uniform(0, 1e6)),
                    "k": 1.0}

        ctrl = ReplicationController(["m", "k"], min_replications=3,
                                     max_replications=5)
        while seeds := ctrl.next_seeds():
            ctrl.add_batch([noisy(s) for s in seeds])
        res = ctrl.result()
        assert res.replications == 5
        assert not res.converged

    def test_seeds_are_contiguous_and_stop_at_cap(self):
        def noisy(seed):
            return {"m": float(np.random.default_rng(seed).uniform(0, 1e6)),
                    "k": 1.0}

        ctrl, seen = _drive(noisy, min_replications=3, max_replications=7)
        assert seen == [(0, 1, 2), (3,), (4,), (5,), (6,)]
        assert ctrl.finished and ctrl.next_seeds() == ()

    def test_results_before_feedback_rejected(self):
        ctrl = ReplicationController(["m"], min_replications=2,
                                     max_replications=4)
        ctrl.next_seeds()
        with pytest.raises(RuntimeError):
            ctrl.next_seeds()
        with pytest.raises(ValueError):
            ctrl.add_batch([{"m": 1.0}] * 3)  # more results than seeds
