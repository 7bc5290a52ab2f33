"""Unit tests for SimConfig, Job and Metrics."""

import pytest

from repro.core.config import PAPER_CONFIG, SimConfig
from repro.core.job import Job
from repro.core.metrics import Metrics


class TestConfig:
    def test_paper_defaults(self):
        """Section 5: 16x22 mesh, t_s=3, P_len=8, num_mes=5, 1000 jobs."""
        c = PAPER_CONFIG
        assert (c.width, c.length) == (16, 22)
        assert c.processors == 352
        assert c.t_s == 3.0
        assert c.p_len == 8
        assert c.num_mes == 5.0
        assert c.jobs == 1000

    def test_with_updates(self):
        c = PAPER_CONFIG.with_(jobs=10, seed=1)
        assert c.jobs == 10 and c.seed == 1
        assert PAPER_CONFIG.jobs == 1000  # immutable original

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"width": 0},
            {"t_s": -1.0},
            {"p_len": 0},
            {"num_mes": 0},
            {"jobs": 0},
            {"warmup_jobs": 1000},
            {"trace_demand_multiplier": 0},
            {"round_gap_factor": 0.5},
        ],
    )
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            SimConfig(**kwargs)


class TestJob:
    def _job(self, **kw):
        base = dict(job_id=1, arrival_time=10.0, width=3, length=2, messages=4)
        base.update(kw)
        return Job(**base)

    def test_size(self):
        assert self._job().size == 6

    def test_lifecycle_metrics(self):
        j = self._job()
        j.alloc_time = 15.0
        j.depart_time = 40.0
        assert j.wait_time == 5.0
        assert j.service_time == 25.0
        assert j.turnaround == 30.0

    def test_incomplete_raises(self):
        j = self._job()
        with pytest.raises(ValueError):
            _ = j.turnaround
        with pytest.raises(ValueError):
            _ = j.service_time
        with pytest.raises(ValueError):
            _ = j.wait_time

    def test_packet_recording(self):
        j = self._job()
        j.record_packet(latency=10.0, blocking=2.0)
        j.record_packet(latency=20.0, blocking=4.0)
        assert j.packet_count == 2
        assert j.latency_sum == 30.0
        assert j.blocking_sum == 6.0

    def test_validation(self):
        with pytest.raises(ValueError):
            self._job(width=0)
        with pytest.raises(ValueError):
            self._job(messages=0)


class TestMetrics:
    def _completed_job(self, arrival, alloc, depart, packets=0):
        j = Job(job_id=1, arrival_time=arrival, width=2, length=2, messages=1)
        j.alloc_time = alloc
        j.depart_time = depart
        for _ in range(packets):
            j.record_packet(latency=10.0, blocking=3.0)
        return j

    def test_means(self):
        m = Metrics(processors=64)
        m.on_completion(self._completed_job(0, 5, 25, packets=2))
        m.on_completion(self._completed_job(10, 10, 20, packets=2))
        r = m.result(now=100.0)
        assert r.mean_turnaround == pytest.approx((25 + 10) / 2)
        assert r.mean_service == pytest.approx((20 + 10) / 2)
        assert r.mean_wait == pytest.approx((5 + 0) / 2)
        assert r.mean_packet_latency == pytest.approx(10.0)
        assert r.mean_packet_blocking == pytest.approx(3.0)
        assert r.packets_delivered == 4

    def test_warmup_excluded(self):
        m = Metrics(processors=64, warmup_jobs=1)
        m.on_completion(self._completed_job(0, 0, 1000, packets=5))
        m.on_completion(self._completed_job(0, 0, 10, packets=1))
        r = m.result(now=100.0)
        assert r.completed_jobs == 2
        assert r.measured_jobs == 1
        assert r.mean_turnaround == pytest.approx(10.0)
        assert r.packets_delivered == 1

    def test_utilization_integral(self):
        m = Metrics(processors=100)
        m.on_busy_change(0.0, 50)  # 50 busy from t=0
        m.on_busy_change(10.0, -50)  # idle from t=10
        assert m.result(now=20.0).utilization == pytest.approx(0.25)

    def test_utilization_with_open_interval(self):
        m = Metrics(processors=100)
        m.on_busy_change(0.0, 100)
        assert m.result(now=10.0).utilization == pytest.approx(1.0)

    def test_busy_count_bounds(self):
        m = Metrics(processors=4)
        with pytest.raises(AssertionError):
            m.on_busy_change(0.0, 5)

    def test_queue_peak(self):
        m = Metrics(processors=4)
        m.on_queue_length(3)
        m.on_queue_length(1)
        assert m.queue_peak == 3

    def test_empty_result_is_safe(self):
        m = Metrics(processors=4)
        r = m.result(now=0.0)
        assert r.mean_turnaround == 0.0
        assert r.utilization == 0.0

    def test_zero_measured_all_warmup(self):
        """Regression: completions exist but all fall in the warm-up
        window -- every mean reports exactly 0.0, never nan."""
        import math

        m = Metrics(processors=64, warmup_jobs=5)
        for _ in range(3):
            m.on_completion(self._completed_job(0, 1, 2, packets=2))
        r = m.result(now=50.0)
        assert r.completed_jobs == 3
        assert r.measured_jobs == 0
        for name in (
            "mean_turnaround", "mean_service", "mean_wait",
            "mean_packet_latency", "mean_packet_blocking",
            "mean_fragments", "contiguity_rate",
        ):
            assert r.metric(name) == 0.0
            assert not math.isnan(r.metric(name))

    def test_metric_lookup(self):
        m = Metrics(processors=4)
        r = m.result(now=1.0)
        assert r.metric("utilization") == r.utilization
        with pytest.raises(AttributeError):
            r.metric("nope")
