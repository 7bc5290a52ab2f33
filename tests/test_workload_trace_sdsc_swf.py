"""Unit tests for trace replay, the synthetic SDSC trace and the SWF parser."""


import pytest

from repro.core.config import SimConfig
from repro.workload.sdsc import SDSC_PUBLISHED, synthesize_sdsc_trace, verify
from repro.workload.swf import SWFError, load_swf, parse_swf, parse_swf_line
from repro.workload.trace import TraceJob, TraceWorkload, trace_stats

CFG = SimConfig(width=16, length=22, jobs=10)


def small_trace():
    return [
        TraceJob(arrival=0.0, size=10, runtime=100.0),
        TraceJob(arrival=100.0, size=32, runtime=50.0),
        TraceJob(arrival=250.0, size=1, runtime=900.0),
        TraceJob(arrival=300.0, size=352, runtime=10.0),
    ]


class TestTraceJob:
    def test_validation(self):
        with pytest.raises(ValueError):
            TraceJob(arrival=0.0, size=0, runtime=1.0)
        with pytest.raises(ValueError):
            TraceJob(arrival=0.0, size=1, runtime=0.0)
        with pytest.raises(ValueError):
            TraceJob(arrival=-1.0, size=1, runtime=1.0)


class TestTraceStats:
    def test_small_trace(self):
        s = trace_stats(small_trace())
        assert s.jobs == 4
        assert s.mean_interarrival == pytest.approx(100.0)
        assert s.mean_size == pytest.approx((10 + 32 + 1 + 352) / 4)
        assert s.max_size == 352
        # 32, 1 and 352... power-of-two check: 32 yes, 1 yes, 10 no, 352 no
        assert s.power_of_two_fraction == pytest.approx(0.5)

    def test_needs_two_jobs(self):
        with pytest.raises(ValueError):
            trace_stats(small_trace()[:1])


class TestTraceWorkload:
    def test_load_scaling(self):
        """The paper's factor f: arrivals rescale so that the mean
        inter-arrival equals 1/load."""
        wl = TraceWorkload(CFG, small_trace(), load=0.01)
        jobs = list(wl.jobs(seed=1))
        gaps = [b.arrival_time - a.arrival_time for a, b in zip(jobs, jobs[1:])]
        assert sum(gaps) / len(gaps) == pytest.approx(100.0)

    def test_ssd_key_is_runtime(self):
        wl = TraceWorkload(CFG, small_trace(), load=0.01)
        jobs = list(wl.jobs(seed=1))
        assert [j.service_demand for j in jobs] == [100.0, 50.0, 900.0, 10.0]
        assert all(j.trace_runtime is not None for j in jobs)

    def test_shapes_cover_sizes(self):
        wl = TraceWorkload(CFG, small_trace(), load=0.01)
        for j, tj in zip(wl.jobs(seed=1), small_trace()):
            assert j.size >= tj.size
            assert j.width <= 16 and j.length <= 22

    def test_messages_deterministic_and_rank_matched(self):
        """Demands are quantile-matched to runtime ranks: deterministic,
        identical across seeds, and ordered like the runtimes."""
        wl = TraceWorkload(CFG, small_trace(), load=0.01)
        a = [j.messages for j in wl.jobs(seed=5)]
        b = [j.messages for j in wl.jobs(seed=99)]
        assert a == b
        runtimes = [tj.runtime for tj in small_trace()]
        pairs = sorted(zip(runtimes, a))
        demands_by_runtime = [k for _, k in pairs]
        assert demands_by_runtime == sorted(demands_by_runtime)

    def test_demand_mean_matches_num_mes(self):
        """The exponential marginal keeps the paper's mean num_mes."""
        from repro.workload.sdsc import synthesize_sdsc_trace

        trace = synthesize_sdsc_trace(jobs=2000, seed=4)
        wl = TraceWorkload(CFG, trace, load=0.01)
        ks = [j.messages for j in wl.jobs(seed=1)]
        assert sum(ks) / len(ks) == pytest.approx(CFG.num_mes, rel=0.15)

    def test_max_jobs_prefix(self):
        wl = TraceWorkload(CFG, small_trace(), load=0.01, max_jobs=2)
        assert len(list(wl.jobs(seed=1))) == 2

    def test_replay_record_built_once_per_trace_object(self):
        """A second replay of the same trace object (another load, a
        probe simulator) reuses its record; another trace object of the
        same length, or another prefix, never does."""
        trace = small_trace()
        a = TraceWorkload(CFG, trace, load=0.01)
        b = TraceWorkload(CFG, trace, load=0.5)
        assert b._record is a._record
        assert not a._record.arrivals.flags.writeable
        other = small_trace()
        other[1] = TraceJob(arrival=100.0, size=33, runtime=50.0)
        c = TraceWorkload(CFG, other, load=0.01)
        assert c._record.digest != a._record.digest
        assert [tj.size for tj in c.trace] == [10, 33, 1, 352]
        d = TraceWorkload(CFG, trace, load=0.01, max_jobs=3)
        assert len(d.trace) == 3 and d._record.digest != a._record.digest

    def test_empty_trace_rejected(self):
        with pytest.raises(ValueError):
            TraceWorkload(CFG, [], load=0.01)

    def test_bad_load_rejected(self):
        with pytest.raises(ValueError):
            TraceWorkload(CFG, small_trace(), load=-1)


class TestSyntheticSDSC:
    @pytest.fixture(scope="class")
    def trace(self):
        return synthesize_sdsc_trace()

    def test_job_count(self, trace):
        assert len(trace) == SDSC_PUBLISHED["jobs"] == 10658

    def test_published_statistics(self, trace):
        stats = verify(trace)  # raises on drift > 15%
        assert stats.jobs == 10658
        assert stats.max_size <= 352

    def test_favours_non_powers_of_two(self, trace):
        stats = trace_stats(trace)
        assert stats.power_of_two_fraction < 0.35

    def test_heavy_tailed_runtimes(self, trace):
        runtimes = sorted(j.runtime for j in trace)
        mean = sum(runtimes) / len(runtimes)
        median = runtimes[len(runtimes) // 2]
        assert mean > 2.5 * median  # log-normal sigma=1.9 heavy tail

    def test_bursty_arrivals(self, trace):
        """Hyper-exponential inter-arrivals: CV > 1."""
        gaps = [
            b.arrival - a.arrival for a, b in zip(trace, trace[1:])
        ]
        mean = sum(gaps) / len(gaps)
        var = sum((g - mean) ** 2 for g in gaps) / (len(gaps) - 1)
        cv = var ** 0.5 / mean
        assert cv > 1.1

    def test_deterministic(self):
        a = synthesize_sdsc_trace(jobs=100, seed=3)
        b = synthesize_sdsc_trace(jobs=100, seed=3)
        assert a == b

    def test_verify_rejects_drift(self):
        bad = [
            TraceJob(arrival=float(i), size=1, runtime=1.0)
            for i in range(100)
        ]
        with pytest.raises(AssertionError):
            verify(bad)

    def test_too_few_jobs(self):
        with pytest.raises(ValueError):
            synthesize_sdsc_trace(jobs=1)


SWF_SAMPLE = """\
; SDSC Paragon style header comment
;   Computer: Intel Paragon
1 0 10 3600 16 -1 -1 16 -1 -1 1 1 1 1 -1 -1 -1 -1
2 120 0 60 1 -1 -1 1 -1 -1 1 2 1 1 -1 -1 -1 -1
3 240 5 -1 8 -1 -1 8 -1 -1 0 3 1 1 -1 -1 -1 -1
4 360 5 100 400 -1 -1 400 -1 -1 1 4 1 1 -1 -1 -1 -1
"""


class TestSWF:
    def test_parse_line(self):
        job = parse_swf_line("1 0 10 3600 16 -1 -1 16 -1 -1 1 1 1 1 -1 -1 -1 -1")
        assert job == TraceJob(arrival=0.0, size=16, runtime=3600.0)

    def test_comments_and_blank(self):
        assert parse_swf_line("; comment") is None
        assert parse_swf_line("") is None

    def test_cancelled_job_skipped(self):
        # run time -1 => unusable record
        assert parse_swf_line("3 240 5 -1 8 -1 -1 8 -1 -1 0 3 1 1") is None

    def test_malformed_raises(self):
        with pytest.raises(SWFError):
            parse_swf_line("1 2 3")
        with pytest.raises(SWFError):
            parse_swf_line("a b c d e f")

    def test_parse_stream(self):
        jobs = parse_swf(SWF_SAMPLE.splitlines())
        assert len(jobs) == 3  # job 3 skipped (runtime -1)
        assert jobs[0].size == 16

    def test_max_size_filter(self):
        jobs = parse_swf(SWF_SAMPLE.splitlines(), max_size=352)
        assert len(jobs) == 2  # job 4 (400 procs) filtered out

    def test_load_swf_roundtrip(self, tmp_path):
        p = tmp_path / "sample.swf"
        p.write_text(SWF_SAMPLE)
        jobs = load_swf(p, max_size=352, max_jobs=1)
        assert len(jobs) == 1
        assert jobs[0].runtime == 3600.0

    def test_trace_workload_accepts_swf(self, tmp_path):
        p = tmp_path / "sample.swf"
        p.write_text(SWF_SAMPLE)
        jobs = load_swf(p, max_size=352)
        wl = TraceWorkload(CFG, jobs, load=0.01)
        out = list(wl.jobs(seed=1))
        assert len(out) == 2
