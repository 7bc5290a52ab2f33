"""Tests for the saturation-dynamics premise and the paper-claim
verification module."""

import pytest

from repro.alloc import make_allocator
from repro.core.config import SimConfig
from repro.core.hooks import TrajectoryObserver
from repro.core.simulator import Simulator
from repro.experiments.claims import (
    _RANKED_FIGS,
    _TURNAROUND_FIGS,
    _UTIL_FIGS,
    CHECKS,
    ClaimReport,
    ClaimResult,
    check_c2_gabl_best,
    check_c4_ssd_beats_fcfs,
    check_c5_utilization,
)
from repro.experiments.figures import FIGURES
from repro.experiments.runner import FigureResult
from repro.sched import make_scheduler
from repro.workload.stochastic import StochasticWorkload
from repro.workload.trace import TraceJob, TraceWorkload


class TestSaturationDynamics:
    def test_saturation_fills_queue_early(self):
        """The paper's Figs. 8-10 premise: under heavy load the waiting
        queue fills very early in the run."""
        cfg = SimConfig(width=8, length=8, jobs=60, seed=9)
        traj = TrajectoryObserver(20.0, processors=64)
        result = Simulator(
            cfg,
            make_allocator("GABL", 8, 8),
            make_scheduler("FCFS"),
            StochasticWorkload(cfg, load=0.5),
            observers=(traj,),
        ).run()
        t_queue = next(
            (t for t, q in zip(traj.times, traj.queue_length) if q >= 10), None
        )
        assert t_queue is not None
        assert t_queue < result.sim_time * 0.25
        util = traj.utilization()
        tail = util[int(len(util) * 0.3):]
        assert sum(tail) / len(tail) > 0.5


    @staticmethod
    def _observed(load, jobs=60, workload=None):
        cfg = SimConfig(width=8, length=8, jobs=jobs, seed=9)
        traj = TrajectoryObserver(20.0, processors=64)
        result = Simulator(
            cfg,
            make_allocator("GABL", 8, 8),
            make_scheduler("FCFS"),
            workload or StochasticWorkload(cfg, load=load),
            observers=(traj,),
        ).run()
        return traj, result

    def test_observer_lets_a_short_trace_drain(self):
        """A trace shorter than ``jobs`` ends when its last job departs,
        with or without a trajectory observer attached: the observer
        schedules no events of its own."""
        cfg = SimConfig(width=8, length=8, jobs=50, seed=9)
        trace = [
            TraceJob(arrival=float(i * 7), size=4 + i * 6, runtime=100.0)
            for i in range(5)
        ]

        def run(observers):
            return Simulator(
                cfg,
                make_allocator("GABL", 8, 8),
                make_scheduler("FCFS"),
                TraceWorkload(cfg, trace, load=1.0),
                observers=observers,
            ).run()

        plain = run(())
        traj = TrajectoryObserver(20.0, processors=64)
        observed = run((traj,))
        assert observed == plain
        assert observed.completed_jobs == 5
        assert traj.times[-1] <= observed.sim_time < traj.times[-1] + 20.0

    def test_samples_stay_within_machine_bounds(self):
        traj, result = self._observed(load=0.5)
        assert all(0 <= b <= 64 for b in traj.busy)
        assert all(q >= 0 for q in traj.queue_length)
        assert all(0 <= c <= result.completed_jobs for c in traj.completed)
        assert all(0.0 <= u <= 1.0 for u in traj.utilization())

    def test_light_load_does_not_saturate(self):
        """The thresholds of the saturation test discriminate: at a
        light load the queue never fills and the plateau stays low."""
        traj, _ = self._observed(load=0.005)
        assert max(traj.queue_length) < 10
        util = traj.utilization()
        tail = util[int(len(util) * 0.3):]
        assert sum(tail) / len(tail) < 0.5


def _perturb(figs, fig_id, label, series):
    """``figs`` with one cell, ``fig_id``'s ``label`` series, replaced."""
    fig = figs[fig_id]
    figs[fig_id] = FigureResult(
        spec=fig.spec, loads=fig.loads, series={**fig.series, label: series}
    )
    return figs


def _fake_figs():
    """Synthetic figure set embodying the paper's findings: GABL wins
    everywhere, SSD beats FCFS, MBS sits above Paging(0) on the real
    workload but below it on the stochastic ones (the C3 exception), and
    saturation utilization is 0.8 for every strategy."""
    gabl, paging, util = 10.0, 15.0, 0.8
    figs = {}
    for fig_id, spec in FIGURES.items():
        if spec.saturation:
            series = {
                f"{a}({s})": (util,)
                for a in ("GABL", "Paging(0)", "MBS")
                for s in ("FCFS", "SSD")
            }
            loads = (0.1,)
        else:
            mbs = paging * (1.2 if spec.workload == "real" else 0.85)
            series = {}
            for s, scale in (("FCFS", 1.0), ("SSD", 0.6)):
                series[f"GABL({s})"] = (gabl * scale, gabl * scale * 2)
                series[f"Paging(0)({s})"] = (paging * scale, paging * scale * 2)
                series[f"MBS({s})"] = (mbs * scale, mbs * scale * 2)
            loads = (0.01, 0.02)
        figs[fig_id] = FigureResult(spec=spec, loads=loads, series=series)
    return figs


class TestClaimChecks:
    def test_all_checks_pass_on_ideal_data(self):
        figs = _fake_figs()
        for check in CHECKS:
            result = check(figs)
            assert isinstance(result, ClaimResult)
            assert result.passed, result

    @pytest.mark.parametrize("rival", ("Paging(0)", "MBS"))
    @pytest.mark.parametrize("sched", ("FCFS", "SSD"))
    @pytest.mark.parametrize("fig_id", _RANKED_FIGS)
    def test_c2_fails_when_gabl_loses(self, fig_id, sched, rival):
        figs = _perturb(_fake_figs(), fig_id, f"{rival}({sched})", (1.0, 1.0))
        result = check_c2_gabl_best(figs)
        assert not result.passed
        assert f"{fig_id} {sched}: GABL" in result.detail
        assert rival in result.detail

    @pytest.mark.parametrize("alloc", ("GABL", "Paging(0)", "MBS"))
    @pytest.mark.parametrize("fig_id", _TURNAROUND_FIGS)
    def test_c4_fails_when_ssd_worse(self, fig_id, alloc):
        figs = _perturb(_fake_figs(), fig_id, f"{alloc}(SSD)", (1000.0, 2000.0))
        result = check_c4_ssd_beats_fcfs(figs)
        assert not result.passed
        assert f"{fig_id} {alloc}: SSD" in result.detail

    @pytest.mark.parametrize("label, util", [
        ("GABL(FCFS)", 0.30),  # below the band
        ("MBS(SSD)", 0.99),  # above the band
        ("Paging(0)(FCFS)", 0.56),  # in the band, FCFS spread 0.24 > 0.2
    ])
    @pytest.mark.parametrize("fig_id", _UTIL_FIGS)
    def test_c5_fails_out_of_band(self, fig_id, label, util):
        figs = _perturb(_fake_figs(), fig_id, label, (util,))
        assert not check_c5_utilization(figs).passed

    def test_report_formatting(self):
        figs = _fake_figs()
        results = tuple(check(figs) for check in CHECKS)
        report = ClaimReport(results=results, scale="unit")
        text = report.format()
        assert "ALL CLAIMS HOLD" in text
        assert report.passed
        assert text.count("[PASS]") == len(CHECKS)

    def test_report_failure_verdict(self):
        bad = ClaimResult("CX", "demo", False, "nope")
        report = ClaimReport(results=(bad,), scale="unit")
        assert "SOME CLAIMS FAILED" in report.format()
        assert not report.passed
