"""End-to-end fig2-fig16 campaign: engines x executors, cold caches.

Runs the full deduplicated figure campaign from cold caches in four
configurations -- reference engine serial (the CLI default), SoA serial,
SoA on the thread executor at ``-j 8`` and SoA on the process pool at
``-j 8`` -- verifies every point's metric dict is *exactly* equal across
all of them (executors and engines are bit-identical by construction,
see ``repro.core.soa`` and ``repro.experiments.campaign``), writes a
human-readable report to ``results/campaign_end2end.txt`` and appends a
machine-readable record to the committed ``benchmarks/BENCH_campaign.json``.

Acceptance gates:

* ISSUE-6: SoA serial >= 5x over the reference engine (needs the
  compiled lane driver; skipped under ``REPRO_NATIVE=0`` or without a
  C compiler, where SoA degrades to per-seed reference runs at ~1x).
* ISSUE-8: at ``-j 8``, thread >= 2x over the process pool and >= 10x
  over the serial reference baseline.  Parallel speedup cannot
  physically manifest without cores, so these gates additionally need
  ``os.cpu_count() >= 8`` (same guard pattern as the native gate); the
  timings and the exact-equality assertion always run and are always
  recorded.
"""

from __future__ import annotations

import json
import os
import time
from pathlib import Path

from repro.core import _soa_native
from repro.core.config import PAPER_CONFIG
from repro.experiments.campaign import Campaign
from repro.experiments.figures import FIGURES
from repro.experiments.store import ResultCache

from _helpers import results_dir

#: the ISSUE-6 tentpole gate: SoA serial over reference serial
SPEEDUP_FLOOR = 5.0
#: the ISSUE-8 tentpole gates at -j PARALLEL_JOBS
PARALLEL_JOBS = 8
THREAD_OVER_PROCESS_FLOOR = 2.0
THREAD_OVER_SERIAL_FLOOR = 10.0

#: committed record of campaign benchmark runs (one JSON list)
BENCH_LOG = Path(__file__).parent / "BENCH_campaign.json"


def _run_campaign(
    engine: str, scale: str, tmp_path, tag: str,
    jobs: int = 1, executor: str | None = None,
) -> tuple[float, dict]:
    campaign = Campaign.from_figures(
        tuple(FIGURES), scale=scale,
        config=PAPER_CONFIG.with_(engine=engine),
    )
    cache = ResultCache(tmp_path / f"cache-{tag}")
    t0 = time.perf_counter()
    results = campaign.run(jobs=jobs, cache=cache, executor_kind=executor)
    dt = time.perf_counter() - t0
    return dt, {s.key(): dict(v) for s, v in results.items()}


def _append_record(record: dict) -> None:
    try:
        log = json.loads(BENCH_LOG.read_text())
    except (OSError, json.JSONDecodeError):
        log = []
    if not isinstance(log, list):
        log = []
    log.append(record)
    BENCH_LOG.write_text(json.dumps(log, indent=2) + "\n")


def test_campaign_end2end_speedup(benchmark, scale, tmp_path):
    native = _soa_native.load_kernel() is not None
    cpus = os.cpu_count() or 1

    t_ref, r_ref = _run_campaign("reference", scale, tmp_path, "ref")
    t_soa, r_soa = _run_campaign("soa", scale, tmp_path, "soa")
    t_thread, r_thread = _run_campaign(
        "soa", scale, tmp_path, "thread",
        jobs=PARALLEL_JOBS, executor="thread",
    )
    t_proc, r_proc = _run_campaign(
        "soa", scale, tmp_path, "process",
        jobs=PARALLEL_JOBS, executor="process",
    )
    # the hard invariant: every executor and engine, bit-identical on
    # every metric of every point
    assert r_ref == r_soa == r_thread == r_proc, (
        "engines/executors must produce identical metrics"
    )

    def ratio(num: float, den: float) -> float:
        return num / den if den > 0 else float("inf")

    soa_speedup = ratio(t_ref, t_soa)
    thread_over_serial = ratio(t_ref, t_thread)
    thread_over_process = ratio(t_proc, t_thread)
    report = (
        f"fig2-fig16 campaign, scale={scale}, {len(r_ref)} points, "
        f"native={'yes' if native else 'no'}, cpus={cpus}\n"
        f"reference engine, serial:         {t_ref:8.2f} s\n"
        f"soa engine, serial:               {t_soa:8.2f} s\n"
        f"soa engine, thread -j {PARALLEL_JOBS}:          {t_thread:8.2f} s\n"
        f"soa engine, process -j {PARALLEL_JOBS}:         {t_proc:8.2f} s\n"
        f"soa serial over reference:        {soa_speedup:8.2f} x\n"
        f"thread -j {PARALLEL_JOBS} over serial ref:     "
        f"{thread_over_serial:8.2f} x\n"
        f"thread -j {PARALLEL_JOBS} over process -j {PARALLEL_JOBS}:    "
        f"{thread_over_process:8.2f} x\n"
    )
    print("\n" + report)
    (results_dir() / "campaign_end2end.txt").write_text(report)
    _append_record({
        "unix_time": int(time.time()),
        "scale": scale,
        "points": len(r_ref),
        "native": native,
        "cpus": cpus,
        "jobs": PARALLEL_JOBS,
        "seconds": {
            "reference_serial": round(t_ref, 4),
            "soa_serial": round(t_soa, 4),
            "soa_thread": round(t_thread, 4),
            "soa_process": round(t_proc, 4),
        },
        "speedups": {
            "soa_over_reference": round(soa_speedup, 3),
            "thread_over_serial_reference": round(thread_over_serial, 3),
            "thread_over_process": round(thread_over_process, 3),
        },
        "identical": True,
    })

    if native:
        assert soa_speedup >= SPEEDUP_FLOOR, (
            f"SoA end-to-end speedup {soa_speedup:.2f}x below the "
            f"{SPEEDUP_FLOOR}x gate"
        )
    if native and cpus >= PARALLEL_JOBS:
        assert thread_over_process >= THREAD_OVER_PROCESS_FLOOR, (
            f"thread executor {thread_over_process:.2f}x over the process "
            f"pool, below the {THREAD_OVER_PROCESS_FLOOR}x gate"
        )
        assert thread_over_serial >= THREAD_OVER_SERIAL_FLOOR, (
            f"thread -j {PARALLEL_JOBS} {thread_over_serial:.2f}x over the "
            f"serial reference, below the {THREAD_OVER_SERIAL_FLOOR}x gate"
        )

    # the recorded benchmark kernel: one cold thread-parallel SoA pass
    def cold_thread_soa():
        campaign = Campaign.from_figures(
            tuple(FIGURES), scale=scale,
            config=PAPER_CONFIG.with_(engine="soa"),
        )
        return campaign.run(
            jobs=PARALLEL_JOBS, cache=ResultCache(tmp_path / "cache-bench"),
            executor_kind="thread",
        )

    benchmark.pedantic(cold_thread_soa, rounds=1, iterations=1)
