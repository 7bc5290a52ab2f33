"""End-to-end fig2-fig16 campaign: engines x executors, cold caches.

Runs the full deduplicated figure campaign from cold caches in four
configurations -- reference engine serial (the CLI default), SoA serial,
SoA on the thread executor at ``-j 8`` and SoA on the process pool at
``-j 8`` -- once per session, then gates:

* every point's metric dict is *exactly* equal across all four runs
  (executors and engines are bit-identical by construction, see
  ``repro.core.soa`` and ``repro.experiments.campaign``);
* SoA serial is at least 5x over the reference engine, each side timed
  as the best of ``BEST_OF`` cold runs (a short SoA run swings with the
  host's speed, and the ratio divides by it).  Needs the
  compiled lane driver: skipped under ``REPRO_NATIVE=0`` or without a
  C compiler, where SoA degrades to per-seed reference runs at ~1x;
* at ``-j 8``, the thread executor is at least 2x over the process pool
  and at least 10x over the serial reference.  Parallel speedup needs
  cores, so this gate is skipped when ``os.cpu_count() < 8``.

Timings over repeated cold runs, with their spread, are perfbench's job
(``perfbench/run.py``, workloads figs-soa, figs-reference and
figs-thread); this file only holds the gates.
"""

from __future__ import annotations

import os
import time

import pytest

from repro.core import _soa_native
from repro.core.config import PAPER_CONFIG
from repro.experiments.campaign import Campaign
from repro.experiments.figures import FIGURES
from repro.experiments.store import ResultCache
from repro.network import _native as _net_native
from repro.workload import _native as _draw_native

#: SoA serial over reference serial
SPEEDUP_FLOOR = 5.0
#: cold runs per side of the SPEEDUP_FLOOR gate, best time kept
BEST_OF = 3
#: the thread-executor gates at -j PARALLEL_JOBS
PARALLEL_JOBS = 8
THREAD_OVER_PROCESS_FLOOR = 2.0
THREAD_OVER_SERIAL_FLOOR = 10.0

#: (engine, jobs, executor) of each cold run
RUNS = {
    "reference": ("reference", 1, None),
    "soa": ("soa", 1, None),
    "thread": ("soa", PARALLEL_JOBS, "thread"),
    "process": ("soa", PARALLEL_JOBS, "process"),
}


@pytest.fixture(scope="module")
def cold_runs(scale, tmp_path_factory) -> dict[str, tuple[float, dict]]:
    """``{run: (seconds, {point key: metrics})}`` for every run in RUNS.

    The native kernels are loaded (compiled on a cold kernel cache)
    before the first timed run, so no run's time includes a compile.
    The two sides of the speedup gate keep their best of ``BEST_OF``
    runs, each on an empty store.
    """
    for kernel in (_net_native, _soa_native, _draw_native):
        kernel.load_kernel()
    root = tmp_path_factory.mktemp("campaign")
    out = {}
    for tag, (engine, jobs, executor) in RUNS.items():
        campaign = Campaign.from_figures(
            tuple(FIGURES), scale=scale,
            config=PAPER_CONFIG.with_(engine=engine),
        )
        best = float("inf")
        for rep in range(BEST_OF if tag in ("reference", "soa") else 1):
            t0 = time.perf_counter()
            results = campaign.run(
                jobs=jobs, cache=ResultCache(root / f"{tag}-{rep}"),
                executor_kind=executor,
            )
            best = min(best, time.perf_counter() - t0)
        out[tag] = (best, {s.key(): dict(v) for s, v in results.items()})
    return out


def _speedup(cold_runs, slow: str, fast: str) -> float:
    den = cold_runs[fast][0]
    return cold_runs[slow][0] / den if den > 0 else float("inf")


def _require_native() -> None:
    if _soa_native.load_kernel() is None:
        pytest.skip("no compiled SoA lane driver (REPRO_NATIVE=0 or no C compiler)")


def test_engines_and_executors_identical(cold_runs):
    ref = cold_runs["reference"][1]
    for tag, (_, metrics) in cold_runs.items():
        assert metrics == ref, f"{tag} run differs from the serial reference"


def test_soa_speedup_over_reference(cold_runs):
    _require_native()
    speedup = _speedup(cold_runs, "reference", "soa")
    assert speedup >= SPEEDUP_FLOOR, (
        f"SoA end-to-end speedup {speedup:.2f}x below the {SPEEDUP_FLOOR}x gate"
    )


def test_thread_executor_speedups(cold_runs):
    _require_native()
    cpus = os.cpu_count() or 1
    if cpus < PARALLEL_JOBS:
        pytest.skip(f"-j {PARALLEL_JOBS} gates need {PARALLEL_JOBS} CPUs, "
                    f"this machine has {cpus}")
    over_process = _speedup(cold_runs, "process", "thread")
    over_serial = _speedup(cold_runs, "reference", "thread")
    assert over_process >= THREAD_OVER_PROCESS_FLOOR, (
        f"thread executor {over_process:.2f}x over the process pool, "
        f"below the {THREAD_OVER_PROCESS_FLOOR}x gate"
    )
    assert over_serial >= THREAD_OVER_SERIAL_FLOOR, (
        f"thread -j {PARALLEL_JOBS} {over_serial:.2f}x over the serial "
        f"reference, below the {THREAD_OVER_SERIAL_FLOOR}x gate"
    )
