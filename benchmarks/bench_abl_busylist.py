"""Ablation A3: GABL's busy list stays short as the mesh scales.

The paper's conclusion: "GABL achieves this by using a busy list whose
length is often small even when the size of the mesh scales up."  We run
the same relative load on growing meshes and record the mean and peak
busy-list length plus allocation throughput.  The busy list holds every
allocated sub-mesh, so an observer counts its length from the fragments
of the jobs that start and depart.
"""

from __future__ import annotations

from _helpers import results_dir

from repro.alloc.gabl import GABLAllocator
from repro.core.config import PAPER_CONFIG
from repro.core.hooks import SimObserver
from repro.core.simulator import Simulator
from repro.experiments.runner import Scale, make_workload
from repro.sched import make_scheduler


class BusyLength(SimObserver):
    """Busy-list length, sampled at every successful allocation."""

    def __init__(self) -> None:
        self.length = self.peak = self.length_sum = self.samples = 0

    def on_start(self, now, job, queue_length) -> None:
        self.length += job.allocation.fragment_count
        self.peak = max(self.peak, self.length)
        self.length_sum += self.length
        self.samples += 1

    def on_complete(self, now, job) -> None:
        self.length -= job.allocation.fragment_count


def _run(width: int, length: int, jobs: int) -> dict[str, float]:
    # hold the per-processor offered load constant across mesh sizes
    load = 0.009 * (width * length) / 352.0
    cfg = PAPER_CONFIG.with_(width=width, length=length, jobs=jobs)
    allocator = GABLAllocator(width, length)
    sc = Scale("abl", jobs=jobs, min_replications=1, max_replications=1,
               trace_max_jobs=None)
    busy = BusyLength()
    sim = Simulator(cfg, allocator, make_scheduler("FCFS"),
                    make_workload("uniform", cfg, load, sc), observers=(busy,))
    sim.run()
    return {
        "mean_len": busy.length_sum / busy.samples,
        "peak_len": float(busy.peak),
        "mean_fragments": allocator.stats.mean_fragments,
    }


def test_abl_busylist_scales(benchmark, scale):
    jobs = {"smoke": 120, "quick": 300, "paper": 800}.get(scale, 120)
    meshes = [(16, 22), (24, 33), (32, 44)]
    rows = {f"{w}x{l}": _run(w, l, jobs) for w, l in meshes}

    lines = ["A3: GABL busy-list length vs. mesh size (constant relative load)"]
    for name, row in rows.items():
        lines.append(
            f"{name:8s} mean-length={row['mean_len']:6.2f} "
            f"peak={row['peak_len']:5.0f} "
            f"fragments/job={row['mean_fragments']:5.2f}"
        )
    table = "\n".join(lines)
    print("\n" + table)
    (results_dir() / "abl_busylist.txt").write_text(table + "\n")

    # the busy list tracks concurrent fragments, not mesh size: even on
    # the 4x-area mesh it stays within a small constant of the base case
    base = rows["16x22"]["mean_len"]
    big = rows["32x44"]["mean_len"]
    assert big < 8 * max(base, 1.0), "busy list grew superlinearly"

    benchmark.pedantic(_run, args=(16, 22, 60), rounds=1, iterations=1)
