"""Support code shared by the benchmark files.

``results_dir`` is where every bench writes its human-readable table;
``fresh_point`` is one small uncached simulation run, the timed kernel of
the benches that otherwise only read the result cache.
"""

from __future__ import annotations

import os
from pathlib import Path

from repro.alloc import make_allocator
from repro.core.config import PAPER_CONFIG, SimConfig
from repro.core.simulator import Simulator
from repro.experiments.runner import Scale, make_workload
from repro.sched import make_scheduler


def results_dir() -> Path:
    out = Path(os.environ.get("REPRO_RESULTS_DIR", "results"))
    out.mkdir(parents=True, exist_ok=True)
    return out


def fresh_point(
    workload: str,
    load: float,
    alloc: str = "GABL",
    sched: str = "FCFS",
    jobs: int = 60,
    config: SimConfig = PAPER_CONFIG,
) -> float:
    """One small uncached simulation run (the timed benchmark kernel).

    Returns the mean turnaround so the timing loop has a data dependency.
    """
    cfg = config.with_(jobs=jobs)
    sc = Scale("bench", jobs=jobs, min_replications=1, max_replications=1,
               trace_max_jobs=300)
    sim = Simulator(
        cfg,
        make_allocator(alloc, cfg.width, cfg.length),
        make_scheduler(sched),
        make_workload(workload, cfg, load, sc),
    )
    return sim.run().mean_turnaround
