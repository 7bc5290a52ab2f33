#!/usr/bin/env python3
"""Saturation dynamics behind the utilization bar charts (Figs. 8-10).

The paper measures utilization at a load where "the waiting queue is
filled very early, allowing each strategy to reach its upper limits of
utilization".  This example makes that premise visible: a trajectory
observer records utilization and queue length over time, showing the
ramp, the early queue blow-up, and the plateau each strategy settles on.
"""

from repro import PAPER_CONFIG, Simulator, make_allocator, make_scheduler
from repro.core.hooks import TrajectoryObserver
from repro.workload import StochasticWorkload

LOAD = 0.03  # the fig9 saturation load
JOBS = 250


def run(alloc: str) -> TrajectoryObserver:
    cfg = PAPER_CONFIG.with_(jobs=JOBS)
    traj = TrajectoryObserver(200.0, processors=cfg.processors)
    Simulator(
        cfg,
        make_allocator(alloc, cfg.width, cfg.length),
        make_scheduler("FCFS"),
        StochasticWorkload(cfg, load=LOAD, sides="uniform"),
        observers=(traj,),
    ).run()
    return traj


def sparkline(values, width=60):
    """Compress a series into a width-character unicode sparkline."""
    marks = " .:-=+*#%@"
    if not values:
        return ""
    step = max(1, len(values) // width)
    picked = values[::step][:width]
    hi = max(picked) or 1.0
    return "".join(marks[min(int(v / hi * (len(marks) - 1)), 9)] for v in picked)


def main() -> None:
    print(f"uniform workload at saturation load {LOAD}, {JOBS} jobs, FCFS\n")
    for alloc in ("GABL", "Paging(0)", "MBS"):
        traj = run(alloc)
        util = traj.utilization()
        queue = [float(q) for q in traj.queue_length]
        t_fill = next(
            (t for t, q in zip(traj.times, traj.queue_length) if q >= 20), None
        )
        tail = util[int(len(util) * 0.3):]  # skip the ramp-up
        plateau = sum(tail) / len(tail)
        print(f"{alloc}:")
        print(f"  utilization |{sparkline(util)}|  plateau={plateau:.2f}")
        print(f"  queue       |{sparkline(queue)}|  "
              f"20-deep at t={t_fill:.0f}" if t_fill else "  queue never filled")
        print()
    print(
        "all three non-contiguous strategies plateau in the same high band\n"
        "(the paper's 72-89% claim) because each allocates whenever enough\n"
        "processors are free -- the queue, not fragmentation, is the limit."
    )


if __name__ == "__main__":
    main()
