"""Ablation A8: mesh vs. torus (the paper's stated future work).

"As a continuation of this research in the future, it would be
interesting to assess the performance of the allocation strategies on
other common multicomputer networks, such as torus networks."  Wraparound
links shorten routes (mean distance drops from ~(W+L)/3 to ~(W+L)/4), so
the uncontended latency component must fall while the strategy ranking
stays the one the paper reports for the mesh.
"""

from __future__ import annotations

from _helpers import results_dir

from repro.alloc import make_allocator
from repro.core.config import PAPER_CONFIG
from repro.core.simulator import Simulator
from repro.experiments.runner import Scale, make_workload
from repro.sched import make_scheduler

ALLOCS = ("GABL", "Paging(0)", "MBS")


def _run(alloc: str, topology: str, jobs: int) -> dict[str, float]:
    # causal: exact arbitration for the physical claim
    cfg = PAPER_CONFIG.with_(jobs=jobs, topology=topology,
                             network_mode="causal")
    sc = Scale("abl", jobs=jobs, min_replications=1, max_replications=1,
               trace_max_jobs=None)
    sim = Simulator(
        cfg,
        make_allocator(alloc, cfg.width, cfg.length),
        make_scheduler("FCFS"),
        make_workload("uniform", cfg, 0.009, sc),
    )
    r = sim.run()
    return {
        "latency": r.mean_packet_latency,
        "base": r.mean_packet_latency - r.mean_packet_blocking,
        "service": r.mean_service,
    }


def test_abl_torus_vs_mesh(benchmark, scale):
    jobs = {"smoke": 80, "quick": 200, "paper": 500}.get(scale, 80)
    rows = {
        (alloc, topo): _run(alloc, topo, jobs)
        for topo in ("mesh", "torus")
        for alloc in ALLOCS
    }

    lines = [f"A8: mesh vs torus, causal engine, uniform load 0.009, {jobs} jobs"]
    for (alloc, topo), row in rows.items():
        lines.append(
            f"{topo:6s} {alloc:10s} latency={row['latency']:7.1f} "
            f"base={row['base']:7.1f} service={row['service']:7.1f}"
        )
    table = "\n".join(lines)
    print("\n" + table)
    (results_dir() / "abl_torus.txt").write_text(table + "\n")

    # wraparound shortens the uncontended component for every strategy
    for alloc in ALLOCS:
        assert rows[(alloc, "torus")]["base"] < rows[(alloc, "mesh")]["base"]
    # GABL stays the best-service strategy on both topologies
    for topo in ("mesh", "torus"):
        best = min(ALLOCS, key=lambda a: rows[(a, topo)]["service"])
        assert best == "GABL", (topo, {a: rows[(a, topo)] for a in ALLOCS})

    benchmark.pedantic(_run, args=("GABL", "torus", 40), rounds=1, iterations=1)
