"""Workload table shared by ``run.py`` and its child processes.

Pure data: importing this module imports nothing from ``repro``, so the
parent process stays light and every measured import happens inside a
child's timed set-up.
"""

from __future__ import annotations

#: ``PAPER_CONFIG.seed``: the figure campaigns' default workload seed
FIGS_DEFAULT_SEED = 12345

#: ``examples/scenario_lossy.json`` as committed; ``run.py --seed``
#: replaces ``config.seed`` (2026 in the file)
LOSSY_SCENARIO = {
    "name": "lossy-interconnect",
    "workload": "uniform",
    "loads": [0.02],
    "allocs": ["GABL", "MBS"],
    "scheds": ["FCFS"],
    "scale": "quick",
    "config": {"width": 8, "length": 8, "seed": 2026},
    "sample_interval": 64.0,
    "channels": ["loss:0", "loss:0.08", "loss:0.2"],
    "arqs": ["selective-repeat"],
}

#: layer counters that every figure campaign must leave at zero
_NO_LOSSY = ("channel.launches", "arq.attempts", "scenario.trajectories")
#: layer counters the compiled lane driver leaves at zero
_NO_REFERENCE = ("alloc.attempts", "sim.runs", "network.launches")

#: one entry per workload: the timed run's settings, plus ``check``, the
#: overrides for the untimed differential run whose per-point means
#: every timed repetition must reproduce.
#: ``jobs`` of ``"nproc"`` means one worker thread per usable CPU.
#: ``nonzero``/``zero`` are the traced run's layer predictions.
WORKLOADS: dict[str, dict] = {
    "figs-soa": {
        "why": "the paper's whole fig2-fig16 grid (132 points, quick scale) "
               "on the compiled SoA engine, serial",
        "kind": "figures", "scale": "quick", "engine": "soa",
        "executor": "serial", "jobs": 1,
        "default_seed": FIGS_DEFAULT_SEED,
        "needs_native": True,
        "check": {"engine": "soa", "executor": "thread", "jobs": 2},
        "nonzero": ("campaign.tasks", "soa.batches", "soa.native_batches",
                    "workload.builds", "stats.ci_calls",
                    "store.points_written", "store.gets"),
        "zero": _NO_LOSSY + _NO_REFERENCE,
    },
    "figs-reference": {
        "why": "the same grid at smoke scale (60 points) on the CLI-default "
               "reference engine: Python event loop, allocators, schedulers",
        "kind": "figures", "scale": "smoke", "engine": "reference",
        "executor": "serial", "jobs": 1,
        "default_seed": FIGS_DEFAULT_SEED,
        "needs_native": False,
        "check": {"engine": "soa", "executor": "serial", "jobs": 1},
        "nonzero": ("campaign.tasks", "sim.runs", "alloc.attempts",
                    "sched.calls", "network.launches", "network.injects",
                    "workload.builds", "stats.ci_calls", "store.gets"),
        "zero": _NO_LOSSY + ("soa.batches",),
    },
    "lossy": {
        "why": "examples/scenario_lossy.json: 6 points with loss 0/0.08/0.2 "
               "under selective-repeat ARQ plus trajectories",
        "kind": "scenario", "scenario": LOSSY_SCENARIO,
        "executor": "serial", "jobs": 1,
        "default_seed": LOSSY_SCENARIO["config"]["seed"],
        "needs_native": False,
        # trajectories do not enter the means, so the check skips them
        "check": {"executor": "thread", "jobs": 2, "trajectories": False},
        "nonzero": ("campaign.tasks", "sim.runs", "channel.launches",
                    "arq.attempts", "scenario.trajectories", "store.gets"),
        "zero": ("soa.batches",),
    },
    "figs-thread": {
        "why": "figs-soa on the thread executor with one worker per CPU: "
               "dispatch, GIL release, shared memos and locks",
        "kind": "figures", "scale": "quick", "engine": "soa",
        "executor": "thread", "jobs": "nproc",
        "default_seed": FIGS_DEFAULT_SEED,
        "needs_native": True,
        "min_cpus": 2,
        "check": {"engine": "soa", "executor": "serial", "jobs": 1},
        "nonzero": ("campaign.tasks", "campaign.waits", "soa.batches",
                    "soa.native_batches", "workload.builds",
                    "stats.ci_calls", "store.points_written", "store.gets"),
        "zero": _NO_LOSSY + _NO_REFERENCE,
    },
}

#: warm store re-reads per child: at least this many passes and this
#: many seconds; their median pass time gives ``warm_points_per_s``
WARM_PASSES = 15
WARM_MIN_S = 0.3
