"""Cold-start guards: what the library's run path may not import.

No part of scipy is on the run path:

Importing ``scipy.special`` costs about a quarter of a second of every
CLI run and campaign process, and ``scipy.stats`` about a second.  The
replication stopping rule reads its 95% Student-t quantiles from an
exact table (:data:`repro.stats.ci.T95_TABLE`), and only Welch's test
-- which ``repro diff`` alone calls -- loads ``scipy.special`` lazily.
This test fails as soon as any import, eager or lazily on first use
during a campaign, pulls a ``scipy`` module back in, or Welch's test
pulls in ``scipy.stats``.  It is deterministic: it checks
``sys.modules``, not a timing.

Nor is any module that a campaign of plain source names never calls
(:data:`DEFERRED`): the reporting layer, the series helpers, the SWF
parser, the pipeline grammar, ``multiprocessing`` (the process pool
only), ``subprocess`` (a kernel compile only) and ``numpy.ma``.  Each
run is a fresh interpreter that compiles what it imports, so such a
module would cost every cold start without being used.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

#: modules imported where first used, never on the run path
DEFERRED = (
    "repro.experiments.diff",
    "repro.experiments.plot",
    "repro.experiments.claims",
    "repro.experiments.trajectory",
    "repro.experiments.runner",
    "repro.experiments.report",
    "repro.stats.series",
    "repro.workload.swf",
    "repro.workload.transforms",
    "multiprocessing",
    "subprocess",
    "numpy.ma",
)

SCRIPT = textwrap.dedent(
    """
    import sys
    import tempfile

    import repro
    import repro.cli
    import repro.experiments.campaign as campaign
    import repro.experiments.scenario
    from repro.core.config import SimConfig
    from repro.experiments.store import ResultCache
    from repro.stats import MetricSummary, welch_t_test

    def scipy_modules():
        return sorted(m for m in sys.modules if m.split(".")[0] == "scipy")

    assert not scipy_modules(), f"imported at module load: {scipy_modules()[:3]}"

    # one point, two replications: the stopping rule's CI runs
    scale = campaign.Scale("cold", jobs=12, min_replications=2,
                           max_replications=2, trace_max_jobs=100)
    spec = campaign.PointSpec(
        workload="uniform", load=0.01, alloc="GABL", sched="FCFS",
        scale=scale, config=SimConfig(width=8, length=8, jobs=12, seed=5),
    )
    with tempfile.TemporaryDirectory() as tmp:
        (result,) = campaign.Campaign([spec]).run(
            jobs=1, cache=ResultCache(tmp)).values()
    assert not scipy_modules(), f"imported by a campaign: {scipy_modules()[:3]}"

    # Welch's test may load scipy.special on first use, never scipy.stats
    summary = result.stats["mean_turnaround"]
    assert summary.n == 2
    shifted = MetricSummary(summary.mean + 1.0, summary.variance + 1.0, 3)
    assert 0.0 <= welch_t_test(summary, shifted).p_value <= 1.0
    assert "scipy.stats" not in sys.modules, "imported by welch_t_test"
    print("ok")
    """
)


def test_scipy_stats_not_imported():
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE="0")
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "ok"


#: the benchmark child's import set, kernels loaded
CHILD_IMPORTS = textwrap.dedent(
    """
    import repro
    import repro.experiments.campaign as campaign
    import repro.experiments.scenario as scenario
    from repro.core import _soa_native
    from repro.network import _native as network_native
    from repro.workload import _native as workload_native

    for module in (_soa_native, network_native, workload_native):
        module.load_kernel()
    """
)

RUN_PATH_SCRIPT = CHILD_IMPORTS + textwrap.dedent(
    """
    import sys
    import tempfile

    from repro.core.config import PAPER_CONFIG
    from repro.experiments.store import ResultCache

    with tempfile.TemporaryDirectory() as tmp:
        # a smoke figure point on the real trace, on both engines
        specs = [
            campaign.Campaign.from_figures(
                ("fig2",), scale="smoke", config=PAPER_CONFIG.with_(engine=engine)
            ).points[0]
            for engine in ("soa", "reference")
        ]
        campaign.Campaign(specs).run(jobs=1, cache=ResultCache(tmp))
        # a lossy cell with its trajectory
        cell = scenario.Scenario.from_dict({
            "name": "lossy-cold", "workload": "uniform", "loads": [0.02],
            "allocs": ["GABL"], "scheds": ["FCFS"], "scale": "smoke",
            "config": {"width": 8, "length": 8, "seed": 2026},
            "sample_interval": 64.0, "channels": ["loss:0.2"],
            "arqs": ["selective-repeat"],
        })
        result = cell.run(jobs=1, cache=ResultCache(tmp))
        assert result.trajectories
    print(" ".join(sorted(sys.argv[1:] & sys.modules.keys())) or "none")
    """
)


def test_run_path_leaves_deferred_modules_unloaded():
    """Import the benchmark child's set, run a real-trace figure point
    and a lossy cell: no module of :data:`DEFERRED` gets loaded."""
    env = dict(os.environ, PYTHONPATH=str(SRC), REPRO_CACHE="0")
    # a cold kernel cache would compile, which loads subprocess
    subprocess.run([sys.executable, "-c", CHILD_IMPORTS], env=env,
                   check=True, timeout=120)
    proc = subprocess.run(
        [sys.executable, "-c", RUN_PATH_SCRIPT, *DEFERRED],
        capture_output=True, text=True, env=env, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "none"
