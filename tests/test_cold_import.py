"""Cold-start guard: no part of scipy is on the library's run path.

Importing ``scipy.special`` costs about a quarter of a second of every
CLI run and campaign process, and ``scipy.stats`` about a second.  The
replication stopping rule reads its 95% Student-t quantiles from an
exact table (:data:`repro.stats.ci.T95_TABLE`), and only Welch's test
-- which ``repro diff`` alone calls -- loads ``scipy.special`` lazily.
This test fails as soon as any import, eager or lazily on first use
during a campaign, pulls a ``scipy`` module back in, or Welch's test
pulls in ``scipy.stats``.  It is deterministic: it checks
``sys.modules``, not a timing.
"""

from __future__ import annotations

import os
import subprocess
import sys
import textwrap
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"

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
