"""Regenerate every paper figure (Figs. 2-16) and record its table.

One test per figure in :data:`~repro.experiments.figures.FIGURES`: the
figure's data series go through the campaign engine (deduplicated and
cached across figures that share simulation points), the table is
printed and written to ``results/<fig>.txt``.  Set ``REPRO_SCALE=paper``
for full-fidelity sweeps.

The paper's hard ranking claims (GABL best, SSD at or below FCFS, the
saturation-utilization band) are gated once, in ``bench_claims.py``
through :data:`repro.experiments.claims.CHECKS`.  This file only warns
on the soft Paging(0)-versus-MBS ordering, which flips on small-sample
noise: Paging(0) ahead of MBS on the real workload (the paper's
exception, claim C3), MBS not behind Paging(0) on the stochastic ones.
"""

from __future__ import annotations

import warnings

import pytest
from _helpers import results_dir

from repro.experiments.figures import FIGURES
from repro.experiments.report import check_ranking, format_figure
from repro.experiments.runner import run_figure

#: slack of the soft Paging(0)/MBS ordering (a warning, never a failure)
SOFT_SLACK = 1.10


@pytest.mark.parametrize("fig_id", tuple(FIGURES))
def test_figure(fig_id, scale):
    result = run_figure(fig_id, scale=scale)
    table = format_figure(result)
    print("\n" + table)
    (results_dir() / f"{fig_id}.txt").write_text(table + "\n")

    spec = FIGURES[fig_id]
    if spec.saturation:
        return
    pair = ["Paging(0)(FCFS)", "MBS(FCFS)"]
    if spec.workload != "real":
        pair.reverse()
    for problem in check_ranking(result, pair, slack=SOFT_SLACK):
        warnings.warn(f"soft ranking deviation: {problem}")
