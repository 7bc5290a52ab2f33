"""Capstone bench: verify every paper claim against regenerated figures.

Runs the full claim suite (C1-C6, DESIGN.md section 3) at the session
scale.  This is the one hard gate on the paper's rankings.  Simulation
points are shared with ``bench_figures.py`` through the result cache, so when run after them this is nearly free; standalone
it regenerates everything.  The claim report is written to
``results/claims.txt`` -- the one-page answer to "does the reproduction
hold?".
"""

from __future__ import annotations

from _helpers import fresh_point, results_dir

from repro.experiments.claims import verify_all


def test_paper_claims(benchmark, scale):
    report = verify_all(scale=scale)
    text = report.format()
    print("\n" + text)
    (results_dir() / "claims.txt").write_text(text + "\n")

    failed = [r for r in report.results if not r.passed]
    assert report.passed, "; ".join(
        f"{r.claim_id}: {r.detail}" for r in failed
    )

    benchmark.pedantic(
        fresh_point, args=("uniform", 0.009), rounds=1, iterations=1
    )
