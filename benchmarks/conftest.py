"""Shared configuration for the benchmark harness.

Scale selection: set ``REPRO_SCALE`` to ``smoke`` (default), ``quick`` or
``paper``.  ``bench_figures.py`` prints each figure table and writes it
to ``results/<fig>.txt`` (git-ignored), so a full paper-scale
regeneration leaves a reviewable artifact; ``bench_claims.py`` gates
the paper's claims on the same cached points.  No bench writes a
tracked file.
"""

from __future__ import annotations

import pytest

from repro.experiments.runner import default_scale


@pytest.fixture(scope="session")
def scale() -> str:
    """The fidelity preset used by every figure bench in this session."""
    return default_scale()


def pytest_report_header(config):
    return f"repro benchmark harness: REPRO_SCALE={default_scale()}"
