"""The README/quickstart public API must keep working."""

import importlib

import pytest

import repro
from repro import (
    PAPER_CONFIG,
    SimConfig,
    Simulator,
    make_allocator,
    make_scheduler,
)
from repro.workload import StochasticWorkload


def test_version():
    assert repro.__version__


def test_all_exports_resolve():
    for name in repro.__all__:
        assert getattr(repro, name) is not None


def test_quickstart_snippet():
    """The exact flow shown in the package docstring."""
    cfg = SimConfig(jobs=20, seed=42)
    sim = Simulator(
        cfg,
        make_allocator("GABL", cfg.width, cfg.length),
        make_scheduler("FCFS"),
        StochasticWorkload(cfg, load=0.01, sides="uniform"),
    )
    result = sim.run()
    assert result.completed_jobs == 20
    assert result.mean_turnaround > 0


def test_paper_config_is_paper():
    assert PAPER_CONFIG.processors == 352


#: packages whose off-run-path re-exports load on first use
LAZY_PACKAGES = ("repro.experiments", "repro.stats", "repro.workload")


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_lazy_exports_resolve_and_are_listed(name):
    package = importlib.import_module(name)
    listed = dir(package)
    for export in package.__all__:
        value = getattr(package, export)
        assert export in listed
        assert getattr(package, export) is value  # cached, not re-imported


def test_star_import_of_experiments():
    namespace = {}
    exec("from repro.experiments import *", namespace)
    import repro.experiments
    from repro.experiments.diff import diff_reports

    assert set(repro.experiments.__all__) <= namespace.keys()
    assert namespace["diff_reports"] is diff_reports


@pytest.mark.parametrize("name", LAZY_PACKAGES)
def test_unknown_name_raises_attribute_error(name):
    package = importlib.import_module(name)
    with pytest.raises(AttributeError, match=f"'{name}' has no attribute"):
        package.no_such_name
    assert not hasattr(package, "no_such_name")
