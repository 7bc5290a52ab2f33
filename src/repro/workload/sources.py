"""Base workload names and the test that tells a pipeline spec from one.

Kept apart from :mod:`repro.workload.transforms` (which re-exports both
names) so a campaign of plain source names never loads the pipeline
grammar: only a real pipeline spec does.
"""

from __future__ import annotations

#: base workload names a pipeline source may name (resolution to concrete
#: Workload objects is the caller's job, see ``build_pipeline``)
SOURCES = ("real", "uniform", "exponential")


def is_pipeline_spec(workload: str) -> bool:
    """True when ``workload`` is a pipeline spec rather than a base name.

    A string without any pipeline syntax (``|``, ``+``, ``*``, ``:``)
    that is not a known source is *not* a pipeline -- callers keep their
    historical unknown-name error paths for plain strings.
    """
    return (isinstance(workload, str) and workload not in SOURCES
            and any(c in workload for c in "|+*:"))
