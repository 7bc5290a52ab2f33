"""Workload models: stochastic streams and real-trace replay.

The paper evaluates every strategy under (a) a stochastic workload with
exponential inter-arrival times and uniform / exponential side-length
distributions, and (b) a real trace of 10,658 production jobs from the
352-node partition of the SDSC Intel Paragon.  This package provides both,
plus a Standard Workload Format (SWF) parser so an actual archive trace
can be substituted for the calibrated synthetic one (DESIGN.md
section 2.3).

On top of the base workloads sits a composable transform pipeline
(:mod:`repro.workload.transforms`): any stream can be load-scaled,
thinned, jittered, burstified, shape-clamped or merged with another
stream, described either programmatically or through a spec string such
as ``"real*0.5 | thin:0.8 + uniform"`` (see :func:`parse_workload_spec`
for the grammar).  Every transform preserves the dyadic arrival-time
grid and non-decreasing arrival order.

The pipeline grammar and the SWF parser load on first use of one of
their names (:func:`repro._lazy.lazy_exports`): a run of plain source
names never compiles them.
"""

from repro._lazy import lazy_exports
from repro.workload.base import Workload, quantize_time
from repro.workload.columnar import (
    DEFAULT_BLOCK,
    MAX_CHUNK,
    BlockCache,
    JobBlock,
    blocks_from_jobs,
    job_stream,
    jobs_from_blocks,
    open_stream,
    refill_size,
)
from repro.workload.stochastic import StochasticWorkload
from repro.workload.trace import TraceJob, TraceStats, TraceWorkload, trace_stats
from repro.workload.sources import SOURCES, is_pipeline_spec
from repro.workload.sdsc import synthesize_sdsc_trace, SDSC_PUBLISHED

__getattr__, __dir__ = lazy_exports(globals(), {
    "repro.workload.transforms": (
        "TRANSFORMS",
        "Burstify",
        "Jitter",
        "LoadScale",
        "Merge",
        "ShapeClamp",
        "SpecError",
        "Thin",
        "WorkloadTransform",
        "build_pipeline",
        "canonical_workload",
        "parse_workload_spec",
        "spec_is_deterministic",
        "spec_to_str",
    ),
    "repro.workload.swf": ("load_swf", "parse_swf_line"),
})

__all__ = [
    "Workload",
    "quantize_time",
    "DEFAULT_BLOCK",
    "MAX_CHUNK",
    "BlockCache",
    "JobBlock",
    "blocks_from_jobs",
    "job_stream",
    "jobs_from_blocks",
    "open_stream",
    "refill_size",
    "StochasticWorkload",
    "TraceJob",
    "TraceStats",
    "TraceWorkload",
    "trace_stats",
    "SOURCES",
    "TRANSFORMS",
    "Burstify",
    "Jitter",
    "LoadScale",
    "Merge",
    "ShapeClamp",
    "SpecError",
    "Thin",
    "WorkloadTransform",
    "build_pipeline",
    "canonical_workload",
    "is_pipeline_spec",
    "parse_workload_spec",
    "spec_is_deterministic",
    "spec_to_str",
    "synthesize_sdsc_trace",
    "SDSC_PUBLISHED",
    "load_swf",
    "parse_swf_line",
]
