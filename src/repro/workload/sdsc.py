"""Synthetic SDSC Intel Paragon trace (substitution, DESIGN.md section 2.3).

The paper replays "a stream of 10658 real production jobs from the Intel
Paragon at the San Diego Supercomputer Centre ... taken only from the 352
nodes", quoting: mean inter-arrival time 1186.7 seconds, average job size
34.5 nodes, "with the distribution favouring sizes that are non-powers of
two".  The archive trace is public (Feitelson's Parallel Workloads
Archive, SDSC-Par-95) but unavailable offline, so this module synthesises
a trace calibrated to every published statistic:

* **arrivals**: hyper-exponential inter-arrival times (70% short / 30%
  long phases, mean exactly 1186.7 s) capturing the burstiness of
  production submission streams (CV > 1);
* **sizes**: a mixture of small interactive jobs, log-normally spread
  production sizes and occasional near-full-machine runs, nudged off
  powers of two so non-powers-of-two dominate (the property that defeats
  MBS on the real workload);
* **runtimes**: log-normal with sigma = 1.9 (heavy tail, CV ~ 6), the
  shape reported for SDSC Paragon runtimes by Windisch et al.
  (Frontiers'96) -- this is what gives SSD its advantage.

The generator is deterministic for a given seed; ``verify`` checks the
synthetic statistics against the paper's published ones.  The per-job
draws run in the compiled draw loop of :mod:`repro.workload._native`
when it is available, on the same bit stream and in the same order as
the Python loop here, which stays as the fallback and as the reference
the tests compare against.
"""

from __future__ import annotations

import math

import numpy as np

from repro.workload import _native
from repro.workload.trace import TraceJob, TraceStats, trace_stats

#: the statistics the paper quotes for its trace
SDSC_PUBLISHED = {
    "jobs": 10658,
    "mean_interarrival": 1186.7,
    "mean_size": 34.5,
    "partition_nodes": 352,
}

# size mixture: (weight, kind, params)
_SIZE_MIX = (
    (0.40, "small", (1, 8)),  # uniform 1..8 interactive jobs
    (0.40, "medium", (math.log(18.0), 0.7)),  # log-normal production sizes
    (0.17, "large", (math.log(80.0), 0.6)),  # big production runs
    (0.03, "full", (200, 352)),  # near-full-machine runs
)

#: mixture components drawn as bounded integers over ``[lo, hi]``; the
#: others are log-normal
_UNIFORM_KINDS = ("small", "full")

_POWERS_OF_TWO = {4, 8, 16, 32, 64, 128, 256}


def _draw_size(rng: np.random.Generator, max_size: int) -> int:
    u = rng.random()
    acc = 0.0
    for weight, kind, params in _SIZE_MIX:
        acc += weight
        if u <= acc:
            break
    if kind in _UNIFORM_KINDS:
        lo, hi = params
        size = int(rng.integers(lo, hi + 1))
    else:
        mu, sigma = params
        # round() already returns an int; no cast needed
        size = round(rng.lognormal(mu, sigma))
    size = max(1, min(max_size, size))
    # favour non-powers-of-two: production codes on the Paragon mostly
    # requested arbitrary node counts
    if size in _POWERS_OF_TWO and rng.random() < 0.6:
        size += int(rng.integers(1, 4)) * (1 if rng.random() < 0.5 else -1)
        size = max(1, min(max_size, size))
    return size


def _python_trace(
    rng: np.random.Generator,
    jobs: int,
    short_mean: float,
    long_mean: float,
    max_size: int,
    mu_rt: float,
    runtime_sigma: float,
) -> list[TraceJob]:
    """The per-job draw loop in Python: the fallback and the reference."""
    out: list[TraceJob] = []
    t = 0.0
    for _ in range(jobs):
        gap = rng.exponential(short_mean if rng.random() < 0.7 else long_mean)
        t += gap
        size = _draw_size(rng, max_size)
        runtime = max(1.0, rng.lognormal(mu_rt, runtime_sigma))
        out.append(TraceJob(arrival=t, size=size, runtime=runtime))
    return out


def _native_trace(
    rng: np.random.Generator,
    jobs: int,
    short_mean: float,
    long_mean: float,
    max_size: int,
    mu_rt: float,
    runtime_sigma: float,
) -> list[TraceJob] | None:
    """:func:`_python_trace` in the compiled loop; ``None`` without it."""
    mix = np.array(
        [(weight, kind not in _UNIFORM_KINDS, *params)
         for weight, kind, params in _SIZE_MIX],
        dtype=np.float64,
    )
    pow2 = np.array(sorted(_POWERS_OF_TWO), dtype=np.int64)
    arrival = np.empty(jobs)
    size = np.empty(jobs, dtype=np.int64)
    runtime = np.empty(jobs)
    if not _native.fill_sdsc_draws(
        rng, jobs, short_mean, long_mean, max_size, mu_rt, runtime_sigma,
        mix, pow2, arrival, size, runtime,
    ):
        return None
    return [
        TraceJob(arrival=a, size=s, runtime=r)
        for a, s, r in zip(arrival.tolist(), size.tolist(), runtime.tolist())
    ]


def synthesize_sdsc_trace(
    jobs: int = SDSC_PUBLISHED["jobs"],
    seed: int = 1995,
    mean_interarrival: float = SDSC_PUBLISHED["mean_interarrival"],
    max_size: int = SDSC_PUBLISHED["partition_nodes"],
    runtime_median: float = 500.0,
    runtime_sigma: float = 1.9,
) -> list[TraceJob]:
    """Generate the calibrated synthetic SDSC Paragon trace."""
    if jobs < 2:
        raise ValueError("a trace needs at least two jobs")
    rng = np.random.default_rng(seed)
    # hyper-exponential inter-arrivals: mean = 0.7*0.4m + 0.3*2.4m = m
    args = (rng, jobs, 0.4 * mean_interarrival, 2.4 * mean_interarrival,
            max_size, math.log(runtime_median), runtime_sigma)
    trace = _native_trace(*args)
    return trace if trace is not None else _python_trace(*args)


def verify(trace: list[TraceJob], tolerance: float = 0.15) -> TraceStats:
    """Check the synthetic trace against the paper's published statistics.

    Raises ``AssertionError`` when a headline statistic drifts more than
    ``tolerance`` (relative); returns the stats on success.
    """
    stats = trace_stats(trace)
    published_ia = SDSC_PUBLISHED["mean_interarrival"]
    published_size = SDSC_PUBLISHED["mean_size"]
    if abs(stats.mean_interarrival - published_ia) / published_ia > tolerance:
        raise AssertionError(
            f"mean inter-arrival {stats.mean_interarrival:.1f}s deviates from "
            f"published {published_ia}s by more than {tolerance:.0%}"
        )
    if abs(stats.mean_size - published_size) / published_size > tolerance:
        raise AssertionError(
            f"mean size {stats.mean_size:.1f} deviates from published "
            f"{published_size} by more than {tolerance:.0%}"
        )
    if stats.power_of_two_fraction > 0.35:
        raise AssertionError(
            "synthetic trace does not favour non-power-of-two sizes "
            f"(pow2 fraction {stats.power_of_two_fraction:.2f})"
        )
    return stats
