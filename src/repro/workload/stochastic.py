"""Stochastic workload (paper section 5, workload 1).

* inter-arrival times: exponential with mean ``1 / load`` (the paper's
  *system load* is "the inverse of the mean inter-arrival time of jobs");
* request side lengths: either uniform over ``[1, W] x [1, L]`` (widths
  and lengths drawn independently) or exponential with a mean of half the
  corresponding mesh side, rounded and clipped into range;
* communication demand: ``K_j = max(1, round(Exp(num_mes)))`` messages per
  processor (DESIGN.md section 2.2) -- execution times are *not* inputs;
  the simulator derives them from contention.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np

from repro.core.config import TIME_GRID, SimConfig
from repro.core.job import Job
from repro.mesh.geometry import clip_side
from repro.workload import _native
from repro.workload.base import Workload, quantize_time
from repro.workload.columnar import DEFAULT_BLOCK, JobBlock

SIDE_DISTRIBUTIONS = ("uniform", "exponential")


class StochasticWorkload(Workload):
    """Poisson arrivals with uniform or exponential request sides."""

    def __init__(
        self, config: SimConfig, load: float, sides: str = "uniform"
    ) -> None:
        super().__init__(config)
        if load <= 0:
            raise ValueError(f"load must be positive, got {load}")
        if sides not in SIDE_DISTRIBUTIONS:
            raise ValueError(
                f"unknown side distribution {sides!r}; choose from {SIDE_DISTRIBUTIONS}"
            )
        self.load = load
        self.sides = sides
        self.name = f"stochastic-{sides}"

    def jobs(self, seed: int) -> Iterator[Job]:
        """The seeded infinite job stream (dyadic-grid arrival times)."""
        rng = np.random.default_rng(seed)
        cfg = self.config
        mean_interarrival = 1.0 / self.load
        t = 0.0
        job_id = 0
        while True:
            t += rng.exponential(mean_interarrival)
            job_id += 1
            if self.sides == "uniform":
                w = int(rng.integers(1, cfg.width + 1))
                l = int(rng.integers(1, cfg.length + 1))
            else:
                w = clip_side(rng.exponential(cfg.width / 2.0), cfg.width)
                l = clip_side(rng.exponential(cfg.length / 2.0), cfg.length)
            # round() already returns an int; no cast needed
            k = max(1, round(rng.exponential(cfg.num_mes)))
            k = min(k, cfg.max_messages)
            yield Job(
                job_id=job_id,
                arrival_time=quantize_time(t),
                width=w,
                length=l,
                messages=k,
            )

    def block_fingerprint(self) -> tuple:
        """Stream identity: distribution shape + every draw parameter."""
        cfg = self.config
        return (
            "stochastic", self.sides, self.load, cfg.width, cfg.length,
            cfg.num_mes, cfg.max_messages,
        )

    def blocks(self, seed: int, count: int = DEFAULT_BLOCK) -> Iterator[JobBlock]:
        """Columnar generator, bit-identical to :meth:`jobs`.

        The scalar loop draws, per job, interarrival / width / length /
        message-count in that order from one ``default_rng(seed)``
        stream.  For exponential sides all four are exponential draws,
        and a vectorised ``standard_exponential(4 * count)`` consumes
        the underlying bit stream element-by-element in exactly that
        interleaved order -- reshaping to ``(count, 4)`` recovers the
        per-job columns, and applying each scale afterwards performs the
        same ``scale * x`` multiplication ``Generator.exponential``
        does.  Uniform sides mix exponential and Lemire bounded-integer
        draws, whose bit-stream consumption cannot be replayed
        column-wise; that branch runs the per-job loop in C instead
        (:mod:`repro.workload._native`, calling numpy's own
        ``libnpyrandom`` draw routines on the live bit generator, so
        order and values are identical by construction); without the
        helper they batch :meth:`jobs` through the base class.  Arrival
        accumulation and grid-snapping are shared: a ``cumsum`` seeded
        with the running time reproduces the scalar left-to-right
        float additions, and ``floor(t * G) / G`` is
        :func:`~repro.workload.base.quantize_time` elementwise.
        """
        uniform = self.sides == "uniform"
        if uniform and _native.load_kernel() is None:
            yield from super().blocks(seed, count)
            return
        rng = np.random.default_rng(seed)
        cfg = self.config
        mean_interarrival = 1.0 / self.load
        w_scale, l_scale = cfg.width / 2.0, cfg.length / 2.0
        t = 0.0
        next_id = 1
        while True:
            if uniform:
                gaps = np.empty(count, dtype=np.float64)
                w = np.empty(count, dtype=np.int64)
                l = np.empty(count, dtype=np.int64)
                k_raw = np.empty(count, dtype=np.float64)
                _native.fill_uniform_draws(
                    rng, count, mean_interarrival, cfg.width + 1,
                    cfg.length + 1, cfg.num_mes, gaps, w, l, k_raw,
                )
            else:
                raw = rng.standard_exponential(4 * count).reshape(count, 4)
                gaps = raw[:, 0] * mean_interarrival
                # clip_side, vectorised: max(1, min(limit, round(x)))
                w = np.maximum(
                    1.0, np.minimum(cfg.width, np.rint(raw[:, 1] * w_scale))
                ).astype(np.int64)
                l = np.maximum(
                    1.0, np.minimum(cfg.length, np.rint(raw[:, 2] * l_scale))
                ).astype(np.int64)
                k_raw = raw[:, 3] * cfg.num_mes
            k = np.minimum(
                np.maximum(1.0, np.rint(k_raw)), cfg.max_messages
            ).astype(np.int64)
            # left-associated running sum, exactly as the scalar loop
            cum = np.cumsum(np.concatenate(([t], gaps)))
            t = float(cum[-1])
            arrival = np.floor(cum[1:] * TIME_GRID) / TIME_GRID
            ids = np.arange(next_id, next_id + count, dtype=np.int64)
            next_id += count
            yield JobBlock(
                job_id=ids, arrival=arrival, width=w, length=l,
                messages=k, demand=k.astype(np.float64),
            )
