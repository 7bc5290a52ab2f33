"""Composable workload transforms (the scenario subsystem's bottom layer).

The paper's central finding is that *workload shape* decides which
allocation/scheduling strategy wins.  This module makes workload shape a
first-class, composable object: any :class:`~repro.workload.base.Workload`
can be wrapped in a pipeline of transforms --

* :class:`LoadScale` -- multiply arrival times by a factor ``f``
  (generalising the trace-replay compression factor buried in
  :class:`~repro.workload.trace.TraceWorkload`; ``f < 1`` compresses
  inter-arrivals and raises the offered load);
* :class:`Thin` -- keep each job independently with probability ``p``;
* :class:`Merge` -- interleave two or more streams by arrival time;
* :class:`Jitter` -- perturb arrival times with truncated Gaussian noise;
* :class:`Burstify` -- batch arrivals onto periodic burst boundaries;
* :class:`ShapeClamp` -- cap requested sub-mesh side lengths.

Every transform preserves the two stream invariants the simulator and the
network backends rely on: arrival times are **non-decreasing** and live on
the dyadic :data:`~repro.core.config.TIME_GRID` (so all transport
backends stay bit-identical, see :mod:`repro.workload.base`).  An
*identity* pipeline (a bare source, or ``scale:1``) yields a stream
bit-identical to the raw workload.

Pipelines are described by a tiny spec grammar shared by the CLI, the
scenario files and the campaign cache keys::

    pipeline  := term (" + " term)*          # "+" merges streams
    term      := source ("*" factor)? (" | " transform)*
    source    := "real" | "uniform" | "exponential"
    transform := op (":" arg)*               # e.g. thin:0.8, clamp:4:4

``"real*0.5 | thin:0.8 + uniform"`` therefore means: the SDSC trace with
arrival times halved, thinned to 80%, merged with an untransformed
uniform stochastic stream.  :func:`parse_workload_spec` also accepts an
equivalent JSON-friendly dict AST, and :func:`canonical_workload`
normalises either form to one canonical string so equal pipelines always
produce equal campaign cache keys.
"""

from __future__ import annotations

import heapq
import math
import zlib
from dataclasses import replace
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.core.config import TIME_GRID
from repro.core.job import Job
from repro.workload.base import Workload, quantize_time
from repro.workload.columnar import DEFAULT_BLOCK, JobBlock, open_stream

#: base workload names a pipeline source may name (resolution to concrete
#: Workload objects is the caller's job, see ``build_pipeline``)
SOURCES = ("real", "uniform", "exponential")


def _op_code(op: str) -> int:
    """Stable (process-independent) integer tag for an op name."""
    return zlib.crc32(op.encode("utf-8"))


def _quantize_array(t: np.ndarray) -> np.ndarray:
    """:func:`~repro.workload.base.quantize_time`, elementwise.

    ``floor(t * G) / G`` performs the identical two float operations,
    so the result is bit-equal to the scalar helper for every element.
    """
    return np.floor(t * TIME_GRID) / TIME_GRID


def _monotone_block(prev: float, arrival: np.ndarray) -> float:
    """Vector form of ``Workload._check_monotone`` over one column.

    Returns the new running maximum (the column's last value); raises
    the same ``AssertionError`` naming the first offending pair.
    """
    if len(arrival) == 0:
        return prev
    if arrival[0] < prev or np.any(np.diff(arrival) < 0):
        full = np.concatenate(([prev], arrival))
        i = int(np.nonzero(np.diff(full) < 0)[0][0])
        raise AssertionError(
            f"workload produced decreasing arrival times "
            f"({full[i + 1]} < {full[i]})"
        )
    return float(arrival[-1])


class WorkloadTransform(Workload):
    """A workload that rewrites another workload's job stream.

    Subclasses set :attr:`op`, implement :meth:`jobs`, and put their
    argument *range* checks in a :meth:`check_args` staticmethod so the
    spec parser can reject out-of-range values at parse time -- the same
    checks the constructor runs.  ``salt`` decorrelates the RNG streams
    of identical transforms appearing at different positions of one
    pipeline (see :meth:`_rng`).
    """

    op: str = "abstract"

    @staticmethod
    def check_args(*args) -> None:
        """Raise ValueError when transform args are out of range."""

    def __init__(self, inner: Workload, salt: int = 0) -> None:
        super().__init__(inner.config)
        self.inner = inner
        self.salt = salt
        self.name = f"{inner.name} | {self.describe()}"

    def describe(self) -> str:
        """The transform's canonical spec token (e.g. ``thin:0.8``)."""
        return self.op

    def _rng(self, seed: int) -> np.random.Generator:
        """Transform-local RNG, decorrelated from the source stream's
        generator and from other transforms in the same pipeline."""
        return np.random.default_rng(
            np.random.SeedSequence([abs(int(seed)), self.salt, _op_code(self.op)])
        )

    def _chain_fingerprint(self, *args) -> tuple | None:
        """Fingerprint helper for transforms *with* a vector form:
        ``(op, args..., salt, inner fingerprint)``, or ``None`` when the
        inner stream has no stable identity (which poisons the whole
        chain -- an uncacheable source makes the pipeline uncacheable).
        Transforms without a vector ``blocks`` override keep the base
        ``None`` fingerprint, so the fallback path is never cached."""
        inner = self.inner.block_fingerprint()
        if inner is None:
            return None
        return (self.op, *args, self.salt, inner)


class LoadScale(WorkloadTransform):
    """Multiply every arrival time by ``factor``.

    This is the paper's trace-compression factor ``f`` lifted out of
    :class:`~repro.workload.trace.TraceWorkload` and made applicable to
    *any* stream: ``factor < 1`` compresses inter-arrival times (raising
    the offered load by ``1/factor``), ``factor > 1`` stretches them.
    ``factor == 1`` is an exact identity: an on-grid arrival multiplied
    by 1.0 re-quantizes to itself.
    """

    op = "scale"

    @staticmethod
    def check_args(factor: float) -> None:
        """Reject non-positive and non-finite factors at spec-parse time."""
        if not (math.isfinite(factor) and factor > 0):
            raise ValueError(
                f"scale factor must be positive and finite, got {factor}"
            )

    def __init__(self, inner: Workload, factor: float, salt: int = 0) -> None:
        self.check_args(factor)
        self.factor = float(factor)
        super().__init__(inner, salt)

    def describe(self) -> str:
        """The canonical spec fragment, e.g. ``scale:0.5``."""
        return f"scale:{_fmt_arg(self.factor)}"

    def jobs(self, seed: int) -> Iterator[Job]:
        """The scaled stream (arrivals re-quantized onto the grid)."""
        prev = 0.0
        for job in self.inner.jobs(seed):
            t = quantize_time(job.arrival_time * self.factor)
            prev = self._check_monotone(prev, t)
            yield replace(job, arrival_time=t)

    def block_fingerprint(self) -> tuple | None:
        """``("scale", factor, salt, inner)`` when the inner is stable."""
        return self._chain_fingerprint(self.factor)

    def blocks(self, seed: int, count: int = DEFAULT_BLOCK) -> Iterator[JobBlock]:
        """Vector form: scale + re-quantize whole arrival columns."""
        prev = 0.0
        for block in self.inner.blocks(seed, count):
            t = _quantize_array(block.arrival * self.factor)
            prev = _monotone_block(prev, t)
            yield replace(block, arrival=t)


class Thin(WorkloadTransform):
    """Keep each job independently with probability ``p``.

    Thinning a Poisson stream of rate ``lambda`` yields a Poisson stream
    of rate ``p * lambda``; on a trace it subsamples jobs while keeping
    the arrival-burst structure.  Surviving jobs keep their original ids
    and arrival times, so the invariants hold trivially.  The keep/drop
    draws come from a transform-local RNG: the same ``(seed, salt)``
    always keeps the same subset.
    """

    op = "thin"

    @staticmethod
    def check_args(p: float) -> None:
        """Reject probabilities outside ``(0, 1]`` at spec-parse time."""
        if not 0.0 < p <= 1.0:
            raise ValueError(f"thin probability must be in (0, 1], got {p}")

    def __init__(self, inner: Workload, p: float, salt: int = 0) -> None:
        self.check_args(p)
        self.p = float(p)
        super().__init__(inner, salt)

    def describe(self) -> str:
        """The canonical spec fragment, e.g. ``thin:0.8``."""
        return f"thin:{_fmt_arg(self.p)}"

    def jobs(self, seed: int) -> Iterator[Job]:
        """The thinned stream (transform-local RNG, reproducible)."""
        rng = self._rng(seed)
        for job in self.inner.jobs(seed):
            if rng.random() < self.p:
                yield job

    def block_fingerprint(self) -> tuple | None:
        """``("thin", p, salt, inner)`` when the inner is stable."""
        return self._chain_fingerprint(self.p)

    def blocks(self, seed: int, count: int = DEFAULT_BLOCK) -> Iterator[JobBlock]:
        """Vector form: one ``random(n)`` batch per block.

        A vectorised ``random(n)`` consumes the bit stream exactly like
        ``n`` scalar ``random()`` calls, so the kept subset is identical
        regardless of how the inner stream is partitioned into blocks.
        Blocks may come out shorter (or empty) than ``count``.
        """
        rng = self._rng(seed)
        for block in self.inner.blocks(seed, count):
            yield block.take(rng.random(len(block)) < self.p)


class Jitter(WorkloadTransform):
    """Perturb each arrival with ``N(0, sigma)`` noise, clamped so the
    stream stays non-decreasing (and non-negative), then re-quantized
    onto the dyadic grid.  Models measurement noise / submission-time
    slack on top of a recorded trace."""

    op = "jitter"

    @staticmethod
    def check_args(sigma: float) -> None:
        """Reject negative and non-finite noise widths at spec-parse time."""
        if not (math.isfinite(sigma) and sigma >= 0):
            raise ValueError(
                f"jitter sigma must be non-negative and finite, got {sigma}"
            )

    def __init__(self, inner: Workload, sigma: float, salt: int = 0) -> None:
        self.check_args(sigma)
        self.sigma = float(sigma)
        super().__init__(inner, salt)

    def describe(self) -> str:
        """The canonical spec fragment, e.g. ``jitter:5``."""
        return f"jitter:{_fmt_arg(self.sigma)}"

    def jobs(self, seed: int) -> Iterator[Job]:
        """The jittered stream (clamped monotone, re-quantized)."""
        rng = self._rng(seed)
        prev = 0.0
        for job in self.inner.jobs(seed):
            t = job.arrival_time + rng.normal(0.0, self.sigma)
            # prev is on-grid, so flooring a value >= prev stays >= prev
            t = quantize_time(max(t, prev, 0.0))
            prev = t
            yield replace(job, arrival_time=t)

    def block_fingerprint(self) -> tuple | None:
        """``("jitter", sigma, salt, inner)`` when the inner is stable."""
        return self._chain_fingerprint(self.sigma)

    def blocks(self, seed: int, count: int = DEFAULT_BLOCK) -> Iterator[JobBlock]:
        """Vector form: batched noise + a running-maximum clamp.

        ``quantize(max(t, prev, 0))`` with an on-grid, non-negative
        ``prev`` equals ``max(quantize(max(t, 0)), prev)``: when the
        noisy time falls below ``prev``, flooring ``prev`` returns
        ``prev`` itself, and otherwise ``prev`` does not bind.  That
        re-association turns the scalar recurrence into a quantize of
        the clamped column followed by ``np.maximum.accumulate``.
        """
        rng = self._rng(seed)
        prev = 0.0
        for block in self.inner.blocks(seed, count):
            noise = rng.normal(0.0, self.sigma, len(block))
            q = _quantize_array(np.maximum(block.arrival + noise, 0.0))
            t = np.maximum.accumulate(np.concatenate(([prev], q)))[1:]
            if len(t):
                prev = float(t[-1])
            yield replace(block, arrival=t)


class Burstify(WorkloadTransform):
    """Round every arrival *up* to the next multiple of ``interval``:
    jobs arrive in periodic bursts, the adversarial pattern for
    head-blocking schedulers.  Rounding up is monotone, so ordering is
    preserved."""

    op = "burst"

    @staticmethod
    def check_args(interval: float) -> None:
        """Reject non-positive and non-finite burst intervals at
        spec-parse time."""
        if not (math.isfinite(interval) and interval > 0):
            raise ValueError(
                f"burst interval must be positive and finite, got {interval}"
            )

    def __init__(self, inner: Workload, interval: float, salt: int = 0) -> None:
        self.check_args(interval)
        self.interval = float(interval)
        super().__init__(inner, salt)

    def describe(self) -> str:
        """The canonical spec fragment, e.g. ``burst:128``."""
        return f"burst:{_fmt_arg(self.interval)}"

    def jobs(self, seed: int) -> Iterator[Job]:
        """The burst-aligned stream (arrivals rounded up)."""
        prev = 0.0
        for job in self.inner.jobs(seed):
            t = quantize_time(math.ceil(job.arrival_time / self.interval)
                              * self.interval)
            prev = self._check_monotone(prev, t)
            yield replace(job, arrival_time=t)

    def block_fingerprint(self) -> tuple | None:
        """``("burst", interval, salt, inner)`` when the inner is stable."""
        return self._chain_fingerprint(self.interval)

    def blocks(self, seed: int, count: int = DEFAULT_BLOCK) -> Iterator[JobBlock]:
        """Vector form: ceil to the burst grid, column at a time.

        ``np.ceil`` yields the same exact integer value ``math.ceil``
        does (as a float64), and multiplying by ``interval`` performs
        the identical promotion-to-float product.
        """
        prev = 0.0
        for block in self.inner.blocks(seed, count):
            t = _quantize_array(
                np.ceil(block.arrival / self.interval) * self.interval
            )
            prev = _monotone_block(prev, t)
            yield replace(block, arrival=t)


class ShapeClamp(WorkloadTransform):
    """Cap requested sub-mesh sides at ``max_width x max_length`` (and at
    the machine's own sides).  Turns any stream into a small-job stream
    without touching arrivals or demands."""

    op = "clamp"

    @staticmethod
    def check_args(max_width: int, max_length: int) -> None:
        """Reject sub-unit clamp sides at spec-parse time."""
        if max_width < 1 or max_length < 1:
            raise ValueError(
                f"clamp sides must be >= 1, got {max_width}x{max_length}"
            )

    def __init__(
        self, inner: Workload, max_width: int, max_length: int, salt: int = 0
    ) -> None:
        self.check_args(max_width, max_length)
        self.max_width = int(max_width)
        self.max_length = int(max_length)
        super().__init__(inner, salt)

    def describe(self) -> str:
        """The canonical spec fragment, e.g. ``clamp:4:4``."""
        return f"clamp:{self.max_width}:{self.max_length}"

    def jobs(self, seed: int) -> Iterator[Job]:
        """The clamped stream (arrivals and demands untouched)."""
        w_cap = min(self.max_width, self.config.width)
        l_cap = min(self.max_length, self.config.length)
        for job in self.inner.jobs(seed):
            w, l = min(job.width, w_cap), min(job.length, l_cap)
            if (w, l) == (job.width, job.length):
                yield job
            else:
                yield replace(job, width=w, length=l)

    def block_fingerprint(self) -> tuple | None:
        """``("clamp", w, l, salt, inner)`` when the inner is stable."""
        return self._chain_fingerprint(self.max_width, self.max_length)

    def blocks(self, seed: int, count: int = DEFAULT_BLOCK) -> Iterator[JobBlock]:
        """Vector form: elementwise minimum on the side columns."""
        w_cap = min(self.max_width, self.config.width)
        l_cap = min(self.max_length, self.config.length)
        for block in self.inner.blocks(seed, count):
            yield replace(
                block,
                width=np.minimum(block.width, w_cap),
                length=np.minimum(block.length, l_cap),
            )


class Merge(Workload):
    """Interleave two or more streams by arrival time.

    Stream 0 runs on the replication seed itself; every later stream gets
    a seed derived from ``(seed, stream_index)``, so merged stochastic
    streams are decorrelated yet the whole merge is a pure function of
    the replication seed.  Ties break toward the earlier stream
    (:func:`heapq.merge` is stable), and jobs are renumbered in emission
    order so ids stay unique across the merged stream.
    """

    def __init__(self, *inners: Workload) -> None:
        if len(inners) < 2:
            raise ValueError("Merge needs at least two workloads")
        first = inners[0]
        for wl in inners[1:]:
            if wl.config is not first.config and wl.config != first.config:
                raise ValueError("merged workloads must share one SimConfig")
        super().__init__(first.config)
        self.inners = tuple(inners)
        self.name = " + ".join(wl.name for wl in inners)

    @staticmethod
    def stream_seed(seed: int, index: int) -> int:
        """Seed for merged stream ``index`` (index 0 keeps ``seed``)."""
        if index == 0:
            return seed
        seq = np.random.SeedSequence([abs(int(seed)), index, _op_code("merge")])
        return int(seq.generate_state(1, dtype=np.uint64)[0])

    def jobs(self, seed: int) -> Iterator[Job]:
        """The merged stream (stable arrival order, renumbered ids)."""
        streams = [
            wl.jobs(self.stream_seed(seed, i))
            for i, wl in enumerate(self.inners)
        ]
        prev = 0.0
        merged = heapq.merge(*streams, key=lambda j: j.arrival_time)
        for new_id, job in enumerate(merged, start=1):
            prev = self._check_monotone(prev, job.arrival_time)
            yield replace(job, job_id=new_id)

    def block_fingerprint(self) -> tuple | None:
        """``("merge", inner fingerprints...)`` when every inner is stable."""
        fps = [wl.block_fingerprint() for wl in self.inners]
        if any(fp is None for fp in fps):
            return None
        return ("merge", *fps)

    def blocks(self, seed: int, count: int = DEFAULT_BLOCK) -> Iterator[JobBlock]:
        """Streaming block merge, identical to the scalar ``heapq.merge``.

        Each round picks a horizon ``T`` -- the smallest last-buffered
        arrival over the streams that may still produce jobs -- extends
        those streams strictly past ``T``, then emits every buffered job
        with ``arrival <= T``.  Emission concatenates the per-stream
        prefixes in stream-index order and applies one *stable* argsort
        on arrival: ties keep concatenation order, which is exactly
        ``heapq.merge``'s earlier-stream-wins tie break.  Ids are
        renumbered in emission order, as in the scalar path.  Inner
        streams are read through
        :func:`~repro.workload.columnar.open_stream`, so cacheable
        sources are generated once per process even under a merge.
        """
        cursors = [
            open_stream(wl, self.stream_seed(seed, i), count)
            for i, wl in enumerate(self.inners)
        ]
        pending: list[list[JobBlock]] = [[] for _ in cursors]
        done = [False] * len(cursors)
        prev = 0.0
        next_id = 1

        def pull(s: int) -> None:
            blk = cursors[s].next_block()
            if blk is None:
                done[s] = True
            else:
                pending[s].append(blk)

        while True:
            for s in range(len(cursors)):
                if not pending[s] and not done[s]:
                    pull(s)
            if not any(pending):
                break
            undone = [s for s in range(len(cursors)) if not done[s]]
            if undone:
                horizon = min(
                    float(pending[s][-1].arrival[-1]) for s in undone
                )
                for s in undone:
                    while (not done[s]
                           and float(pending[s][-1].arrival[-1]) <= horizon):
                        pull(s)
            else:
                horizon = math.inf
            parts: list[JobBlock] = []
            for s in range(len(cursors)):
                while pending[s]:
                    blk = pending[s][0]
                    if horizon == math.inf:
                        cut = len(blk)
                    else:
                        cut = int(np.searchsorted(
                            blk.arrival, horizon, side="right"
                        ))
                    if cut == len(blk):
                        parts.append(blk)
                        pending[s].pop(0)
                    else:
                        if cut:
                            parts.append(blk.view(0, cut))
                            pending[s][0] = blk.view(cut, len(blk))
                        break
            merged = JobBlock.concat(parts)
            order = np.argsort(merged.arrival, kind="stable")
            merged = merged.take(order)
            prev = _monotone_block(prev, merged.arrival)
            for start in range(0, len(merged), count):
                yield merged.view(start, start + count).renumber(
                    next_id + start
                )
            next_id += len(merged)


#: transform registry: op name -> (class, positional arg parsers)
TRANSFORMS: dict[str, tuple[type[WorkloadTransform], tuple[Callable, ...]]] = {
    "scale": (LoadScale, (float,)),
    "thin": (Thin, (float,)),
    "jitter": (Jitter, (float,)),
    "burst": (Burstify, (float,)),
    "clamp": (ShapeClamp, (int, int)),
}

#: ops whose output depends on the replication seed beyond the source's
#: own draw (used to decide whether a pipeline is deterministic)
_SEEDED_OPS = frozenset({"thin", "jitter"})


# ---------------------------------------------------------------- spec AST
#
# AST shape (plain dicts/lists, JSON-serializable):
#   term   = {"source": "real"}
#          | {"op": "thin", "args": [0.8], "inner": term}
#   root   = term | {"merge": [term, term, ...]}
#
# Merge appears only at the root (mirroring the string grammar, where
# "+" has the lowest precedence), so every AST round-trips through the
# canonical string form and cache keys stay uniform.


class SpecError(ValueError):
    """A workload-pipeline spec failed to parse or validate."""


def _parse_args(op: str, raw: Sequence) -> list:
    cls, parsers = TRANSFORMS[op]
    if len(raw) != len(parsers):
        raise SpecError(
            f"transform {op!r} takes {len(parsers)} argument(s), got {len(raw)}"
        )
    try:
        args = [parse(v) for parse, v in zip(parsers, raw)]
        cls.check_args(*args)  # range checks, shared with the constructor
        return args
    except (TypeError, ValueError) as exc:
        raise SpecError(f"bad argument for transform {op!r}: {exc}") from None


def _parse_term_str(text: str) -> dict:
    tokens = [t.strip() for t in text.split("|")]
    if not tokens or not tokens[0]:
        raise SpecError(f"empty pipeline term in {text!r}")
    head = tokens[0]
    factor = None
    if "*" in head:
        head, _, factor_text = head.partition("*")
        head = head.strip()
        try:
            factor = float(factor_text)
            LoadScale.check_args(factor)
        except ValueError as exc:
            raise SpecError(f"bad load-scale factor {factor_text!r}: {exc}") from None
    if head not in SOURCES:
        raise SpecError(
            f"unknown workload source {head!r}; choose from {SOURCES}"
        )
    node: dict = {"source": head}
    if factor is not None:
        node = {"op": "scale", "args": [factor], "inner": node}
    for token in tokens[1:]:
        if not token:
            raise SpecError(f"empty transform token in {text!r}")
        op, *raw_args = token.split(":")
        op = op.strip()
        if op not in TRANSFORMS:
            raise SpecError(
                f"unknown transform {op!r}; choose from {sorted(TRANSFORMS)}"
            )
        node = {"op": op, "args": _parse_args(op, raw_args), "inner": node}
    return node


def _validate_term(node) -> dict:
    if not isinstance(node, dict):
        raise SpecError(f"pipeline node must be a dict, got {type(node).__name__}")
    if "source" in node:
        if node["source"] not in SOURCES:
            raise SpecError(
                f"unknown workload source {node['source']!r}; "
                f"choose from {SOURCES}"
            )
        return {"source": node["source"]}
    if "op" in node:
        op = node["op"]
        if op not in TRANSFORMS:
            raise SpecError(
                f"unknown transform {op!r}; choose from {sorted(TRANSFORMS)}"
            )
        if "inner" not in node:
            raise SpecError(f"transform node {op!r} is missing 'inner'")
        args = _parse_args(op, node.get("args", []))
        return {"op": op, "args": args, "inner": _validate_term(node["inner"])}
    if "merge" in node:
        raise SpecError(
            "merge may only appear at the top level of a pipeline spec"
        )
    raise SpecError(f"pipeline node needs 'source', 'op' or 'merge': {node!r}")


def parse_workload_spec(spec: str | dict) -> dict:
    """Parse a pipeline spec (grammar string or dict AST) into a
    validated, JSON-serializable AST."""
    if isinstance(spec, str):
        if not spec.strip():
            raise SpecError(f"empty workload spec {spec!r}")
        terms = [part.strip() for part in spec.split("+")]
        if not all(terms):
            raise SpecError(f"empty merge term in {spec!r}")
        parsed = [_parse_term_str(t) for t in terms]
    elif isinstance(spec, dict):
        if "merge" in spec:
            branches = spec["merge"]
            if not isinstance(branches, (list, tuple)) or len(branches) < 2:
                raise SpecError("'merge' needs a list of at least two terms")
            parsed = [_validate_term(t) for t in branches]
        else:
            parsed = [_validate_term(spec)]
    else:
        raise SpecError(
            f"workload spec must be a string or dict, got {type(spec).__name__}"
        )
    return parsed[0] if len(parsed) == 1 else {"merge": parsed}


def _fmt_arg(value) -> str:
    """Shortest round-trip rendering: repr() preserves every float bit
    (``%g`` would round to 6 significant digits and alias distinct
    pipelines onto one canonical string / cache key).  An exponent never
    carries a ``+``, which would split the spec into merge terms
    (``1e+16`` -> ``1e16``)."""
    if isinstance(value, int):
        return str(value)
    mantissa, plus, exponent = repr(float(value)).partition("e+")
    return f"{mantissa}e{exponent}" if plus else mantissa


def _term_to_str(node: dict) -> str:
    chain: list[str] = []
    while "op" in node:
        cls, _ = TRANSFORMS[node["op"]]
        args = ":".join(_fmt_arg(a) for a in node["args"])
        chain.append(f"{node['op']}:{args}" if args else node["op"])
        node = node["inner"]
    chain.append(node["source"])
    return " | ".join(reversed(chain))


def spec_to_str(ast: dict) -> str:
    """Render an AST in the canonical string grammar."""
    terms = ast["merge"] if "merge" in ast else [ast]
    return " + ".join(_term_to_str(t) for t in terms)


def canonical_workload(spec: str | dict) -> str:
    """Normalise any pipeline spec to its canonical string.

    A bare source canonicalises to its plain name (``"uniform"``), so
    untransformed workloads keep exactly the campaign cache keys they
    have always had.
    """
    if isinstance(spec, str) and spec in SOURCES:
        return spec
    return spec_to_str(parse_workload_spec(spec))


def is_pipeline_spec(workload: str) -> bool:
    """True when ``workload`` is a pipeline spec rather than a base name.

    A string without any pipeline syntax (``|``, ``+``, ``*``, ``:``)
    that is not a known source is *not* a pipeline -- callers keep their
    historical unknown-name error paths for plain strings.
    """
    return (isinstance(workload, str) and workload not in SOURCES
            and any(c in workload for c in "|+*:"))


def spec_is_deterministic(spec: str | dict) -> bool:
    """True when the pipeline's stream does not depend on the replication
    seed: every source is the deterministic trace replay and no
    seed-consuming transform (thin/jitter) appears."""
    ast = parse_workload_spec(spec)
    terms = ast["merge"] if "merge" in ast else [ast]
    for node in terms:
        while "op" in node:
            if node["op"] in _SEEDED_OPS:
                return False
            node = node["inner"]
        if node["source"] != "real":
            return False
    return True


def build_pipeline(
    spec: str | dict, make_source: Callable[[str], Workload]
) -> Workload:
    """Materialise a pipeline spec into a :class:`Workload`.

    ``make_source`` maps a base source name (``"real"``, ``"uniform"``,
    ``"exponential"``) to a concrete workload; the campaign layer closes
    it over the run config, offered load and trace.  Note that a merge of
    ``n`` sources each built at load ``L`` offers a total load of
    ``n * L``.  A bare-source spec returns ``make_source``'s workload
    untouched -- the identity pipeline is *the same object*, hence
    trivially bit-identical to today's behaviour.
    """
    ast = parse_workload_spec(spec)
    terms = ast["merge"] if "merge" in ast else [ast]
    salt = 0

    def build_term(node: dict) -> Workload:
        nonlocal salt
        if "source" in node:
            return make_source(node["source"])
        cls, _ = TRANSFORMS[node["op"]]
        inner = build_term(node["inner"])
        salt += 1
        return cls(inner, *node["args"], salt=salt)

    built = [build_term(t) for t in terms]
    return built[0] if len(built) == 1 else Merge(*built)
