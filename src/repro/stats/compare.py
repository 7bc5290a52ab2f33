"""Pairwise statistical comparison of replicated metrics.

The paper's conclusions are *pairwise* comparisons -- real vs. stochastic
workloads, allocator vs. allocator at matched loads -- so the repo needs a
first-class way to decide whether two replication summaries of one metric
actually differ.  This module supplies the three tools the diff subsystem
(:mod:`repro.experiments.diff`) classifies with:

* **Welch's t-test** (:func:`welch_t_test`) on two
  :class:`MetricSummary` objects (mean, unbiased variance, n -- exactly
  what the replication layer already carries), with the
  Welch--Satterthwaite degrees of freedom; its p-value is
  ``scipy.special.stdtr``, imported on the first call, so scipy loads
  only in the processes that compare reports;
* **CI overlap** (:func:`ci_overlap`): whether the two Student-t
  confidence intervals of the means intersect, the same intervals the
  replication stopping rule uses (:mod:`repro.stats.ci`);
* **relative-delta classification** (:func:`compare_metric`): the final
  verdict, one of :data:`IDENTICAL` / :data:`INDISTINGUISHABLE` /
  :data:`IMPROVED` / :data:`REGRESSED`.

Verdict semantics (B compared against baseline A):

* ``identical`` -- the means are float-equal, bit for bit.  Deterministic
  reruns of the same cell (same seeds, same engine) must land here; this
  is the golden-master criterion.
* ``indistinguishable`` -- the means differ but Welch's test cannot
  reject equality at ``alpha`` (or, for deterministic single-replication
  cells, the relative delta is within ``rel_tol``).
* ``improved`` / ``regressed`` -- the difference is significant, signed
  by each metric's orientation (:data:`HIGHER_IS_BETTER`; every other
  metric -- turnaround, service, latency, blocking, fragments -- is
  better when smaller).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

from repro.stats import ci as _ci

#: verdicts, worst first (the precedence order used to summarise a point)
REGRESSED = "regressed"
IMPROVED = "improved"
INDISTINGUISHABLE = "indistinguishable"
IDENTICAL = "identical"
VERDICTS: tuple[str, ...] = (REGRESSED, IMPROVED, INDISTINGUISHABLE, IDENTICAL)

#: metrics where larger values are better; all others are costs
HIGHER_IS_BETTER = frozenset({"utilization", "contiguity_rate"})


def worst_verdict(verdicts: Iterable[str]) -> str:
    """The most severe verdict present (``identical`` when empty)."""
    seen = set(verdicts)
    for v in VERDICTS:
        if v in seen:
            return v
    return IDENTICAL


@dataclass(frozen=True, slots=True)
class MetricSummary:
    """Replication summary of one metric: mean, unbiased variance, n.

    This is the sufficient statistic every comparison here consumes; it
    is what :class:`~repro.stats.replication.ReplicatedMetric` already
    knows.
    """

    mean: float
    variance: float
    n: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise ValueError(f"summary needs n >= 1, got {self.n}")
        if self.variance < 0:
            raise ValueError(f"variance must be >= 0, got {self.variance}")

    @classmethod
    def from_values(cls, values: Sequence[float]) -> "MetricSummary":
        """Two-pass mean/variance, the same estimates
        :func:`repro.stats.ci.mean_confidence_interval` uses."""
        mean, var = _ci.mean_variance(values)
        return cls(mean=mean, variance=var, n=len(values))

    def to_dict(self) -> dict:
        """JSON-serializable form (the report/store payload)."""
        return {"mean": self.mean, "variance": self.variance, "n": self.n}

    @classmethod
    def from_dict(cls, data: Mapping) -> "MetricSummary":
        """Adopt a :meth:`to_dict` payload (values coerced, validated)."""
        return cls(
            mean=float(data["mean"]),
            variance=float(data["variance"]),
            n=int(data["n"]),
        )

    # ------------------------------------------------------------ intervals
    def half_width(self, confidence: float = 0.95) -> float:
        """Student-t CI half-width of the mean (``inf`` for n < 2)."""
        return _ci.half_width(self.variance, self.n, confidence)

    def interval(self, confidence: float = 0.95) -> tuple[float, float]:
        """The Student-t confidence interval of the mean."""
        hw = self.half_width(confidence)
        return self.mean - hw, self.mean + hw


@dataclass(frozen=True, slots=True)
class WelchResult:
    """Welch's unequal-variance t-test of B - A."""

    t: float
    df: float
    p_value: float


def welch_t_test(a: MetricSummary, b: MetricSummary) -> WelchResult:
    """Two-sided Welch's t-test; ``t`` is signed as ``b.mean - a.mean``.

    Requires n >= 2 on both sides (no variance estimate exists
    otherwise).  When both sample variances are zero the test
    degenerates: equal means give ``t=0, p=1``, unequal means give
    ``t=+/-inf, p=0`` (two exact constants can only differ surely).
    The p-value comes from ``scipy.special.stdtr``, imported at the call:
    ``repro diff`` is the only caller, so a campaign never loads scipy.
    """
    if a.n < 2 or b.n < 2:
        raise ValueError("Welch's t-test needs n >= 2 on both sides")
    delta = b.mean - a.mean
    se2 = a.variance / a.n + b.variance / b.n
    if se2 == 0.0:
        if delta == 0.0:
            return WelchResult(t=0.0, df=float(a.n + b.n - 2), p_value=1.0)
        return WelchResult(
            t=math.copysign(math.inf, delta),
            df=float(a.n + b.n - 2),
            p_value=0.0,
        )
    t = delta / math.sqrt(se2)
    denom = (
        (a.variance / a.n) ** 2 / (a.n - 1)
        + (b.variance / b.n) ** 2 / (b.n - 1)
    )
    if denom == 0.0:
        # subnormal variances square to zero while se2 stays positive;
        # fall back to the most conservative (symmetric) df
        df = float(min(a.n, b.n) - 1)
    else:
        df = se2 * se2 / denom
    from scipy import special

    # stdtr(df, -|t|) is what scipy's Student-t distribution ``sf`` computes
    p = 2.0 * float(special.stdtr(df, -abs(t)))
    return WelchResult(t=t, df=df, p_value=min(p, 1.0))


def ci_overlap(
    a: MetricSummary, b: MetricSummary, confidence: float = 0.95
) -> bool:
    """Whether the two means' Student-t CIs intersect.

    Single-replication summaries have infinite half-width (no variance
    estimate), so they overlap everything -- consistent with
    :func:`repro.stats.ci.mean_confidence_interval`.
    """
    a_lo, a_hi = a.interval(confidence)
    b_lo, b_hi = b.interval(confidence)
    return a_lo <= b_hi and b_lo <= a_hi


def relative_delta(a: MetricSummary, b: MetricSummary) -> float:
    """``(b.mean - a.mean) / |a.mean|``, signed; ``+/-inf`` off a zero base."""
    delta = b.mean - a.mean
    if delta == 0.0:
        return 0.0
    if a.mean == 0.0:
        return math.copysign(math.inf, delta)
    return delta / abs(a.mean)


@dataclass(frozen=True, slots=True)
class MetricComparison:
    """One metric's A-vs-B comparison, fully evidenced."""

    metric: str
    a: MetricSummary
    b: MetricSummary
    delta: float  #: b.mean - a.mean
    relative_delta: float
    #: Welch two-sided p-value; ``None`` when no test was possible (n < 2)
    p_value: float | None
    #: CI-overlap evidence at 1 - alpha; ``None`` when not computed
    ci_overlap: bool | None
    verdict: str

    def to_dict(self) -> dict:
        """JSON-serializable form (the diff-report payload)."""
        return {
            "metric": self.metric,
            "a": self.a.to_dict(),
            "b": self.b.to_dict(),
            "delta": self.delta,
            "relative_delta": self.relative_delta,
            "p_value": self.p_value,
            "ci_overlap": self.ci_overlap,
            "verdict": self.verdict,
        }


def compare_metric(
    name: str,
    a: MetricSummary,
    b: MetricSummary,
    alpha: float = 0.05,
    rel_tol: float = 0.0,
    higher_is_better: bool | None = None,
) -> MetricComparison:
    """Classify metric ``name`` of B against baseline A.

    ``alpha`` is Welch's significance level; ``rel_tol`` is a relative
    dead band applied before any test (and the *only* criterion for
    deterministic cells, where n < 2 leaves nothing to test).  The
    default ``rel_tol=0.0`` makes deterministic comparisons exact: any
    bit of drift in a single-replication cell is a directional verdict.
    """
    if not 0 < alpha < 1:
        raise ValueError(f"alpha must be in (0, 1), got {alpha}")
    if not (math.isfinite(rel_tol) and rel_tol >= 0):
        raise ValueError(f"rel_tol must be finite and >= 0, got {rel_tol}")
    if higher_is_better is None:
        higher_is_better = name in HIGHER_IS_BETTER
    delta = b.mean - a.mean
    rel = relative_delta(a, b)
    p: float | None = None
    overlap: bool | None = None
    if delta == 0.0:
        verdict = IDENTICAL
    elif abs(rel) <= rel_tol:
        verdict = INDISTINGUISHABLE
    elif a.n >= 2 and b.n >= 2:
        test = welch_t_test(a, b)
        p = test.p_value
        overlap = ci_overlap(a, b, confidence=1.0 - alpha)
        if p >= alpha:
            verdict = INDISTINGUISHABLE
        else:
            better = (delta > 0) == higher_is_better
            verdict = IMPROVED if better else REGRESSED
    else:
        # deterministic / single replication: the delta is the evidence
        better = (delta > 0) == higher_is_better
        verdict = IMPROVED if better else REGRESSED
    return MetricComparison(
        metric=name,
        a=a,
        b=b,
        delta=delta,
        relative_delta=rel,
        p_value=p,
        ci_overlap=overlap,
        verdict=verdict,
    )
