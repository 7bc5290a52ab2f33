"""Independent-replication controller with the paper's stopping rule.

"Simulation results are averaged over enough independent runs so that the
confidence level is 95% and the relative errors do not exceed 5%": run
replications with distinct seeds until every watched metric's 95% CI
half-width is within 5% of its mean (or a replication cap is reached).

:class:`ReplicationController` is the only driver of that rule.  It
hands out a warm-up batch of ``min_replications`` seeds, then one seed
per round, and evaluates the rule on the results fed back -- so the
campaign engine can run a batch on any executor and still check the
rule after every replication, exactly as a sequential loop would.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from repro.stats.ci import mean_confidence_interval, relative_error


@dataclass(frozen=True, slots=True)
class ReplicatedMetric:
    """One metric aggregated over replications."""

    name: str
    mean: float
    half_width: float
    relative_error: float
    values: tuple[float, ...]

    @property
    def n(self) -> int:
        """Number of replications observed."""
        return len(self.values)


@dataclass(frozen=True, slots=True)
class ReplicationResult:
    """All watched metrics plus convergence information."""

    metrics: Mapping[str, ReplicatedMetric]
    replications: int
    converged: bool

    def __getitem__(self, name: str) -> ReplicatedMetric:
        return self.metrics[name]

    def mean(self, name: str) -> float:
        """The replication mean of metric ``name``."""
        return self.metrics[name].mean


class ReplicationController:
    """Incremental stopping-rule evaluator for batched execution.

    Usage::

        ctrl = ReplicationController(metric_names, ...)
        while (seeds := ctrl.next_seeds()):
            ctrl.add_batch([run(seed) for seed in seeds])  # any order of
        result = ctrl.result()                             # execution

    ``next_seeds`` returns the ``min_replications`` warm-up batch first,
    then one further seed per call until the rule is met or
    ``max_replications`` have been issued, then ``()``.  Seeds are
    ``base_seed + replication_index`` -- a pure function of the
    constructor arguments, never of worker state, so any executor
    produces the same sample stream.  ``add_batch`` must receive each
    batch's results in seed order (the campaign engine collects a whole
    batch before feeding it back, which restores order even when workers
    finish out of order).
    """

    def __init__(
        self,
        metric_names: Sequence[str],
        min_replications: int = 3,
        max_replications: int = 20,
        confidence: float = 0.95,
        max_relative_error: float = 0.05,
        base_seed: int = 0,
    ) -> None:
        if min_replications < 1:
            raise ValueError("min_replications must be >= 1")
        if max_replications < min_replications:
            raise ValueError("max_replications must be >= min_replications")
        self._names = tuple(metric_names)
        self._min = min_replications
        self._max = max_replications
        self._confidence = confidence
        self._max_rel = max_relative_error
        self._base_seed = base_seed
        self._samples: dict[str, list[float]] = {m: [] for m in self._names}
        self._issued = 0
        self._completed = 0
        self._converged = False

    @property
    def completed(self) -> int:
        """Replications fed back so far."""
        return self._completed

    @property
    def converged(self) -> bool:
        """Whether the CI stopping rule has been satisfied."""
        return self._converged

    @property
    def finished(self) -> bool:
        """No more seeds will be issued (converged or cap reached)."""
        return self._completed >= self._issued and (
            self._converged or self._issued >= self._max
        )

    def next_seeds(self) -> tuple[int, ...]:
        """Seeds for the next batch; ``()`` once the point is finished."""
        if self._completed < self._issued:
            raise RuntimeError("previous batch not fed back yet")
        if self.finished:
            return ()
        n = self._min if self._issued == 0 else 1
        seeds = tuple(self._base_seed + i for i in range(self._issued, self._issued + n))
        self._issued += n
        return seeds

    def add_batch(self, results: Sequence[Mapping[str, float]]) -> None:
        """Record one batch of per-seed metric dicts, in seed order."""
        if self._completed + len(results) > self._issued:
            raise ValueError("more results than issued seeds")
        for result in results:
            for m in self._names:
                self._samples[m].append(float(result[m]))
        self._completed += len(results)
        if self._completed < self._min:
            return
        if self._min == 1 and self._max == 1:
            self._converged = True  # single deterministic run
            return
        worst = 0.0
        for m in self._names:
            mean, hw = mean_confidence_interval(self._samples[m], self._confidence)
            worst = max(worst, relative_error(mean, hw))
        if worst <= self._max_rel:
            self._converged = True

    def result(self) -> ReplicationResult:
        """Summarise every watched metric (means, CIs, convergence)."""
        metrics = {}
        for m in self._names:
            mean, hw = mean_confidence_interval(self._samples[m], self._confidence)
            metrics[m] = ReplicatedMetric(
                name=m,
                mean=mean,
                half_width=hw,
                relative_error=relative_error(mean, hw),
                values=tuple(self._samples[m]),
            )
        return ReplicationResult(
            metrics=metrics, replications=self._completed, converged=self._converged
        )

