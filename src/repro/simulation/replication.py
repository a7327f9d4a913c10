"""Replicated simulation runs with confidence intervals.

A single simulated trace gives point estimates of the mean/tail latencies; the
paper's bar charts are likewise single-run measurements.  For statements like
"DA(0,20) improves the low-priority mean latency by 60 %" it is useful to know
how tight that estimate is.  This module runs the same scenario/policy
combination over several independently seeded traces and aggregates the
per-replication metrics into means with Student-t confidence intervals.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Sequence


def replication_seed(base_seed: int, index: int) -> int:
    """Seed of the ``index``-th replication rooted at ``base_seed``.

    Seeds are spaced 1000 apart (plus the index itself, so distinct bases
    never collide across shifted windows).  Centralising the formula keeps
    serial and parallel execution — and every caller — on the *same* seed
    sequence, which is what makes common-random-number comparisons and
    bitwise serial/parallel equivalence possible.
    """
    return base_seed + 1000 * index + index


@dataclass(frozen=True)
class ConfidenceInterval:
    """A mean with a symmetric confidence half-width."""

    mean: float
    half_width: float
    confidence: float
    replications: int

    @property
    def lower(self) -> float:
        return self.mean - self.half_width

    @property
    def upper(self) -> float:
        return self.mean + self.half_width

    def contains(self, value: float) -> bool:
        return self.lower <= value <= self.upper

    @property
    def relative_half_width(self) -> float:
        """Half-width relative to the mean (nan for a zero mean)."""
        if self.mean == 0:
            return float("nan")
        return abs(self.half_width / self.mean)


def confidence_interval(
    samples: Sequence[float], confidence: float = 0.95
) -> ConfidenceInterval:
    """Student-t confidence interval of the mean of ``samples``."""
    if not samples:
        raise ValueError("at least one sample is required")
    if not 0.0 < confidence < 1.0:
        raise ValueError("confidence must be in (0, 1)")
    n = len(samples)
    mean = sum(samples) / n
    if n == 1:
        return ConfidenceInterval(mean=mean, half_width=float("inf"),
                                  confidence=confidence, replications=1)
    # Imported here: scipy.stats takes over a second to import, and only
    # replicated runs need it.
    from scipy import stats

    variance = sum((x - mean) ** 2 for x in samples) / (n - 1)
    std_error = math.sqrt(variance / n)
    t_value = float(stats.t.ppf(0.5 + confidence / 2.0, df=n - 1))
    return ConfidenceInterval(mean=mean, half_width=t_value * std_error,
                              confidence=confidence, replications=n)


@dataclass
class ReplicatedMetric:
    """A named metric aggregated over replications."""

    name: str
    samples: List[float] = field(default_factory=list)

    def add(self, value: float) -> None:
        self.samples.append(float(value))

    def interval(self, confidence: float = 0.95) -> ConfidenceInterval:
        return confidence_interval(self.samples, confidence)


class ReplicationRunner:
    """Runs a metric-producing experiment over several seeds and aggregates.

    The ``experiment`` callable receives a seed and returns a mapping of
    metric name to value (e.g. ``{"low_mean": 130.2, "high_mean": 58.1}``).

    A runner is single-use: calling :meth:`run` or :meth:`run_until_precise`
    a second time raises instead of silently mixing the metric samples of two
    different runs.  Call :meth:`reset` (or build a fresh runner) to reuse.

    Both entry points accept ``jobs``: with ``jobs > 1`` the independent
    replications fan out across a process pool (each replication is a pure
    function of its :func:`replication_seed`), and the collected metrics are
    bitwise-identical to a serial run because outcomes are folded back in
    replication-index order.
    """

    def __init__(self, experiment: Callable[[int], Dict[str, float]]) -> None:
        self.experiment = experiment
        self.metrics: Dict[str, ReplicatedMetric] = {}
        self._consumed = False

    def reset(self) -> None:
        """Discard collected metrics so the runner can be used again."""
        self.metrics = {}
        self._consumed = False

    def _claim(self) -> None:
        if self._consumed:
            raise RuntimeError(
                "this ReplicationRunner has already run; its metrics would mix "
                "samples from multiple runs — call reset() or create a new runner"
            )
        self._consumed = True

    def _record(self, outcome: Dict[str, float]) -> None:
        for name, value in outcome.items():
            self.metrics.setdefault(name, ReplicatedMetric(name)).add(value)

    def run(
        self, replications: int, base_seed: int = 0, jobs: int = 1
    ) -> Dict[str, ReplicatedMetric]:
        """Run ``replications`` independent experiments (``jobs`` in parallel)."""
        if replications <= 0:
            raise ValueError("replications must be positive")
        self._claim()
        from repro.experiments.parallel import parallel_map

        seeds = [replication_seed(base_seed, index) for index in range(replications)]
        for outcome in parallel_map(self.experiment, seeds, jobs=jobs):
            self._record(outcome)
        return self.metrics

    def intervals(self, confidence: float = 0.95) -> Dict[str, ConfidenceInterval]:
        """Confidence intervals of every collected metric."""
        return {name: metric.interval(confidence) for name, metric in self.metrics.items()}

    def run_until_precise(
        self,
        target_relative_half_width: float,
        metric: str,
        min_replications: int = 3,
        max_replications: int = 30,
        base_seed: int = 0,
        confidence: float = 0.95,
        jobs: int = 1,
    ) -> ConfidenceInterval:
        """Add replications until ``metric``'s relative half-width meets the target.

        With ``jobs > 1`` replications are evaluated in batches of ``jobs``,
        but the stopping rule is still applied sample-by-sample in replication
        order and surplus batch outcomes past the stopping point are
        discarded, so the returned interval (and every collected sample) is
        identical to a serial run.
        """
        if not 0.0 < target_relative_half_width < 1.0:
            raise ValueError("target_relative_half_width must be in (0, 1)")
        self._claim()
        from repro.experiments.parallel import parallel_map

        count = 0
        while True:
            batch_size = max(1, min(jobs, max_replications - count))
            seeds = [replication_seed(base_seed, count + k) for k in range(batch_size)]
            for outcome in parallel_map(self.experiment, seeds, jobs=jobs):
                self._record(outcome)
                count += 1
                if metric not in self.metrics:
                    raise KeyError(f"the experiment does not produce metric {metric!r}")
                if count >= min_replications:
                    interval = self.metrics[metric].interval(confidence)
                    if interval.relative_half_width <= target_relative_half_width:
                        return interval
                if count >= max_replications:
                    return self.metrics[metric].interval(confidence)
