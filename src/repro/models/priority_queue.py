"""Response-time model for the multi-priority single-server queue.

The DiAS deflator needs, for every candidate drop-ratio assignment, the mean
(and ideally tail) response time of each priority class.  The paper uses
Horváth's exact MMAP[K]/PH[K]/1 analysis; this module provides the equivalent
capability for the arrival model actually used in the experiments (marked
Poisson arrivals):

* **Exact means** via classical M[K]/G/1 priority mean-value analysis
  (:mod:`repro.models.mg1`), parameterised by the first two moments of the
  per-class PH service times produced by the task-level or wave-level models.
* **Full distributions / tails** via a fast event-driven simulation of the
  MMAP[K]/PH[K]/1 queue, supporting non-preemptive priority (DiAS, NP),
  preemptive-restart (the paper's eviction baseline) and preemptive-resume.

The combination answers the same questions the paper's Fig. 5 answers: how do
mean/tail response times of each class move as the drop ratio changes?
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass, field
from typing import Deque, Dict, List, Mapping, Optional, Sequence

import numpy as np

from repro.models.mg1 import (
    ServiceMoments,
    nonpreemptive_priority_response_times,
    preemptive_resume_response_times,
    total_utilisation,
)
from repro.models.ph import PhaseType

#: Supported scheduling disciplines for the model-level queue.
DISCIPLINES = ("nonpreemptive", "preemptive_resume", "preemptive_restart")


@dataclass
class PriorityClassInput:
    """One priority class of the queueing model.

    ``service`` is the PH distribution of this class's job processing time
    (typically produced by the task-level or wave-level model at the class's
    drop ratio and sprint setting).
    """

    priority: int
    arrival_rate: float
    service: PhaseType

    def __post_init__(self) -> None:
        if self.arrival_rate < 0:
            raise ValueError("arrival rate must be non-negative")

    @property
    def moments(self) -> ServiceMoments:
        return ServiceMoments(
            mean=self.service.mean, second_moment=self.service.second_moment
        )

    @property
    def load(self) -> float:
        return self.arrival_rate * self.service.mean


class PriorityQueueModel:
    """Multi-priority single-server queue with Poisson arrivals and PH service."""

    def __init__(self, classes: Sequence[PriorityClassInput]) -> None:
        if not classes:
            raise ValueError("at least one priority class is required")
        priorities = [c.priority for c in classes]
        if len(set(priorities)) != len(priorities):
            raise ValueError("priority values must be unique")
        self.classes = {c.priority: c for c in classes}

    # ------------------------------------------------------------ analytics
    def _rates(self) -> Dict[int, float]:
        return {p: c.arrival_rate for p, c in self.classes.items()}

    def _moments(self) -> Dict[int, ServiceMoments]:
        return {p: c.moments for p, c in self.classes.items()}

    def utilisation(self) -> float:
        """Offered load ``ρ``."""
        return total_utilisation(self._rates(), self._moments())

    def mean_response_times(self, discipline: str = "nonpreemptive") -> Dict[int, float]:
        """Exact mean response time per class (Poisson arrivals).

        ``preemptive_restart`` has no simple closed form; the preemptive-resume
        result is returned as an optimistic lower bound for it (the restart
        discipline wastes strictly more work), which is how the deflator uses
        it — any drop ratio that beats the resume bound certainly beats the
        restart baseline.
        """
        if discipline not in DISCIPLINES:
            raise ValueError(f"unknown discipline {discipline!r}")
        if discipline == "nonpreemptive":
            return nonpreemptive_priority_response_times(self._rates(), self._moments())
        return preemptive_resume_response_times(self._rates(), self._moments())

    def mean_waiting_times(self, discipline: str = "nonpreemptive") -> Dict[int, float]:
        responses = self.mean_response_times(discipline)
        return {p: responses[p] - self.classes[p].service.mean for p in responses}

    # ------------------------------------------------------------ simulation
    def simulate(
        self,
        horizon: float,
        rng: Optional[np.random.Generator] = None,
        discipline: str = "nonpreemptive",
        warmup_fraction: float = 0.1,
    ) -> Dict[int, List[float]]:
        """Simulate the queue and return per-class response-time samples.

        Jobs arriving during the warm-up window are excluded from the returned
        samples so steady-state estimates are not biased by the empty start.
        """
        if discipline not in DISCIPLINES:
            raise ValueError(f"unknown discipline {discipline!r}")
        if horizon <= 0:
            raise ValueError("horizon must be positive")
        rng = rng if rng is not None else np.random.default_rng(0)

        # Pre-sample arrivals per class and merge.
        arrivals: List[tuple] = []
        for priority, cls in self.classes.items():
            if cls.arrival_rate <= 0:
                continue
            t = 0.0
            while True:
                t += rng.exponential(1.0 / cls.arrival_rate)
                if t >= horizon:
                    break
                arrivals.append((t, priority))
        arrivals.sort()

        warmup = horizon * warmup_fraction
        samples: Dict[int, List[float]] = {p: [] for p in self.classes}

        # Queue state: one FIFO deque per priority; the in-service job.
        queues: Dict[int, Deque[dict]] = {p: deque() for p in self.classes}
        in_service: Optional[dict] = None
        service_end = 0.0
        now = 0.0
        index = 0

        def sample_service(priority: int) -> float:
            return float(self.classes[priority].service.sample(rng, 1)[0])

        def pick_next() -> Optional[dict]:
            for priority in sorted(queues, reverse=True):
                if queues[priority]:
                    return queues[priority].popleft()
            return None

        while index < len(arrivals) or in_service is not None or any(queues.values()):
            next_arrival = arrivals[index][0] if index < len(arrivals) else float("inf")
            next_completion = service_end if in_service is not None else float("inf")
            if next_arrival == float("inf") and next_completion == float("inf"):
                break
            if next_arrival <= next_completion:
                now = next_arrival
                _, priority = arrivals[index]
                index += 1
                job = {
                    "priority": priority,
                    "arrival": now,
                    "remaining": sample_service(priority),
                    "original": None,
                }
                job["original"] = job["remaining"]
                if in_service is None:
                    in_service = job
                    service_end = now + job["remaining"]
                elif (
                    discipline in ("preemptive_resume", "preemptive_restart")
                    and priority > in_service["priority"]
                ):
                    # Preempt the job in service.
                    if discipline == "preemptive_resume":
                        in_service["remaining"] = service_end - now
                    else:
                        in_service["remaining"] = in_service["original"]
                    queues[in_service["priority"]].appendleft(in_service)
                    in_service = job
                    service_end = now + job["remaining"]
                else:
                    queues[priority].append(job)
            else:
                now = next_completion
                finished = in_service
                in_service = None
                if finished is not None and finished["arrival"] >= warmup:
                    samples[finished["priority"]].append(now - finished["arrival"])
                nxt = pick_next()
                if nxt is not None:
                    in_service = nxt
                    service_end = now + nxt["remaining"]
        return samples

    def simulated_summary(
        self,
        horizon: float,
        rng: Optional[np.random.Generator] = None,
        discipline: str = "nonpreemptive",
        percentile_q: float = 95.0,
    ) -> Dict[int, Dict[str, float]]:
        """Mean and tail response time per class from one simulation run."""
        samples = self.simulate(horizon, rng=rng, discipline=discipline)
        summary: Dict[int, Dict[str, float]] = {}
        for priority, values in samples.items():
            if values:
                ordered = sorted(values)
                idx = min(len(ordered) - 1, int(round((percentile_q / 100.0) * (len(ordered) - 1))))
                summary[priority] = {
                    "mean": sum(values) / len(values),
                    "tail": ordered[idx],
                    "count": float(len(values)),
                }
            else:
                summary[priority] = {"mean": float("nan"), "tail": float("nan"), "count": 0.0}
        return summary
