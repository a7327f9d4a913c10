"""Job and stage descriptions plus the job factory.

A :class:`Job` is a concrete, fully sampled unit of work: its dataset size,
its per-task base-frequency durations for each stage, and its setup/shuffle
costs.  Jobs are produced by a :class:`JobFactory` from a
:class:`~repro.engine.profiles.JobClassProfile`, with all randomness drawn
from named :class:`~repro.simulation.random_streams.RandomStreams` so that
different scheduling policies can be compared on *identical* job sequences
(common random numbers), which is how the paper's relative-difference plots
are computed.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from heapq import heapreplace
from typing import List, Optional, Sequence

import numpy as np

from repro.engine.profiles import JobClassProfile
from repro.simulation.random_streams import RandomStreams


@dataclass
class StageSpec:
    """One map/reduce stage pair of a job.

    ``map_task_times`` and ``reduce_task_times`` hold base-frequency durations
    of every task *before* any dropping; the drop plan selects which of them
    are actually executed.  ``droppable`` marks stages eligible for task
    dropping (the GraphX triangle-count Result stage, for example, is not).
    """

    index: int
    map_task_times: List[float]
    reduce_task_times: List[float]
    shuffle_time: float
    droppable: bool = True

    def __post_init__(self) -> None:
        if any(t <= 0 for t in self.map_task_times):
            raise ValueError("map task durations must be positive")
        if any(t <= 0 for t in self.reduce_task_times):
            raise ValueError("reduce task durations must be positive")
        if self.shuffle_time < 0:
            raise ValueError("shuffle time must be non-negative")

    @property
    def num_map_tasks(self) -> int:
        return len(self.map_task_times)

    @property
    def num_reduce_tasks(self) -> int:
        return len(self.reduce_task_times)

    def total_work(self) -> float:
        """Total slot-seconds of task work in this stage (no dropping)."""
        return float(sum(self.map_task_times) + sum(self.reduce_task_times))


@dataclass
class Job:
    """A concrete job instance submitted to the scheduler."""

    job_id: int
    priority: int
    arrival_time: float
    size_mb: float
    stages: List[StageSpec]
    profile: JobClassProfile
    label: str = ""

    def __post_init__(self) -> None:
        if not self.stages:
            raise ValueError("a job needs at least one stage")
        if self.size_mb <= 0:
            raise ValueError("job size must be positive")

    @property
    def num_map_tasks(self) -> int:
        return sum(stage.num_map_tasks for stage in self.stages)

    @property
    def num_reduce_tasks(self) -> int:
        return sum(stage.num_reduce_tasks for stage in self.stages)

    def setup_time(self, drop_ratio: float = 0.0) -> float:
        """Setup/overhead time of this job under ``drop_ratio``."""
        return self.profile.setup_time(drop_ratio)

    def total_work(self) -> float:
        """Total slot-seconds of task work (no dropping, base frequency)."""
        return sum(stage.total_work() for stage in self.stages)

    def ideal_service_time(self, slots: int, drop_ratio: float = 0.0) -> float:
        """Wave-approximation service time of *this* job instance.

        Unlike :meth:`JobClassProfile.mean_service_time` this uses the job's
        actual sampled task durations.
        """
        if slots <= 0:
            raise ValueError("slots must be positive")
        total = self.setup_time(drop_ratio)
        for stage in self.stages:
            kept_maps = effective_task_count(stage.num_map_tasks, drop_ratio if stage.droppable else 0.0)
            map_times = sorted(stage.map_task_times, reverse=True)[:kept_maps]
            total += wave_time(map_times, slots)
            total += stage.shuffle_time
            total += wave_time(stage.reduce_task_times, slots)
        return total


def effective_task_count(task_count: int, drop_ratio: float) -> int:
    """Number of tasks kept after dropping: ``⌈n(1 − θ)⌉`` (§3.3, §4.1)."""
    if task_count < 0:
        raise ValueError("task count must be non-negative")
    if not 0.0 <= drop_ratio <= 1.0:
        raise ValueError("drop ratio must be in [0, 1]")
    if task_count == 0:
        return 0
    return max(0, math.ceil(task_count * (1.0 - drop_ratio)))


def wave_time(durations: Sequence[float], slots: int) -> float:
    """Makespan of ``durations`` scheduled greedily (LPT) on ``slots`` slots."""
    if not durations:
        return 0.0
    if len(durations) <= slots:
        # One task per slot, each starting at 0.0: the heap below would end
        # with every load equal to one duration.
        return float(max(durations))
    # (load, slot) heap: ties go to the lowest slot, so which durations each
    # slot sums, and in which order, is fixed and the result is reproducible.
    finish = [(0.0, slot) for slot in range(slots)]
    for duration in sorted(durations, reverse=True):
        load, slot = finish[0]
        heapreplace(finish, (load + duration, slot))
    return max(finish)[0]


class JobFactory:
    """Samples concrete :class:`Job` instances from class profiles."""

    def __init__(self, streams: RandomStreams) -> None:
        self._streams = streams
        self._ids = itertools.count()

    def next_job_id(self) -> int:
        return next(self._ids)

    def sample_size_mb(self, profile: JobClassProfile) -> float:
        """Draw a dataset size (lognormal with the profile's mean and CV)."""
        rng = self._streams.stream(f"size/priority{profile.priority}")
        if profile.size_cv <= 0:
            return profile.mean_size_mb
        sigma2 = math.log(1.0 + profile.size_cv**2)
        mu = math.log(profile.mean_size_mb) - sigma2 / 2.0
        return float(rng.lognormal(mean=mu, sigma=math.sqrt(sigma2)))

    def create_job(
        self,
        profile: JobClassProfile,
        arrival_time: float,
        size_mb: Optional[float] = None,
        label: str = "",
    ) -> Job:
        """Create one job: sample size, then per-stage task durations."""
        size = self.sample_size_mb(profile) if size_mb is None else float(size_mb)
        task_rng = self._streams.stream(f"tasks/priority{profile.priority}")
        straggler_rng = self._streams.stream(f"stragglers/priority{profile.priority}")
        map_model = profile.map_time_model(size)
        reduce_model = profile.reduce_time_model()
        stages: List[StageSpec] = []
        for stage_index in range(profile.num_stages):
            map_times = self._inject_stragglers(
                map_model.sample(task_rng, profile.partitions), profile, straggler_rng
            )
            reduce_times = self._inject_stragglers(
                reduce_model.sample(task_rng, profile.reduce_tasks), profile, straggler_rng
            )
            stages.append(
                StageSpec(
                    index=stage_index,
                    map_task_times=[float(t) for t in map_times],
                    reduce_task_times=[float(t) for t in reduce_times],
                    shuffle_time=profile.shuffle_time,
                )
            )
        return Job(
            job_id=self.next_job_id(),
            priority=profile.priority,
            arrival_time=float(arrival_time),
            size_mb=size,
            stages=stages,
            profile=profile,
            label=label or profile.name,
        )

    @staticmethod
    def _inject_stragglers(
        durations: np.ndarray, profile: JobClassProfile, rng: np.random.Generator
    ) -> np.ndarray:
        """Slow down a random subset of tasks (failure/slow-node injection)."""
        if profile.straggler_probability <= 0 or durations.size == 0:
            return durations
        mask = rng.uniform(size=durations.size) < profile.straggler_probability
        if not mask.any():
            return durations
        inflated = durations.copy()
        inflated[mask] = inflated[mask] * profile.straggler_slowdown
        return inflated
