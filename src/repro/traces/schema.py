"""Typed trace records: the in-memory schema every trace format parses into.

A trace is a sequence of :class:`TraceJob` records sorted by arrival time.
Each record carries exactly what the simulation layers need — arrival time,
priority class, dataset size, and per-stage task durations (plus DAG
adjacency for stage-DAG traces) — and nothing else, so a million-job trace
can stream through the replay engine one record at a time.

The bucketing helpers (:func:`classify_time`, :func:`classify_resources`,
:class:`TraceHistogram`) summarise a trace by job length and width the way
cluster-trace loaders bucket deferrable tasks by runtime and resource
demand; ``repro synth-trace`` prints the histogram so a synthesized trace
can be sanity-checked without replaying it.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import isfinite
from typing import Dict, Iterator, Tuple


class TraceFormatError(ValueError):
    """A trace file or record violates the trace-format contract."""


#: The most tasks one stage of a trace record may declare.  A record states
#: a task count in a few bytes, and the parsers materialise one duration per
#: task, so a larger count is rejected before anything is built.
MAX_TASKS_PER_STAGE = 100_000


def check_task_count(what: str, count: int) -> None:
    """Reject a declared task ``count`` above :data:`MAX_TASKS_PER_STAGE`."""
    if count > MAX_TASKS_PER_STAGE:
        raise TraceFormatError(
            f"{what} {count} exceeds the limit of {MAX_TASKS_PER_STAGE} tasks per stage"
        )


#: Job kinds: ``linear`` (a chain of map/reduce stages, replayed into the
#: fleet layer) and ``dag`` (stage-dependency jobs, replayed into the DAG
#: layer).
TRACE_KINDS = ("linear", "dag")

#: Job-length buckets over total task-seconds.  Cluster-trace loaders bucket
#: deferrable tasks by runtime hours; our simulated jobs live on a
#: seconds-to-minutes scale, so the edges are scaled accordingly.
TIME_BUCKETS: Tuple[Tuple[str, float], ...] = (
    ("0-30s", 30.0),
    ("30-120s", 120.0),
    ("2-10m", 600.0),
    ("10-60m", 3600.0),
    ("1h+", float("inf")),
)

#: Width buckets over the widest stage (slots the job can use at once),
#: mirroring the power-of-two resource buckets of deferrable-task loaders.
RESOURCE_BUCKETS: Tuple[Tuple[str, int], ...] = (
    ("1", 1),
    ("2", 2),
    ("3-4", 4),
    ("5-8", 8),
    ("9-16", 16),
    ("17-32", 32),
    ("33-64", 64),
    ("64+", 2**63),
)


def classify_time(task_seconds: float) -> str:
    """Length bucket for a job's total task-seconds."""
    if task_seconds < 0:
        raise ValueError("task_seconds must be non-negative")
    for label, upper in TIME_BUCKETS:
        if task_seconds <= upper:
            return label
    return TIME_BUCKETS[-1][0]


def classify_resources(width: int) -> str:
    """Resource bucket for a job's widest stage (parallel tasks)."""
    if width < 1:
        raise ValueError("width must be at least 1")
    for label, upper in RESOURCE_BUCKETS:
        if width <= upper:
            return label
    return RESOURCE_BUCKETS[-1][0]


@dataclass
class TraceTask:
    """One task of a trace record (flattened view of a stage)."""

    stage: int
    kind: str  # "map" | "reduce"
    duration: float


@dataclass
class TraceStage:
    """One stage of a trace record.

    ``map_durations``/``reduce_durations`` are base-frequency task durations
    in seconds; ``parents`` lists the stage indices this stage depends on
    (always empty for ``linear`` jobs, whose stages run in index order).
    """

    index: int
    map_durations: Tuple[float, ...]
    reduce_durations: Tuple[float, ...] = ()
    shuffle_time: float = 0.0
    droppable: bool = True
    parents: Tuple[int, ...] = ()

    def __post_init__(self) -> None:
        self.map_durations = tuple(float(t) for t in self.map_durations)
        self.reduce_durations = tuple(float(t) for t in self.reduce_durations)
        self.parents = tuple(int(p) for p in self.parents)
        if not self.map_durations:
            raise TraceFormatError(f"stage {self.index} has no map tasks")
        if any(t <= 0 for t in self.map_durations):
            raise TraceFormatError(f"stage {self.index} has a non-positive map duration")
        if any(t <= 0 for t in self.reduce_durations):
            raise TraceFormatError(f"stage {self.index} has a non-positive reduce duration")
        if not (
            all(map(isfinite, self.map_durations))
            and all(map(isfinite, self.reduce_durations))
        ):
            raise TraceFormatError(f"stage {self.index} task durations must be finite")
        if not isfinite(self.shuffle_time):
            raise TraceFormatError(f"stage {self.index} shuffle time must be finite")
        if self.shuffle_time < 0:
            raise TraceFormatError(f"stage {self.index} has a negative shuffle time")
        if self.index in self.parents:
            raise TraceFormatError(f"stage {self.index} depends on itself")
        if len(set(self.parents)) != len(self.parents):
            raise TraceFormatError(f"stage {self.index} lists a duplicate parent")

    @property
    def num_tasks(self) -> int:
        return len(self.map_durations) + len(self.reduce_durations)

    @property
    def width(self) -> int:
        """Widest wave of this stage (map and reduce waves never overlap)."""
        return max(len(self.map_durations), len(self.reduce_durations))

    def total_work(self) -> float:
        return float(sum(self.map_durations) + sum(self.reduce_durations))

    def tasks(self) -> Iterator[TraceTask]:
        for duration in self.map_durations:
            yield TraceTask(stage=self.index, kind="map", duration=duration)
        for duration in self.reduce_durations:
            yield TraceTask(stage=self.index, kind="reduce", duration=duration)


@dataclass
class TraceJob:
    """One job record of a trace, sorted by ``arrival_time`` within a file.

    Stages are stored in index order ``0..n-1``; for ``dag`` jobs the
    ``parents`` edges encode the adjacency (validated for referential
    integrity here, for acyclicity by
    :class:`~repro.dag.graph.StageDAG` at replay time).
    """

    job_id: int
    arrival_time: float
    priority: int
    size_mb: float
    stages: Tuple[TraceStage, ...]
    kind: str = "linear"

    def __post_init__(self) -> None:
        self.stages = tuple(self.stages)
        if self.kind not in TRACE_KINDS:
            raise TraceFormatError(
                f"job {self.job_id}: unknown kind {self.kind!r}; expected one of {TRACE_KINDS}"
            )
        if not isfinite(self.arrival_time):
            raise TraceFormatError(f"job {self.job_id}: arrival time must be finite")
        if self.arrival_time < 0:
            raise TraceFormatError(f"job {self.job_id}: negative arrival time")
        if self.priority < 0:
            raise TraceFormatError(f"job {self.job_id}: negative priority")
        if not (isfinite(self.size_mb) and self.size_mb > 0):
            raise TraceFormatError(f"job {self.job_id}: size_mb must be positive and finite")
        if not self.stages:
            raise TraceFormatError(f"job {self.job_id}: a job needs at least one stage")
        indices = tuple(stage.index for stage in self.stages)
        if indices != tuple(range(len(self.stages))):
            raise TraceFormatError(
                f"job {self.job_id}: stage indices must be 0..{len(self.stages) - 1} in order"
            )
        if self.kind == "linear":
            if any(stage.parents for stage in self.stages):
                raise TraceFormatError(
                    f"job {self.job_id}: linear jobs must not carry DAG edges"
                )
        else:
            for stage in self.stages:
                for parent in stage.parents:
                    if not 0 <= parent < len(self.stages):
                        raise TraceFormatError(
                            f"job {self.job_id}: stage {stage.index} depends on "
                            f"unknown stage {parent}"
                        )

    @property
    def num_stages(self) -> int:
        return len(self.stages)

    @property
    def num_tasks(self) -> int:
        return sum(stage.num_tasks for stage in self.stages)

    @property
    def max_width(self) -> int:
        return max(stage.width for stage in self.stages)

    def total_work(self) -> float:
        """Total slot-seconds of task work across all stages."""
        return sum(stage.total_work() for stage in self.stages)

    def tasks(self) -> Iterator[TraceTask]:
        for stage in self.stages:
            yield from stage.tasks()

    def time_bucket(self) -> str:
        return classify_time(self.total_work())

    def resource_bucket(self) -> str:
        return classify_resources(self.max_width)


class TraceHistogram:
    """Streaming per-bucket summary of a trace (constant memory).

    Accumulates per-priority job counts plus length/resource bucket counts
    while records stream past, so a million-job trace can be summarised
    without retaining a single record.
    """

    def __init__(self) -> None:
        self.jobs = 0
        self.horizon = 0.0
        self.total_work = 0.0
        self.by_priority: Dict[int, int] = {}
        self.by_time_bucket: Dict[str, int] = {}
        self.by_resource_bucket: Dict[str, int] = {}

    def add(self, job: TraceJob) -> None:
        self.jobs += 1
        if job.arrival_time > self.horizon:
            self.horizon = job.arrival_time
        self.total_work += job.total_work()
        self.by_priority[job.priority] = self.by_priority.get(job.priority, 0) + 1
        time_bucket = job.time_bucket()
        self.by_time_bucket[time_bucket] = self.by_time_bucket.get(time_bucket, 0) + 1
        resource_bucket = job.resource_bucket()
        self.by_resource_bucket[resource_bucket] = (
            self.by_resource_bucket.get(resource_bucket, 0) + 1
        )

    def format_table(self) -> str:
        """A small human-readable summary (``repro synth-trace`` output)."""
        lines = [
            f"jobs: {self.jobs}",
            f"horizon: {self.horizon:.1f} s",
            f"total work: {self.total_work:.0f} slot-s",
        ]
        if self.by_priority:
            parts = ", ".join(
                f"p{priority}: {count}" for priority, count in sorted(self.by_priority.items())
            )
            lines.append(f"per priority: {parts}")
        for title, counts, order in (
            ("length", self.by_time_bucket, [label for label, _ in TIME_BUCKETS]),
            ("width", self.by_resource_bucket, [label for label, _ in RESOURCE_BUCKETS]),
        ):
            if counts:
                parts = ", ".join(
                    f"{label}: {counts[label]}" for label in order if label in counts
                )
                lines.append(f"{title} buckets: {parts}")
        return "\n".join(lines)
