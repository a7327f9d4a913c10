"""Stage-dependency jobs: the :class:`StageDAG` / :class:`DagJob` model.

The paper's DiAS engine models a job as a *linear* chain of map/reduce stage
pairs (:class:`~repro.engine.job.StageSpec` sequences).  Real multi-priority
engines — Spark/GraphX query plans, SQL physical plans, ML pipelines — execute
**stage DAGs**: a stage becomes runnable only once all of its parent stages
have completed, and independent branches run concurrently on the cluster's
slots.

:class:`DagStage` extends :class:`~repro.engine.job.StageSpec` with dependency
edges (``parents``), so everything that understands plain stages — the task
dropper, the accuracy model, the wave-time maths — keeps working unchanged on
DAG jobs.  :class:`StageDAG` validates the edge structure (existing parents,
no self-loops, acyclicity via Kahn's algorithm) and provides deterministic
topological iteration; a linear chain is just the special case where stage
``i`` depends on stage ``i − 1``.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heapify, heappop, heappush
from typing import Dict, Iterator, List, Sequence, Tuple

from repro.engine.execution import kept_task_times
from repro.engine.job import StageSpec
from repro.engine.profiles import JobClassProfile


@dataclass
class DagStage(StageSpec):
    """One map/reduce stage with dependency edges.

    ``parents`` lists the indices of the stages that must complete before this
    stage becomes runnable; an empty tuple marks a source stage.  ``name`` is
    a human-readable label (e.g. ``"shuffle-map-3"`` or ``"result"``).
    """

    parents: Tuple[int, ...] = ()
    name: str = ""

    def __post_init__(self) -> None:
        super().__post_init__()
        self.parents = tuple(int(p) for p in self.parents)
        if self.index in self.parents:
            raise ValueError(f"stage {self.index} cannot depend on itself")
        if len(set(self.parents)) != len(self.parents):
            raise ValueError(f"stage {self.index} lists a duplicate parent")


class StageDAG:
    """A validated DAG of :class:`DagStage` objects.

    Construction checks that stage indices are unique, that every parent
    reference resolves, and that the dependency graph is acyclic (Kahn's
    algorithm).  The topological order is deterministic: among simultaneously
    ready stages, lower indices come first.
    """

    def __init__(self, stages: Sequence[DagStage]) -> None:
        if not stages:
            raise ValueError("a DAG needs at least one stage")
        self._stages: Dict[int, DagStage] = {}
        for stage in stages:
            if stage.index in self._stages:
                raise ValueError(f"duplicate stage index {stage.index}")
            self._stages[stage.index] = stage
        self._children: Dict[int, List[int]] = {index: [] for index in self._stages}
        for stage in stages:
            for parent in stage.parents:
                if parent not in self._stages:
                    raise ValueError(
                        f"stage {stage.index} depends on unknown stage {parent}"
                    )
                self._children[parent].append(stage.index)
        for children in self._children.values():
            children.sort()
        self._order = self._topological_sort()

    # ------------------------------------------------------------ validation
    def _topological_sort(self) -> List[int]:
        indegree = {index: len(stage.parents) for index, stage in self._stages.items()}
        # Kahn's algorithm, always taking the smallest ready index next.
        ready = [index for index, degree in indegree.items() if degree == 0]
        heapify(ready)
        order: List[int] = []
        while ready:
            index = heappop(ready)
            order.append(index)
            for child in self._children[index]:
                indegree[child] -= 1
                if indegree[child] == 0:
                    heappush(ready, child)
        if len(order) != len(self._stages):
            cyclic = sorted(index for index, degree in indegree.items() if degree > 0)
            raise ValueError(f"stage dependencies contain a cycle involving {cyclic}")
        return order

    # -------------------------------------------------------------- topology
    @property
    def num_stages(self) -> int:
        return len(self._stages)

    @property
    def num_edges(self) -> int:
        return sum(len(stage.parents) for stage in self._stages.values())

    def stage(self, index: int) -> DagStage:
        return self._stages[index]

    @property
    def stages(self) -> List[DagStage]:
        """All stages in (deterministic) topological order."""
        return [self._stages[index] for index in self._order]

    def __iter__(self) -> Iterator[DagStage]:
        return iter(self.stages)

    def __len__(self) -> int:
        return len(self._stages)

    def topological_order(self) -> List[int]:
        return list(self._order)

    def parents(self, index: int) -> Tuple[int, ...]:
        return self._stages[index].parents

    def children(self, index: int) -> List[int]:
        return list(self._children[index])

    def sources(self) -> List[int]:
        """Stages with no parents, in index order."""
        return sorted(i for i, stage in self._stages.items() if not stage.parents)

    def sinks(self) -> List[int]:
        """Stages with no children, in index order."""
        return sorted(i for i, children in self._children.items() if not children)

    @property
    def is_linear_chain(self) -> bool:
        """True when the DAG degenerates to today's linear stage sequence."""
        order = self._order
        for position, index in enumerate(order):
            expected = (order[position - 1],) if position > 0 else ()
            if self._stages[index].parents != expected:
                return False
        return True

    # --------------------------------------------------------------- metrics
    def total_work(self) -> float:
        """Total slot-seconds of task work across all stages (no dropping)."""
        return sum(stage.total_work() for stage in self._stages.values())

    def depth(self) -> int:
        """Number of stages on the longest dependency chain (by count)."""
        depths: Dict[int, int] = {}
        for index in self._order:
            stage = self._stages[index]
            depths[index] = 1 + max((depths[p] for p in stage.parents), default=0)
        return max(depths.values())


@dataclass
class DagJob:
    """A concrete DAG-structured job instance submitted to the scheduler.

    Exposes the same surface :class:`~repro.engine.job.Job` offers where it
    matters — ``stages`` (in topological order), task counts, ``setup_time``,
    ``total_work`` — so the task dropper and the metrics layer work on DAG
    jobs without modification.
    """

    job_id: int
    priority: int
    arrival_time: float
    size_mb: float
    dag: StageDAG
    profile: JobClassProfile
    label: str = ""

    def __post_init__(self) -> None:
        if self.size_mb <= 0:
            raise ValueError("job size must be positive")

    @property
    def stages(self) -> List[DagStage]:
        """The job's stages in topological order (dropper-compatible view)."""
        return self.dag.stages

    @property
    def num_stages(self) -> int:
        return self.dag.num_stages

    @property
    def num_map_tasks(self) -> int:
        return sum(stage.num_map_tasks for stage in self.dag.stages)

    @property
    def num_reduce_tasks(self) -> int:
        return sum(stage.num_reduce_tasks for stage in self.dag.stages)

    def setup_time(self, drop_ratio: float = 0.0) -> float:
        """Setup/overhead time of this job under ``drop_ratio``."""
        return self.profile.setup_time(drop_ratio)

    def total_work(self) -> float:
        """Total slot-seconds of task work (no dropping, base frequency)."""
        return self.dag.total_work()

    def ideal_service_time(self, slots: int, drop_ratio: float = 0.0) -> float:
        """Cheap service-time estimate: critical path vs. work bound + setup.

        Like the linear :meth:`~repro.engine.job.Job.ideal_service_time`,
        ``drop_ratio`` prunes each droppable stage to its kept-task prefix
        before the bound is computed.  Used for load bookkeeping
        (``work_left``-style queries); the actual makespan depends on the
        stage scheduler and lies between this lower bound and the sequential
        sum of stage times.
        """
        from repro.dag.analytics import analyze_critical_path, stage_duration

        if slots <= 0:
            raise ValueError("slots must be positive")
        durations = None
        if drop_ratio > 0.0:
            durations = {
                stage.index: stage_duration(
                    stage,
                    slots,
                    map_durations=kept_task_times(
                        stage.map_task_times, stage, None, drop_ratio
                    ),
                )
                for stage in self.dag
            }
        analysis = analyze_critical_path(self.dag, slots, stage_durations=durations)
        return self.setup_time(drop_ratio) + analysis.lower_bound_makespan
