"""Critical-path and slack analytics for stage DAGs.

Classic PERT-style analysis over a :class:`~repro.dag.graph.StageDAG`:

* the *duration* of a stage on ``C`` slots is its wave-scheduled makespan
  (map waves + shuffle + reduce waves, the same LPT bound the linear engine
  uses);
* forward pass → earliest start/finish per stage, whose maximum is the
  **critical-path length**: no stage scheduler can finish the DAG faster;
* backward pass → latest finish and per-stage **slack** (how long a stage may
  be delayed without stretching the critical path), and each stage's
  HEFT-style **upward rank** (its longest remaining path to a sink);
* the **lower-bound makespan** combines the critical path with the total-work
  bound ``Σ work / C`` — whichever binds.

All of it comes from one forward and one reverse walk of the topological
order, into one :class:`CriticalPathAnalysis`.  The ranks feed the
``critical_path_first`` stage scheduler, which gives free slots to the ready
stage with the longest remaining path.  The slack feeds
:func:`slack_biased_drop_ratios`, which shifts a class's task dropping toward
off-critical-path stages so approximation costs accuracy, not latency.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dag.graph import DagStage, StageDAG
from repro.engine.job import wave_time


def stage_duration(
    stage: DagStage,
    slots: int,
    map_durations: Optional[Sequence[float]] = None,
    reduce_durations: Optional[Sequence[float]] = None,
) -> float:
    """Wave-scheduled makespan of one stage on ``slots`` slots.

    Kept task durations may be passed explicitly (after dropping); the shuffle
    counts only when the stage actually runs reduce tasks, matching
    :func:`~repro.engine.execution.build_phases`.
    """
    if slots <= 0:
        raise ValueError("slots must be positive")
    maps = stage.map_task_times if map_durations is None else map_durations
    reduces = stage.reduce_task_times if reduce_durations is None else reduce_durations
    total = wave_time(maps, slots)
    if reduces:
        if stage.shuffle_time > 0:
            total += stage.shuffle_time
        total += wave_time(reduces, slots)
    return total


@dataclass
class CriticalPathAnalysis:
    """The full forward/backward pass over one DAG."""

    slots: int
    durations: Dict[int, float]
    earliest_start: Dict[int, float]
    earliest_finish: Dict[int, float]
    latest_finish: Dict[int, float]
    slack: Dict[int, float]
    critical_path: Tuple[int, ...]
    total_work: float
    #: HEFT-style upward rank per stage: the longest remaining path from the
    #: stage to a sink, ``duration[s] + max(rank[child])``.  The
    #: ``critical_path_first`` scheduler gives free slots to the ready stage
    #: with the highest rank.
    ranks: Dict[int, float]

    @property
    def critical_path_length(self) -> float:
        """Length of the longest dependency chain (seconds)."""
        return max(self.earliest_finish.values()) if self.earliest_finish else 0.0

    @property
    def work_bound(self) -> float:
        """Total task work divided by the slot count."""
        return self.total_work / self.slots

    @property
    def lower_bound_makespan(self) -> float:
        """No schedule on ``slots`` slots can beat this makespan."""
        return max(self.critical_path_length, self.work_bound)

    def is_critical(self, index: int, tolerance: float = 1e-9) -> bool:
        return self.slack[index] <= tolerance


def analyze_critical_path(
    dag: StageDAG,
    slots: int,
    stage_durations: Optional[Mapping[int, float]] = None,
) -> CriticalPathAnalysis:
    """Run the PERT forward/backward pass over ``dag`` on ``slots`` slots.

    ``stage_durations`` overrides the per-stage wave durations (e.g. to
    analyse the DAG *after* task dropping); by default each stage's full task
    list is used.  The forward pass resolves each stage's duration and its
    earliest start and finish; the reverse pass its latest finish and its
    upward rank.
    """
    order = dag.topological_order()
    durations: Dict[int, float] = {}
    earliest_start: Dict[int, float] = {}
    earliest_finish: Dict[int, float] = {}
    for index in order:
        stage = dag.stage(index)
        if stage_durations is not None and index in stage_durations:
            duration = float(stage_durations[index])
        else:
            duration = stage_duration(stage, slots)
        durations[index] = duration
        start = max((earliest_finish[p] for p in stage.parents), default=0.0)
        earliest_start[index] = start
        earliest_finish[index] = start + duration

    horizon = max(earliest_finish.values())
    latest_finish: Dict[int, float] = {}
    ranks: Dict[int, float] = {}
    for index in reversed(order):
        children = dag.children(index)
        latest_finish[index] = min(
            (latest_finish[c] - durations[c] for c in children), default=horizon
        )
        ranks[index] = durations[index] + max(
            (ranks[c] for c in children), default=0.0
        )
    slack = {
        index: latest_finish[index] - earliest_finish[index]
        for index in durations
    }

    # Walk the path backwards from the latest-finishing sink, at each step
    # following the parent that determined the earliest start.
    tail = max(earliest_finish, key=lambda i: (earliest_finish[i], i))
    path: List[int] = [tail]
    while dag.parents(path[-1]):
        parents = dag.parents(path[-1])
        path.append(max(parents, key=lambda p: (earliest_finish[p], p)))
    path.reverse()

    return CriticalPathAnalysis(
        slots=slots,
        durations=durations,
        earliest_start=earliest_start,
        earliest_finish=earliest_finish,
        latest_finish=latest_finish,
        slack=slack,
        critical_path=tuple(path),
        total_work=dag.total_work(),
        ranks=ranks,
    )


def observed_critical_path(
    finish_times: Mapping[int, float],
    parents: Mapping[int, Sequence[int]],
) -> Tuple[int, ...]:
    """Reconstruct the *observed* critical path from measured stage finishes.

    The PERT pass above predicts the critical path from estimated durations;
    this is its a-posteriori counterpart over what actually happened — e.g.
    per-stage finish times recovered from trace spans.  Starting at the
    last-finishing stage, each step follows the parent that finished last
    (the dependency that actually gated the stage's start).  Ties break on
    the higher stage index, matching :func:`analyze_critical_path`.
    """
    if not finish_times:
        return ()
    tail = max(finish_times, key=lambda i: (finish_times[i], i))
    path: List[int] = [tail]
    while True:
        observed_parents = [
            p for p in parents.get(path[-1], ()) if p in finish_times
        ]
        if not observed_parents:
            break
        path.append(max(observed_parents, key=lambda p: (finish_times[p], p)))
    path.reverse()
    return tuple(path)


def slack_biased_drop_ratios(
    dag: StageDAG,
    base_ratio: float,
    slots: int,
    bias: float = 1.0,
    max_ratio: float = 0.9,
) -> Dict[int, float]:
    """Per-stage drop ratios that shift dropping off the critical path.

    The uniform policy drops ``base_ratio`` of every droppable stage's tasks.
    Here, each droppable stage's ratio is reweighted by its slack while the
    task-weighted mean ratio (the class's accuracy budget) stays fixed.  With
    ``bias > 0`` zero-slack (critical) stages drop *less* and high-slack
    stages drop *more*: in the slot-constrained (work-bound) regime — where
    total work over ``C`` slots, not the critical path, determines the
    makespan — shifting drops off the critical path costs no latency and
    leaves the longest dependency chain's tasks intact, so the schedule stays
    robust when task-time estimates err.  ``bias < 0`` inverts the weighting
    (concentrate dropping *on* the critical path), which shortens the
    critical-path bound directly and is the latency-optimal choice when the
    critical path binds.

    ``bias`` controls the strength (0 = uniform); ratios are clamped to
    ``[0, max_ratio]``.
    """
    if not 0.0 <= base_ratio < 1.0:
        raise ValueError("base_ratio must be in [0, 1)")
    droppable = [stage for stage in dag if stage.droppable]
    ratios: Dict[int, float] = {
        stage.index: 0.0 for stage in dag if not stage.droppable
    }
    if not droppable or base_ratio == 0.0:
        ratios.update({stage.index: base_ratio for stage in droppable})
        return ratios

    analysis = analyze_critical_path(dag, slots)
    max_slack = max(analysis.slack[stage.index] for stage in droppable)
    if max_slack <= 0.0:
        # Fully serial DAG: no off-critical work to shift onto.
        ratios.update({stage.index: base_ratio for stage in droppable})
        return ratios

    weights = {
        stage.index: max(
            0.0, 1.0 + bias * (analysis.slack[stage.index] / max_slack - 0.5)
        )
        for stage in droppable
    }
    # Normalise so the task-weighted mean ratio matches the uniform policy.
    work = {stage.index: stage.total_work() for stage in droppable}
    total_work = sum(work.values())
    weighted = sum(weights[i] * work[i] for i in weights)
    if weighted <= 0 or total_work <= 0:
        ratios.update({stage.index: base_ratio for stage in droppable})
        return ratios
    scale = total_work / weighted
    for stage in droppable:
        ratios[stage.index] = min(
            max_ratio, max(0.0, base_ratio * weights[stage.index] * scale)
        )
    return ratios
