"""One-pass DAG analysis equals the three-pass analysis it replaced, to the bit.

:func:`~repro.dag.analytics.analyze_critical_path` resolves each stage's
duration and its earliest times in one forward walk of the topological
order, and its latest finish and upward rank in one reverse walk.  It
replaced an analysis that resolved the durations and walked the DAG in
``analyze_critical_path``, then resolved them again and walked the DAG once
more in a separate ``upward_ranks``; :class:`DagExecution` resolved its kept
task durations a third time with a private ``_kept`` rule.  The reference
copies of those functions below are verbatim, and every field is compared
with ``==``: ``critical_path_first`` breaks rank ties by
``(-rank, ready_seq, index)`` and the traced goldens pin each attempt's
``cp``, ``cp_len`` and ``lb``, so no float may move by one ulp.
"""

from __future__ import annotations

from typing import Dict, List, Mapping, Optional, Sequence

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dag.analytics import analyze_critical_path, stage_duration
from repro.dag.execution import DagExecution
from repro.dag.graph import DagJob, DagStage, StageDAG
from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.job import effective_task_count
from repro.engine.profiles import JobClassProfile
from repro.simulation.des import Simulator
from repro.workloads.dag import chain_topology, fork_join_topology, layered_topology


# ------------------------------------------------- reference (three passes)
def _ref_resolve_durations(
    dag: StageDAG, slots: int, overrides: Optional[Mapping[int, float]]
) -> Dict[int, float]:
    durations: Dict[int, float] = {}
    for stage in dag:
        if overrides is not None and stage.index in overrides:
            durations[stage.index] = float(overrides[stage.index])
        else:
            durations[stage.index] = stage_duration(stage, slots)
    return durations


def _ref_analyze_critical_path(dag, slots, stage_durations=None) -> dict:
    durations = _ref_resolve_durations(dag, slots, stage_durations)

    earliest_start: Dict[int, float] = {}
    earliest_finish: Dict[int, float] = {}
    for index in dag.topological_order():
        start = max(
            (earliest_finish[p] for p in dag.parents(index)), default=0.0
        )
        earliest_start[index] = start
        earliest_finish[index] = start + durations[index]

    horizon = max(earliest_finish.values())
    latest_finish: Dict[int, float] = {}
    for index in reversed(dag.topological_order()):
        children = dag.children(index)
        if not children:
            latest_finish[index] = horizon
        else:
            latest_finish[index] = min(
                latest_finish[c] - durations[c] for c in children
            )
    slack = {
        index: latest_finish[index] - earliest_finish[index]
        for index in durations
    }

    tail = max(earliest_finish, key=lambda i: (earliest_finish[i], i))
    path: List[int] = [tail]
    while dag.parents(path[-1]):
        parents = dag.parents(path[-1])
        path.append(max(parents, key=lambda p: (earliest_finish[p], p)))
    path.reverse()

    return dict(
        slots=slots,
        durations=durations,
        earliest_start=earliest_start,
        earliest_finish=earliest_finish,
        latest_finish=latest_finish,
        slack=slack,
        critical_path=tuple(path),
        total_work=dag.total_work(),
    )


def _ref_upward_ranks(dag, slots, stage_durations=None) -> Dict[int, float]:
    analysis_durations = _ref_resolve_durations(dag, slots, stage_durations)
    ranks: Dict[int, float] = {}
    for index in reversed(dag.topological_order()):
        best_child = max((ranks[c] for c in dag.children(index)), default=0.0)
        ranks[index] = analysis_durations[index] + best_child
    return ranks


def _ref_kept(
    durations: Sequence[float],
    stage: DagStage,
    kept_indices: Optional[Mapping[int, Sequence[int]]],
    ratio: float,
) -> List[float]:
    if kept_indices is not None and stage.index in kept_indices:
        return [durations[i] for i in kept_indices[stage.index]]
    if not stage.droppable:
        return list(durations)
    keep = effective_task_count(len(durations), ratio)
    return list(durations[:keep])


# ----------------------------------------------------------------- inputs
_PROFILE = JobClassProfile(
    priority=0,
    name="prop",
    mean_size_mb=100.0,
    size_cv=0.0,
    partitions=4,
    reduce_tasks=1,
    map_time_per_100mb=10.0,
    reduce_time=1.0,
    setup_time_full=1.0,
    setup_time_min=0.5,
    shuffle_time=0.5,
    task_scv=0.0,
    max_accuracy_loss=0.5,
)

#: Inexact binary fractions, so sums round, plus a few exact values that
#: make durations, finishes and ranks tie.
_TIMES = st.one_of(
    st.sampled_from([0.5, 1.0, 2.0]),
    st.floats(0.01, 20.0, allow_nan=False, allow_infinity=False),
)


@st.composite
def _dags(draw) -> StageDAG:
    kind = draw(st.sampled_from(["layered", "fork_join", "chain"]))
    if kind == "chain":
        spec = chain_topology(draw(st.integers(1, 6)))
    elif kind == "fork_join":
        spec = fork_join_topology(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    else:
        rng = np.random.default_rng(draw(st.integers(0, 2**16)))
        spec = layered_topology(
            rng,
            num_layers=draw(st.integers(1, 5)),
            min_width=1,
            max_width=draw(st.integers(1, 4)),
            max_parents=draw(st.integers(1, 3)),
        )
    return StageDAG(
        [
            DagStage(
                index=index,
                map_task_times=draw(st.lists(_TIMES, min_size=1, max_size=8)),
                reduce_task_times=draw(st.lists(_TIMES, max_size=3)),
                shuffle_time=draw(st.sampled_from([0.0, 0.3, 0.5])),
                droppable=draw(st.booleans()),
                parents=parents,
            )
            for index, parents in spec
        ]
    )


def _overrides(draw, dag: StageDAG) -> Optional[Dict[int, float]]:
    """Kept-duration overrides for a random subset of stages, or none."""
    if not draw(st.booleans()):
        return None
    return {
        stage.index: draw(st.one_of(_TIMES, st.just(0.0), st.integers(0, 5)))
        for stage in dag
        if draw(st.booleans())
    }


def _kept_plan(draw, counts: Dict[int, int]) -> Optional[Dict[int, List[int]]]:
    plan = {}
    for index, count in counts.items():
        if draw(st.booleans()):
            plan[index] = sorted(
                draw(st.sets(st.integers(0, count - 1), max_size=count)) if count else []
            )
    return plan or None


def _assert_matches_reference(analysis, dag, slots, overrides) -> None:
    reference = _ref_analyze_critical_path(dag, slots, overrides)
    for name, expected in reference.items():
        assert getattr(analysis, name) == expected, name
    # Dict order too: consumers iterate these in topological order.
    assert list(analysis.durations) == list(reference["durations"])
    assert list(analysis.slack) == list(reference["slack"])
    assert analysis.ranks == _ref_upward_ranks(dag, slots, overrides)


# ------------------------------------------------------------------ tests
@given(data=st.data(), slots=st.integers(1, 8))
@settings(max_examples=150, deadline=None)
def test_analysis_equals_the_three_pass_reference(data, slots):
    dag = data.draw(_dags())
    overrides = _overrides(data.draw, dag)
    analysis = analyze_critical_path(dag, slots, stage_durations=overrides)
    _assert_matches_reference(analysis, dag, slots, overrides)


@given(data=st.data(), workers=st.integers(1, 4))
@settings(max_examples=80, deadline=None)
def test_execution_setup_equals_the_three_pass_reference(data, workers):
    """The one set-up loop keeps the same tasks, durations and ranks."""
    dag = data.draw(_dags())
    stages = dag.stages
    kept_maps = _kept_plan(data.draw, {s.index: s.num_map_tasks for s in stages})
    kept_reduces = _kept_plan(data.draw, {s.index: s.num_reduce_tasks for s in stages})
    map_ratio = data.draw(st.sampled_from([0.0, 0.2, 0.5, 0.9]))
    reduce_ratio = data.draw(st.sampled_from([0.0, 0.3]))
    cluster = Cluster(ClusterConfig(workers=workers, cores_per_worker=2))
    execution = DagExecution(
        Simulator(),
        cluster,
        DagJob(0, 0, 0.0, 100.0, dag, _PROFILE),
        scheduler="critical_path_first",
        map_drop_ratio=map_ratio,
        reduce_drop_ratio=reduce_ratio,
        kept_map_indices=kept_maps,
        kept_reduce_indices=kept_reduces,
    )

    slots = cluster.slots
    kept_durations: Dict[int, float] = {}
    for stage in dag:
        maps = _ref_kept(stage.map_task_times, stage, kept_maps, map_ratio)
        reduces = _ref_kept(stage.reduce_task_times, stage, kept_reduces, reduce_ratio)
        kept_durations[stage.index] = stage_duration(
            stage, slots, map_durations=maps, reduce_durations=reduces
        )
        run = execution.stage_run(stage.index)
        shuffle = [stage.shuffle_time] if stage.shuffle_time > 0 and reduces else []
        assert run.remaining_work() == sum(maps + shuffle + reduces)
    _assert_matches_reference(execution.analysis, dag, slots, kept_durations)
    ranks = _ref_upward_ranks(dag, slots, kept_durations)
    assert {s.index: execution.stage_run(s.index).rank for s in dag} == ranks
