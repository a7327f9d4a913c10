"""Tests for critical-path/slack analytics and slack-biased dropping."""

from __future__ import annotations

import pytest

from repro.dag.analytics import (
    analyze_critical_path,
    slack_biased_drop_ratios,
    stage_duration,
)
from repro.dag.graph import DagStage, StageDAG


def stage(index, parents=(), maps=(1.0,), reduces=(), shuffle=0.0, droppable=True):
    return DagStage(
        index=index,
        map_task_times=list(maps),
        reduce_task_times=list(reduces),
        shuffle_time=shuffle,
        droppable=droppable,
        parents=tuple(parents),
    )


def unbalanced() -> StageDAG:
    """0 → 1 → 3 (long chain) and 0 → 2 → 3 (short chain)."""
    return StageDAG(
        [
            stage(0, maps=(2.0,)),
            stage(1, parents=(0,), maps=(10.0,)),
            stage(2, parents=(0,), maps=(1.0,)),
            stage(3, parents=(1, 2), maps=(3.0,)),
        ]
    )


# ---------------------------------------------------------- stage duration
def test_stage_duration_waves_and_shuffle():
    s = stage(0, maps=(2.0, 2.0, 2.0), reduces=(1.0,), shuffle=0.5)
    # 2 slots: maps take two waves (4.0), plus shuffle and the reduce.
    assert stage_duration(s, slots=2) == pytest.approx(4.0 + 0.5 + 1.0)
    # Plenty of slots: one map wave.
    assert stage_duration(s, slots=10) == pytest.approx(2.0 + 0.5 + 1.0)


def test_stage_duration_skips_shuffle_without_reduces():
    s = stage(0, maps=(2.0,), reduces=(1.0,), shuffle=0.5)
    assert stage_duration(s, slots=4, reduce_durations=[]) == pytest.approx(2.0)


def test_stage_duration_rejects_bad_slots():
    with pytest.raises(ValueError):
        stage_duration(stage(0), slots=0)


# ------------------------------------------------------------ forward pass
def test_critical_path_on_unbalanced_diamond():
    analysis = analyze_critical_path(unbalanced(), slots=4)
    assert analysis.critical_path == (0, 1, 3)
    assert analysis.critical_path_length == pytest.approx(15.0)
    assert analysis.earliest_start[3] == pytest.approx(12.0)
    # The off-critical stage has slack equal to the branch difference.
    assert analysis.slack[2] == pytest.approx(9.0)
    assert analysis.slack[0] == pytest.approx(0.0)
    assert analysis.slack[1] == pytest.approx(0.0)
    assert analysis.is_critical(0) and analysis.is_critical(1) and analysis.is_critical(3)
    assert not analysis.is_critical(2)


def test_lower_bound_is_at_least_longest_stage():
    dag = unbalanced()
    analysis = analyze_critical_path(dag, slots=4)
    longest_stage = max(stage_duration(s, 4) for s in dag)
    assert analysis.lower_bound_makespan >= longest_stage
    assert analysis.lower_bound_makespan >= analysis.work_bound


def test_work_bound_dominates_when_slots_scarce():
    dag = StageDAG([stage(0, maps=(1.0,) * 8), stage(1, maps=(1.0,) * 8)])
    analysis = analyze_critical_path(dag, slots=1)
    # 16 units of work on one slot beats the 8-unit critical path.
    assert analysis.lower_bound_makespan == pytest.approx(16.0)


def test_explicit_durations_override():
    analysis = analyze_critical_path(unbalanced(), slots=4, stage_durations={1: 0.5})
    assert analysis.critical_path_length == pytest.approx(2.0 + 1.0 + 3.0)
    assert analysis.critical_path == (0, 2, 3)


# ------------------------------------------------------------ upward ranks
def test_upward_ranks_decrease_along_edges():
    dag = unbalanced()
    ranks = analyze_critical_path(dag, slots=4).ranks
    for s in dag:
        for parent in s.parents:
            assert ranks[parent] > ranks[s.index]
    assert ranks[0] == pytest.approx(15.0)
    assert ranks[1] == pytest.approx(13.0)
    assert ranks[2] == pytest.approx(4.0)


# ----------------------------------------------------- slack-biased ratios
def test_slack_bias_shifts_dropping_off_critical_path():
    dag = unbalanced()
    ratios = slack_biased_drop_ratios(dag, base_ratio=0.2, slots=4)
    # The high-slack stage drops more than every critical stage.
    assert ratios[2] > ratios[0]
    assert ratios[2] > ratios[1]
    # The work-weighted mean ratio (the accuracy budget) is conserved.
    work = {s.index: s.total_work() for s in dag}
    mean = sum(ratios[i] * work[i] for i in ratios) / sum(work.values())
    assert mean == pytest.approx(0.2)


def test_slack_bias_negative_concentrates_on_critical_path():
    ratios = slack_biased_drop_ratios(unbalanced(), base_ratio=0.2, slots=4, bias=-1.0)
    assert ratios[2] < ratios[0]


def test_slack_bias_uniform_cases():
    chain = StageDAG([stage(0), stage(1, parents=(0,))])
    # Fully serial DAG: no slack anywhere, ratios stay uniform.
    assert slack_biased_drop_ratios(chain, 0.3, slots=4) == {0: 0.3, 1: 0.3}
    # Zero base ratio stays zero.
    assert slack_biased_drop_ratios(unbalanced(), 0.0, slots=4) == {
        0: 0.0, 1: 0.0, 2: 0.0, 3: 0.0,
    }


def test_slack_bias_respects_non_droppable_stages():
    dag = StageDAG(
        [
            stage(0, maps=(2.0,)),
            stage(1, parents=(0,), maps=(10.0,)),
            stage(2, parents=(0,), maps=(1.0,), droppable=False),
            stage(3, parents=(1, 2), maps=(3.0,)),
        ]
    )
    ratios = slack_biased_drop_ratios(dag, base_ratio=0.2, slots=4)
    assert ratios[2] == 0.0


def test_slack_bias_validates_inputs():
    with pytest.raises(ValueError):
        slack_biased_drop_ratios(unbalanced(), base_ratio=1.0, slots=4)
