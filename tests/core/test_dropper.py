"""Tests for task dropping."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.dropper import TaskDropper, find_missing_partitions
from repro.engine.job import Job, StageSpec
from repro.engine.profiles import JobClassProfile


def make_job(num_stages=1, partitions=10, reduce_tasks=4, droppable=True) -> Job:
    profile = JobClassProfile(priority=0, partitions=partitions, reduce_tasks=reduce_tasks,
                              num_stages=num_stages)
    stages = [
        StageSpec(index=i, map_task_times=[1.0] * partitions,
                  reduce_task_times=[1.0] * reduce_tasks, shuffle_time=0.5,
                  droppable=droppable)
        for i in range(num_stages)
    ]
    return Job(job_id=1, priority=0, arrival_time=0.0, size_mb=100.0, stages=stages,
               profile=profile)


# ------------------------------------------------------ find_missing_partitions
def test_find_missing_partitions_matches_spark_modification():
    assert find_missing_partitions(50, 0.2) == 40
    assert find_missing_partitions(50, 0.0) == 50
    assert find_missing_partitions(10, 0.05) == 10  # ⌈9.5⌉


def test_find_missing_partitions_never_negative():
    assert find_missing_partitions(0, 0.5) == 0


# -------------------------------------------------------------------- TaskDropper
def test_plan_without_dropping_keeps_everything():
    plan = TaskDropper().plan(make_job(), 0.0, 0.0)
    assert plan.dropped_map_tasks == 0
    assert plan.dropped_reduce_tasks == 0
    assert not plan.drops_anything
    assert plan.effective_drop_ratio == 0.0
    assert plan.kept_map_indices[0] == list(range(10))


def test_plan_drops_requested_fraction_of_map_tasks():
    plan = TaskDropper().plan(make_job(partitions=10), 0.3, 0.0)
    assert plan.dropped_map_tasks == 3
    assert len(plan.kept_map_indices[0]) == 7
    assert plan.kept_reduce_tasks == 4
    assert plan.effective_drop_ratio == pytest.approx(0.3)


def test_plan_reduce_dropping():
    plan = TaskDropper().plan(make_job(reduce_tasks=4), 0.0, 0.5)
    assert plan.dropped_reduce_tasks == 2
    assert plan.dropped_map_tasks == 0


def test_kept_indices_are_valid_and_unique():
    plan = TaskDropper(np.random.default_rng(1)).plan(make_job(partitions=20), 0.4, 0.0)
    kept = plan.kept_map_indices[0]
    assert len(kept) == len(set(kept)) == 12
    assert all(0 <= i < 20 for i in kept)
    assert kept == sorted(kept)


def test_random_selection_varies_with_rng():
    job = make_job(partitions=30)
    plan_a = TaskDropper(np.random.default_rng(1)).plan(job, 0.5, 0.0)
    plan_b = TaskDropper(np.random.default_rng(2)).plan(job, 0.5, 0.0)
    assert plan_a.kept_map_indices[0] != plan_b.kept_map_indices[0]


def test_multi_stage_plan_composes_effective_ratio():
    plan = TaskDropper().plan(make_job(num_stages=6), 0.05, 0.0)
    assert plan.effective_drop_ratio == pytest.approx(1 - 0.95**6)
    assert set(plan.kept_map_indices) == set(range(6))


def test_non_droppable_stage_is_untouched():
    plan = TaskDropper().plan(make_job(droppable=False), 0.5, 0.5)
    assert plan.dropped_map_tasks == 0
    assert plan.dropped_reduce_tasks == 0
    assert plan.effective_drop_ratio == 0.0


def test_plan_totals_are_consistent():
    plan = TaskDropper().plan(make_job(num_stages=2, partitions=10, reduce_tasks=4), 0.2, 0.0)
    assert plan.total_map_tasks == 20
    assert plan.total_reduce_tasks == 8
    assert plan.kept_map_tasks == plan.total_map_tasks - plan.dropped_map_tasks


def test_invalid_ratios_rejected():
    dropper = TaskDropper()
    with pytest.raises(ValueError):
        dropper.plan(make_job(), 1.0, 0.0)
    with pytest.raises(ValueError):
        dropper.plan(make_job(), 0.0, -0.1)


#: ``(total, keep)`` with ``0 < keep < total``: the calls that draw.
_DRAWS = st.integers(2, 400).flatmap(
    lambda total: st.tuples(st.just(total), st.integers(1, total - 1))
)


@given(seed=st.integers(0, 2**32 - 1), draws=st.lists(_DRAWS, min_size=1, max_size=6))
@settings(max_examples=150, deadline=None)
def test_select_returns_the_sorted_python_ints_of_a_twin_generator(seed, draws):
    dropper = TaskDropper(np.random.default_rng(seed))
    twin = np.random.default_rng(seed)
    for total, keep in draws:
        chosen = dropper._select(total, keep)
        expected = sorted(int(i) for i in twin.choice(total, size=keep, replace=False))
        assert chosen == expected
        assert all(type(i) is int for i in chosen)
    assert dropper._rng.bit_generator.state == twin.bit_generator.state
