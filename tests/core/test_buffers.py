"""Tests for priority buffers."""

from __future__ import annotations

import pytest

from repro.core.buffers import PriorityBuffers
from repro.engine.job import Job, StageSpec
from repro.engine.profiles import JobClassProfile


def make_job(job_id: int, priority: int) -> Job:
    profile = JobClassProfile(priority=priority, partitions=2, reduce_tasks=1)
    stage = StageSpec(index=0, map_task_times=[1.0, 1.0], reduce_task_times=[1.0],
                      shuffle_time=0.5)
    return Job(job_id=job_id, priority=priority, arrival_time=0.0, size_mb=10.0,
               stages=[stage], profile=profile)


def test_empty_buffers():
    buffers = PriorityBuffers()
    assert buffers.is_empty
    assert len(buffers) == 0
    assert buffers.pop_highest() is None
    assert buffers.peek_highest() is None
    assert buffers.highest_waiting_priority() is None


def test_push_and_pop_fcfs_within_class():
    buffers = PriorityBuffers()
    first = make_job(1, priority=0)
    second = make_job(2, priority=0)
    buffers.push(first)
    buffers.push(second)
    assert buffers.pop_highest() is first
    assert buffers.pop_highest() is second


def test_higher_priority_served_first():
    buffers = PriorityBuffers()
    low = make_job(1, priority=0)
    high = make_job(2, priority=2)
    buffers.push(low)
    buffers.push(high)
    assert buffers.peek_highest() is high
    assert buffers.pop_highest() is high
    assert buffers.pop_highest() is low


def test_push_front_puts_evicted_job_at_head():
    buffers = PriorityBuffers()
    first = make_job(1, priority=0)
    second = make_job(2, priority=0)
    evicted = make_job(3, priority=0)
    buffers.push(first)
    buffers.push(second)
    buffers.push_front(evicted)
    assert buffers.pop_highest() is evicted


def test_len_and_depths():
    buffers = PriorityBuffers()
    buffers.push(make_job(1, 0))
    buffers.push(make_job(2, 0))
    buffers.push(make_job(3, 2))
    assert len(buffers) == 3
    assert buffers.depth(0) == 2
    assert buffers.depth(2) == 1
    assert buffers.depth(5) == 0
    assert buffers.depths() == {0: 2, 2: 1}


def test_priorities_listed_highest_first():
    buffers = PriorityBuffers(priorities=[0, 2, 1])
    assert buffers.priorities() == [2, 1, 0]


def test_preregistered_empty_buffers_do_not_break_pop():
    buffers = PriorityBuffers(priorities=[0, 1, 2])
    job = make_job(1, priority=1)
    buffers.push(job)
    assert buffers.pop_highest() is job
    assert buffers.pop_highest() is None


def test_highest_waiting_priority():
    buffers = PriorityBuffers()
    buffers.push(make_job(1, priority=0))
    assert buffers.highest_waiting_priority() == 0
    buffers.push(make_job(2, priority=3))
    assert buffers.highest_waiting_priority() == 3


def test_clear_empties_all_buffers():
    buffers = PriorityBuffers()
    buffers.push(make_job(1, 0))
    buffers.push(make_job(2, 1))
    buffers.clear()
    assert buffers.is_empty


def _rebuilt_depth_row(buffers: PriorityBuffers) -> dict:
    return {
        f"depth_p{priority}": buffers.depth(priority)
        for priority in reversed(buffers.priorities())
    }


@pytest.mark.parametrize("seed", range(5))
def test_depth_row_stays_equal_to_a_rebuild(seed):
    import random

    rng = random.Random(seed)
    buffers = PriorityBuffers(priorities=[0, 2])
    assert buffers.depth_row == {"depth_p0": 0, "depth_p2": 0}
    next_id = 0
    for _ in range(300):
        roll = rng.random()
        if roll < 0.45:
            next_id += 1
            # Priority 1 and 5 appear late: the row gains keys in order.
            buffers.push(make_job(next_id, rng.choice([0, 1, 2, 5])))
        elif roll < 0.6:
            next_id += 1
            buffers.push_front(make_job(next_id, rng.choice([0, 2, 3])))  # eviction
        elif roll < 0.98:
            buffers.pop_highest()
        else:
            buffers.clear()
        assert buffers.depth_row == _rebuilt_depth_row(buffers)
        assert list(buffers.depth_row) == list(_rebuilt_depth_row(buffers))
        assert sum(buffers.depth_row.values()) == len(buffers)
