"""Tests for jobs, stages and the job factory."""

from __future__ import annotations

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.engine.job import Job, JobFactory, StageSpec, effective_task_count, wave_time


# -------------------------------------------------------- effective_task_count
def test_effective_task_count_matches_paper_formula():
    # ⌈n(1 − θ)⌉
    assert effective_task_count(50, 0.2) == 40
    assert effective_task_count(50, 0.1) == 45
    assert effective_task_count(50, 0.0) == 50
    assert effective_task_count(3, 0.5) == 2


def test_effective_task_count_rounds_up():
    assert effective_task_count(10, 0.15) == 9  # 8.5 -> 9


def test_effective_task_count_full_drop_keeps_nothing():
    assert effective_task_count(10, 1.0) == 0


def test_effective_task_count_zero_tasks():
    assert effective_task_count(0, 0.5) == 0


def test_effective_task_count_validates_inputs():
    with pytest.raises(ValueError):
        effective_task_count(-1, 0.1)
    with pytest.raises(ValueError):
        effective_task_count(10, 1.5)


# ------------------------------------------------------------------- StageSpec
def test_stage_spec_counts_and_work():
    stage = StageSpec(index=0, map_task_times=[1.0, 2.0], reduce_task_times=[3.0],
                      shuffle_time=0.5)
    assert stage.num_map_tasks == 2
    assert stage.num_reduce_tasks == 1
    assert stage.total_work() == pytest.approx(6.0)


def test_stage_spec_rejects_non_positive_durations():
    with pytest.raises(ValueError):
        StageSpec(index=0, map_task_times=[0.0], reduce_task_times=[], shuffle_time=0.0)
    with pytest.raises(ValueError):
        StageSpec(index=0, map_task_times=[1.0], reduce_task_times=[-1.0], shuffle_time=0.0)
    with pytest.raises(ValueError):
        StageSpec(index=0, map_task_times=[1.0], reduce_task_times=[], shuffle_time=-0.1)


# ------------------------------------------------------------------------ Job
def make_job(profile, arrival=0.0):
    stage = StageSpec(
        index=0,
        map_task_times=[2.0] * profile.partitions,
        reduce_task_times=[1.0] * profile.reduce_tasks,
        shuffle_time=profile.shuffle_time,
    )
    return Job(job_id=1, priority=profile.priority, arrival_time=arrival,
               size_mb=profile.mean_size_mb, stages=[stage], profile=profile)


def test_job_task_counts(high_profile):
    job = make_job(high_profile)
    assert job.num_map_tasks == high_profile.partitions
    assert job.num_reduce_tasks == high_profile.reduce_tasks


def test_job_requires_at_least_one_stage(high_profile):
    with pytest.raises(ValueError):
        Job(job_id=1, priority=0, arrival_time=0.0, size_mb=10.0, stages=[],
            profile=high_profile)


def test_job_total_work(high_profile):
    job = make_job(high_profile)
    expected = 2.0 * high_profile.partitions + 1.0 * high_profile.reduce_tasks
    assert job.total_work() == pytest.approx(expected)


def test_job_setup_time_uses_profile_interpolation(high_profile):
    job = make_job(high_profile)
    assert job.setup_time(0.0) == high_profile.setup_time_full
    assert job.setup_time(0.9) == high_profile.setup_time_min


def test_ideal_service_time_decreases_with_slots(high_profile):
    job = make_job(high_profile)
    assert job.ideal_service_time(8) < job.ideal_service_time(2)


def test_ideal_service_time_decreases_with_dropping(high_profile):
    job = make_job(high_profile)
    assert job.ideal_service_time(4, drop_ratio=0.5) < job.ideal_service_time(4, 0.0)


def test_ideal_service_time_requires_positive_slots(high_profile):
    job = make_job(high_profile)
    with pytest.raises(ValueError):
        job.ideal_service_time(0)


# ----------------------------------------------------------------- JobFactory
def test_factory_assigns_increasing_ids(job_factory, high_profile):
    a = job_factory.create_job(high_profile, arrival_time=0.0)
    b = job_factory.create_job(high_profile, arrival_time=1.0)
    assert b.job_id > a.job_id


def test_factory_job_structure_matches_profile(job_factory, high_profile):
    job = job_factory.create_job(high_profile, arrival_time=3.0)
    assert job.priority == high_profile.priority
    assert job.arrival_time == 3.0
    assert len(job.stages) == high_profile.num_stages
    assert job.stages[0].num_map_tasks == high_profile.partitions
    assert job.stages[0].num_reduce_tasks == high_profile.reduce_tasks


def test_factory_respects_explicit_size(job_factory, high_profile):
    job = job_factory.create_job(high_profile, arrival_time=0.0, size_mb=250.0)
    assert job.size_mb == 250.0


def test_factory_sampled_sizes_average_to_profile_mean(job_factory, high_profile):
    sizes = [job_factory.sample_size_mb(high_profile) for _ in range(3000)]
    mean = sum(sizes) / len(sizes)
    assert abs(mean - high_profile.mean_size_mb) / high_profile.mean_size_mb < 0.05


def test_factory_zero_cv_gives_deterministic_size(job_factory, high_profile):
    profile = high_profile.with_size(100.0)
    profile = type(profile)(**{**profile.__dict__, "size_cv": 0.0})
    assert job_factory.sample_size_mb(profile) == 100.0


def test_factory_task_times_scale_with_job_size(job_factory, high_profile):
    small = job_factory.create_job(high_profile, arrival_time=0.0, size_mb=50.0)
    large = job_factory.create_job(high_profile, arrival_time=0.0, size_mb=500.0)
    small_mean = sum(small.stages[0].map_task_times) / small.stages[0].num_map_tasks
    large_mean = sum(large.stages[0].map_task_times) / large.stages[0].num_map_tasks
    assert large_mean > 5 * small_mean


def test_factory_multi_stage_profile(job_factory, high_profile):
    profile = type(high_profile)(**{**high_profile.__dict__, "num_stages": 3})
    job = job_factory.create_job(profile, arrival_time=0.0)
    assert len(job.stages) == 3
    assert [s.index for s in job.stages] == [0, 1, 2]


# ------------------------------------------------------------------ wave_time
def _lpt_heap_wave_time(durations, slots):
    """LPT on a ``(load, slot)`` heap, with no shortcut for a single wave."""
    from heapq import heapreplace

    if not durations:
        return 0.0
    finish = [(0.0, slot) for slot in range(min(slots, len(durations)))]
    for duration in sorted(durations, reverse=True):
        load, slot = finish[0]
        heapreplace(finish, (load + duration, slot))
    return max(finish)[0]


_TASK_TIMES = st.lists(
    st.one_of(
        st.floats(min_value=1e-6, max_value=1e6, allow_nan=False, allow_infinity=False),
        st.sampled_from([0.1, 0.3, 0.5, 1.0, 2.0]),
    ),
    max_size=40,
)


@given(durations=_TASK_TIMES, spare=st.integers(0, 8))
@settings(max_examples=300, deadline=None)
def test_wave_time_of_one_wave_equals_the_heap_loop(durations, spare):
    slots = max(1, len(durations) + spare)
    assert wave_time(durations, slots) == _lpt_heap_wave_time(durations, slots)


@given(durations=_TASK_TIMES, slots=st.integers(1, 8))
@settings(max_examples=300, deadline=None)
def test_wave_time_of_several_waves_equals_the_heap_loop(durations, slots):
    assert wave_time(durations, slots) == _lpt_heap_wave_time(durations, slots)
