"""Tests for the DiAS controller / end-to-end simulation."""

from __future__ import annotations

import math
from dataclasses import replace

import pytest

from repro.core.config import SprintConfig
from repro.core.dias import (
    DiASSimulation,
    DropRatioDecision,
    DuplicateJobError,
    run_policy,
)
from repro.core.policies import SchedulingPolicy
from repro.dag.graph import DagJob, DagStage, StageDAG
from repro.dag.simulation import DagSimulation
from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.job import Job, StageSpec
from repro.engine.profiles import JobClassProfile
from repro.models.accuracy import AccuracyModel
from repro.telemetry import NULL_HUB, CallbackSink, TelemetryHub
from repro.workloads.scenarios import HIGH, LOW, reference_two_priority_scenario


def profile_for(priority: int) -> JobClassProfile:
    return JobClassProfile(priority=priority, partitions=4, reduce_tasks=0,
                           shuffle_time=0.0, setup_time_full=0.0, setup_time_min=0.0)


def make_job(job_id: int, priority: int, arrival: float, task_time: float = 10.0,
             partitions: int = 4) -> Job:
    stage = StageSpec(index=0, map_task_times=[task_time] * partitions,
                      reduce_task_times=[], shuffle_time=0.0)
    return Job(job_id=job_id, priority=priority, arrival_time=arrival, size_mb=10.0,
               stages=[stage], profile=profile_for(priority))


def small_cluster(slots: int = 2) -> Cluster:
    return Cluster(ClusterConfig(workers=1, cores_per_worker=slots))


# A low job of 4×10 s tasks on 2 slots takes 20 s.
def test_single_job_runs_to_completion():
    jobs = [make_job(0, LOW, arrival=0.0)]
    result = run_policy(SchedulingPolicy.non_preemptive_priority(), jobs,
                        cluster=small_cluster())
    assert result.completed_jobs == 1
    assert result.mean_response_time(LOW) == pytest.approx(20.0)
    assert result.resource_waste == 0.0


def test_fcfs_within_class_queues_second_job():
    jobs = [make_job(0, LOW, 0.0), make_job(1, LOW, 1.0)]
    result = run_policy(SchedulingPolicy.non_preemptive_priority(), jobs,
                        cluster=small_cluster())
    records = {r.job_id: r for r in result.metrics.records}
    assert records[0].response_time == pytest.approx(20.0)
    # Second job waits until 20 s, runs 20 s, arrived at 1 s.
    assert records[1].response_time == pytest.approx(39.0)
    assert records[1].queueing_time == pytest.approx(19.0)


def test_non_preemptive_high_priority_waits_for_running_low_job():
    jobs = [make_job(0, LOW, 0.0), make_job(1, HIGH, 5.0)]
    result = run_policy(SchedulingPolicy.non_preemptive_priority(), jobs,
                        cluster=small_cluster())
    records = {r.job_id: r for r in result.metrics.records}
    # The high job waits for the low job to finish at 20 s, then runs 20 s.
    assert records[1].response_time == pytest.approx(35.0)
    assert result.evictions == 0


def test_preemptive_policy_evicts_low_job_and_restarts_it():
    jobs = [make_job(0, LOW, 0.0), make_job(1, HIGH, 5.0)]
    result = run_policy(SchedulingPolicy.preemptive_priority(), jobs,
                        cluster=small_cluster())
    records = {r.job_id: r for r in result.metrics.records}
    # The high job starts immediately at 5 s and finishes at 25 s.
    assert records[1].response_time == pytest.approx(20.0)
    assert records[1].queueing_time == pytest.approx(0.0)
    # The low job is evicted (5 s wasted) and restarts from scratch at 25 s.
    assert records[0].evictions == 1
    assert records[0].wasted_time == pytest.approx(5.0)
    assert records[0].response_time == pytest.approx(45.0)
    assert result.evictions == 1
    assert result.resource_waste == pytest.approx(5.0 / (40.0 + 5.0))


def test_higher_priority_job_is_served_before_queued_lower_priority():
    jobs = [make_job(0, LOW, 0.0), make_job(1, LOW, 1.0), make_job(2, HIGH, 2.0)]
    result = run_policy(SchedulingPolicy.non_preemptive_priority(), jobs,
                        cluster=small_cluster())
    records = {r.job_id: r for r in result.metrics.records}
    # After job 0 completes at 20 s, the queued high job runs before job 1.
    assert records[2].completion_time < records[1].completion_time


def test_da_policy_drops_low_priority_tasks_only():
    policy = SchedulingPolicy.differential_approximation({HIGH: 0.0, LOW: 0.5})
    jobs = [make_job(0, LOW, 0.0), make_job(1, HIGH, 100.0)]
    result = run_policy(policy, jobs, cluster=small_cluster())
    records = {r.job_id: r for r in result.metrics.records}
    # The low job runs only 2 of its 4 tasks: 10 s instead of 20 s.
    assert records[0].execution_time == pytest.approx(10.0)
    assert records[0].drop_ratio == pytest.approx(0.5)
    assert records[0].accuracy_loss > 0
    # The high job is untouched.
    assert records[1].execution_time == pytest.approx(20.0)
    assert records[1].drop_ratio == 0.0
    assert records[1].accuracy_loss == 0.0


def test_da_improves_low_priority_latency_under_contention():
    arrivals = [make_job(i, LOW, 15.0 * i) for i in range(10)]
    arrivals += [make_job(100 + i, HIGH, 40.0 * i + 7.0) for i in range(3)]
    base = run_policy(SchedulingPolicy.non_preemptive_priority(), arrivals,
                      cluster=small_cluster())
    approx = run_policy(
        SchedulingPolicy.differential_approximation({HIGH: 0.0, LOW: 0.5}),
        arrivals, cluster=small_cluster(),
    )
    assert approx.mean_response_time(LOW) < base.mean_response_time(LOW)
    assert approx.mean_response_time(HIGH) <= base.mean_response_time(HIGH)


def test_sprinting_accelerates_high_priority_jobs():
    sprint = SprintConfig.unlimited_sprinting({HIGH}, timeout=0.0)
    policy = SchedulingPolicy.dias({HIGH: 0.0, LOW: 0.0}, sprint=sprint)
    jobs = [make_job(0, HIGH, 0.0)]
    cluster = small_cluster()
    result = run_policy(policy, jobs, cluster=cluster)
    expected = 20.0 / cluster.dvfs.sprint_speedup
    assert result.mean_response_time(HIGH) == pytest.approx(expected, rel=1e-6)
    assert result.sprinted_seconds == pytest.approx(expected, rel=1e-6)


def test_sprinting_energy_accounted_at_sprint_power():
    sprint = SprintConfig.unlimited_sprinting({HIGH}, timeout=0.0)
    policy = SchedulingPolicy.dias({HIGH: 0.0}, sprint=sprint)
    jobs = [make_job(0, HIGH, 0.0)]
    cluster = small_cluster()
    result = run_policy(policy, jobs, cluster=cluster)
    simulation_duration = result.duration
    expected_energy = simulation_duration * cluster.power_model.power("sprint")
    assert result.total_energy_joules == pytest.approx(expected_energy, rel=1e-6)


def test_energy_includes_idle_periods():
    policy = SchedulingPolicy.non_preemptive_priority()
    jobs = [make_job(0, LOW, 0.0), make_job(1, LOW, 100.0)]
    cluster = small_cluster()
    result = run_policy(policy, jobs, cluster=cluster)
    busy = 40.0 * cluster.power_model.power("busy")
    idle = 80.0 * cluster.power_model.power("idle")
    assert result.total_energy_joules == pytest.approx(busy + idle, rel=1e-6)


def test_evicted_job_keeps_original_arrival_time_in_metrics():
    jobs = [make_job(0, LOW, 0.0), make_job(1, HIGH, 5.0)]
    result = run_policy(SchedulingPolicy.preemptive_priority(), jobs,
                        cluster=small_cluster())
    record = [r for r in result.metrics.records if r.job_id == 0][0]
    assert record.arrival_time == 0.0
    assert record.start_time >= 25.0  # successful attempt starts after the high job


def test_relative_difference_between_policies():
    jobs = [make_job(i, LOW, 15.0 * i) for i in range(6)]
    jobs += [make_job(10 + i, HIGH, 31.0 * i + 3.0) for i in range(2)]
    preemptive = run_policy(SchedulingPolicy.preemptive_priority(), jobs,
                            cluster=small_cluster())
    non_preemptive = run_policy(SchedulingPolicy.non_preemptive_priority(), jobs,
                                cluster=small_cluster())
    diff = non_preemptive.relative_difference(preemptive, HIGH, "mean")
    assert diff >= 0  # non-preemption can only slow the high class down
    with pytest.raises(ValueError):
        non_preemptive.relative_difference(preemptive, HIGH, "median")


def test_simulation_requires_jobs():
    with pytest.raises(ValueError):
        DiASSimulation(SchedulingPolicy.non_preemptive_priority(), [])


def test_custom_accuracy_model_is_used():
    policy = SchedulingPolicy.differential_approximation({LOW: 0.5})
    jobs = [make_job(0, LOW, 0.0)]
    result = run_policy(policy, jobs, cluster=small_cluster(),
                        accuracy_model=AccuracyModel.zero())
    assert result.metrics.records[0].accuracy_loss == 0.0


def test_utilisation_reported():
    jobs = [make_job(0, LOW, 0.0), make_job(1, LOW, 30.0)]
    result = run_policy(SchedulingPolicy.non_preemptive_priority(), jobs,
                        cluster=small_cluster())
    # 40 s of busy time over a 50 s horizon.
    assert result.utilisation == pytest.approx(40.0 / 50.0)


def test_relative_difference_tail_uses_p95_not_mean():
    # Odd task counts round up under 50% dropping (⌈n(1−θ)⌉), so the drop
    # speeds jobs up unevenly and the mean and tail differences diverge.
    jobs = [make_job(i, LOW, 200.0 * i, partitions=2 + i) for i in range(5)]
    baseline = run_policy(SchedulingPolicy.non_preemptive_priority(), jobs,
                          cluster=small_cluster())
    ours = run_policy(SchedulingPolicy.differential_approximation({LOW: 0.5}), jobs,
                      cluster=small_cluster())
    tail_diff = ours.relative_difference(baseline, LOW, "tail")
    expected = 100.0 * (
        ours.tail_response_time(LOW) - baseline.tail_response_time(LOW)
    ) / baseline.tail_response_time(LOW)
    assert tail_diff == pytest.approx(expected)
    assert tail_diff != ours.relative_difference(baseline, LOW, "mean")


def test_relative_difference_nan_for_zero_or_nan_baseline():
    jobs = [make_job(0, LOW, 0.0)]
    result = run_policy(SchedulingPolicy.non_preemptive_priority(), jobs,
                        cluster=small_cluster())
    # The baseline never saw a HIGH job: its mean is nan, and a nan baseline
    # must propagate to the relative difference rather than raise.
    assert math.isnan(result.relative_difference(result, HIGH, "mean"))
    assert math.isnan(result.relative_difference(result, HIGH, "tail"))


def test_relative_difference_rejects_unknown_metric():
    jobs = [make_job(0, LOW, 0.0)]
    result = run_policy(SchedulingPolicy.non_preemptive_priority(), jobs,
                        cluster=small_cluster())
    with pytest.raises(ValueError):
        result.relative_difference(result, LOW, "p99")


def test_drop_ratio_decision_validates_bounds():
    decision = DropRatioDecision(map_drop_ratio=0.0, reduce_drop_ratio=0.999)
    assert decision.map_drop_ratio == 0.0
    for bad in (-0.01, 1.0, 1.5):
        with pytest.raises(ValueError):
            DropRatioDecision(map_drop_ratio=bad)
        with pytest.raises(ValueError):
            DropRatioDecision(map_drop_ratio=0.0, reduce_drop_ratio=bad)


def make_dag_job(job_id: int, priority: int, arrival: float, task_time: float = 10.0,
                 partitions: int = 4) -> DagJob:
    """The DAG twin of :func:`make_job`: one droppable stage, no reduce."""
    stage = DagStage(index=0, map_task_times=[task_time] * partitions,
                     reduce_task_times=[], shuffle_time=0.0)
    return DagJob(job_id=job_id, priority=priority, arrival_time=arrival, size_mb=10.0,
                  dag=StageDAG([stage]), profile=profile_for(priority))


CONTROLLERS = pytest.mark.parametrize(
    "controller, make",
    [(DiASSimulation, make_job), (DagSimulation, make_dag_job)],
    ids=["DiASSimulation", "DagSimulation"],
)


@CONTROLLERS
def test_a_job_id_still_in_flight_cannot_arrive_again(controller, make):
    # Per-job bookkeeping (and the lifecycle probe's spans) are keyed by job
    # id, so a second arrival of an unfinished job's id is an input error.
    jobs = [make(0, LOW, arrival=0.0), make(0, LOW, arrival=1.0)]
    simulation = controller(SchedulingPolicy.preemptive_priority(), jobs=jobs,
                            cluster=small_cluster())
    with pytest.raises(DuplicateJobError, match=r"job id 0 arrived at t=1\.0") as info:
        simulation.run()
    assert isinstance(info.value, ValueError)
    assert (info.value.job_id, info.value.arrival_time) == (0, 1.0)


@CONTROLLERS
def test_a_job_id_can_be_reused_once_its_job_finished(controller, make):
    jobs = [make(0, LOW, arrival=0.0), make(1, HIGH, arrival=1.0),
            make(0, HIGH, arrival=500.0)]
    result = controller(SchedulingPolicy.preemptive_priority(), jobs=jobs,
                        cluster=small_cluster()).run()
    assert result.metrics.job_count == 3
    assert result.completed_jobs == 3
    assert result.evictions == 1


def _reused_in_flight_id():
    """Job 2 takes job 1's id and arrives 2 s after it, while it still runs."""
    jobs = reference_two_priority_scenario(num_jobs=6).generate_trace(seed=0)
    jobs[2] = replace(jobs[2], job_id=jobs[1].job_id,
                      arrival_time=jobs[1].arrival_time + 2.0)
    return sorted(jobs, key=lambda job: job.arrival_time), jobs[1]


@pytest.mark.parametrize("tracing", [False, True], ids=["null-hub", "tracing-hub"])
def test_the_duplicate_id_reproduction_fails_alike_on_every_hub(tracing):
    """Untraced, this run used to complete; traced, it raised ``KeyError``."""
    jobs, first = _reused_in_flight_id()
    hub = NULL_HUB
    if tracing:
        hub = TelemetryHub(tracing=True)
        hub.add_sink(CallbackSink(lambda event: None))
    simulation = DiASSimulation(SchedulingPolicy.preemptive_priority(), jobs=jobs,
                                seed=0, telemetry=hub)
    with pytest.raises(DuplicateJobError) as info:
        simulation.run()
    assert info.value.job_id == first.job_id
    assert info.value.arrival_time == first.arrival_time + 2.0
