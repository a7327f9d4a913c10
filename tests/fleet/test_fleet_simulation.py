"""Tests for the multi-cluster fleet simulation driver."""

from __future__ import annotations

import pytest

from repro.core.config import SprintConfig
from repro.core.dias import DiASSimulation
from repro.core.policies import SchedulingPolicy
from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.job import Job, StageSpec
from repro.engine.profiles import JobClassProfile
from repro.fleet.dispatcher import PriorityPartitionedDispatcher
from repro.fleet.simulation import FleetSimulation, run_fleet
from repro.workloads.scenarios import HIGH, LOW, fleet_two_priority_scenario


def profile_for(priority: int) -> JobClassProfile:
    return JobClassProfile(priority=priority, partitions=4, reduce_tasks=0,
                           shuffle_time=0.0, setup_time_full=0.0, setup_time_min=0.0)


def make_job(job_id: int, priority: int, arrival: float, task_time: float = 10.0,
             partitions: int = 4) -> Job:
    stage = StageSpec(index=0, map_task_times=[task_time] * partitions,
                      reduce_task_times=[], shuffle_time=0.0)
    return Job(job_id=job_id, priority=priority, arrival_time=arrival, size_mb=10.0,
               stages=[stage], profile=profile_for(priority))


def small_clusters(count: int, slots: int = 2):
    return [Cluster(ClusterConfig(workers=1, cores_per_worker=slots))
            for _ in range(count)]


def simple_trace(count: int = 12, spacing: float = 5.0):
    return [make_job(i, LOW if i % 3 else HIGH, spacing * i) for i in range(count)]


def test_every_job_is_routed_and_completed():
    fleet = FleetSimulation(
        SchedulingPolicy.non_preemptive_priority(), simple_trace(),
        clusters=small_clusters(3), dispatcher="round_robin",
    )
    result = fleet.run()
    assert result.completed_jobs == 12
    assert sum(fleet.dispatch_counts) == 12
    assert fleet.dispatch_counts == [4, 4, 4]
    assert result.num_clusters == 3
    assert result.dispatcher_name == "round_robin"


def test_fleet_of_one_behaves_like_a_single_cluster():
    trace = simple_trace()
    fleet_result = FleetSimulation(
        SchedulingPolicy.non_preemptive_priority(), trace,
        clusters=small_clusters(1), dispatcher="round_robin",
    ).run()
    single_result = DiASSimulation(
        SchedulingPolicy.non_preemptive_priority(), trace,
        cluster=small_clusters(1)[0],
    ).run()
    assert fleet_result.completed_jobs == single_result.completed_jobs
    assert fleet_result.duration == pytest.approx(single_result.duration)
    assert fleet_result.mean_response_time() == pytest.approx(
        single_result.mean_response_time()
    )
    assert fleet_result.total_energy_joules == pytest.approx(
        single_result.total_energy_joules
    )


def test_jsq_prefers_idle_clusters():
    # Two simultaneous arrivals: the second must not pile onto cluster 0.
    jobs = [make_job(0, LOW, 0.0), make_job(1, LOW, 0.0)]
    fleet = FleetSimulation(
        SchedulingPolicy.non_preemptive_priority(), jobs,
        clusters=small_clusters(2), dispatcher="jsq",
    )
    fleet.run()
    assert sorted(fleet.dispatch_counts) == [1, 1]


def test_least_work_left_prefers_the_lighter_cluster():
    # One huge job at t=0, then two small ones: both smalls should avoid the
    # cluster executing the huge job.
    jobs = [
        make_job(0, LOW, 0.0, task_time=100.0),
        make_job(1, LOW, 1.0),
        make_job(2, LOW, 2.0),
    ]
    fleet = FleetSimulation(
        SchedulingPolicy.non_preemptive_priority(), jobs,
        clusters=small_clusters(2), dispatcher="least_work_left",
    )
    fleet.run()
    assert fleet.dispatch_counts == [1, 2]


def test_priority_partitioned_fleet_respects_pinning():
    trace = simple_trace(count=18, spacing=3.0)
    dispatcher = PriorityPartitionedDispatcher({HIGH: [0], LOW: [1, 2]})
    fleet = FleetSimulation(
        SchedulingPolicy.non_preemptive_priority(), trace,
        clusters=small_clusters(3), dispatcher=dispatcher,
    )
    result = fleet.run()
    high_clusters = {
        index
        for index, cluster_result in enumerate(result.cluster_results)
        for record in cluster_result.metrics.records
        if record.priority == HIGH
    }
    low_clusters = {
        index
        for index, cluster_result in enumerate(result.cluster_results)
        for record in cluster_result.metrics.records
        if record.priority == LOW
    }
    assert high_clusters == {0}
    assert low_clusters <= {1, 2}


def test_fleet_runs_are_deterministic_for_a_seed():
    scenario = fleet_two_priority_scenario(num_clusters=3, num_jobs_per_cluster=30)
    policy = SchedulingPolicy.differential_approximation({HIGH: 0.0, LOW: 0.2})

    def run_once():
        return FleetSimulation(
            policy, scenario.generate_trace(seed=11),
            clusters=scenario.make_clusters(), dispatcher="jsq", seed=11,
        ).run()

    first, second = run_once(), run_once()
    assert first.mean_response_time() == second.mean_response_time()
    assert first.tail_response_time(HIGH) == second.tail_response_time(HIGH)
    assert first.total_energy_joules == second.total_energy_joules
    assert first.dispatch_counts == second.dispatch_counts


def test_shared_sprint_budget_caps_fleet_sprinting():
    sprint = SprintConfig.limited_sprinting(
        budget_seconds=15.0, timeout=0.0, replenish_seconds_per_hour=0.0
    )
    policy = SchedulingPolicy.dias({HIGH: 0.0, LOW: 0.0}, sprint=sprint)
    jobs = [make_job(i, HIGH, 0.0, task_time=30.0) for i in range(4)]
    fleet = FleetSimulation(
        policy, jobs, clusters=small_clusters(4), dispatcher="round_robin",
        sprint_budget="shared",
    )
    result = fleet.run()
    # Four clusters sprint concurrently from one 60 s pool (4 x 15 s).
    assert fleet.budget_pool is not None
    assert result.sprinted_seconds == pytest.approx(60.0, rel=1e-6)
    per_cluster = FleetSimulation(
        policy, jobs, clusters=small_clusters(4), dispatcher="round_robin",
        sprint_budget="per-cluster",
    ).run()
    assert per_cluster.sprinted_seconds == pytest.approx(60.0, rel=1e-6)


def test_shared_budget_is_fungible_across_clusters():
    # Only one cluster gets work: with a shared pool it may burn the whole
    # fleet budget; per-cluster it is limited to its own slice.
    sprint = SprintConfig.limited_sprinting(
        budget_seconds=10.0, timeout=0.0, replenish_seconds_per_hour=0.0
    )
    policy = SchedulingPolicy.dias({HIGH: 0.0, LOW: 0.0}, sprint=sprint)
    jobs = [make_job(0, HIGH, 0.0, task_time=60.0)]
    shared = FleetSimulation(
        policy, jobs, clusters=small_clusters(3), dispatcher="round_robin",
        sprint_budget="shared",
    ).run()
    isolated = FleetSimulation(
        policy, jobs, clusters=small_clusters(3), dispatcher="round_robin",
        sprint_budget="per-cluster",
    ).run()
    assert isolated.sprinted_seconds == pytest.approx(10.0, rel=1e-6)
    assert shared.sprinted_seconds == pytest.approx(30.0, rel=1e-6)


def test_run_fleet_convenience_wrapper():
    result = run_fleet(
        SchedulingPolicy.non_preemptive_priority(), simple_trace(),
        num_clusters=2, dispatcher="round_robin",
    )
    assert result.completed_jobs == 12


def test_fleet_validation_errors():
    policy = SchedulingPolicy.non_preemptive_priority()
    with pytest.raises(ValueError):
        FleetSimulation(policy, [], num_clusters=2)
    with pytest.raises(ValueError):
        FleetSimulation(policy, simple_trace(), num_clusters=0)
    fleet = FleetSimulation(policy, simple_trace(), clusters=small_clusters(2))
    fleet.run()
    with pytest.raises(RuntimeError):
        fleet.run()


def test_dispatcher_returning_invalid_index_is_rejected():
    class BrokenDispatcher:
        name = "broken"

        def select(self, job, clusters):
            return 99

    fleet = FleetSimulation(
        SchedulingPolicy.non_preemptive_priority(), simple_trace(),
        clusters=small_clusters(2), dispatcher=BrokenDispatcher(),
    )
    with pytest.raises(ValueError):
        fleet.run()


def _cross_cluster_tie_trace():
    """Two jobs on different clusters that end at the same instant, 32.0.

    Job A (40 maps of 10 s) starts first but dispatches its last task
    last; job B (10 maps of 19.984375 s) starts 0.015625 s later with all
    its tasks at once.  Per task, their ends complete in last-dispatch
    order (B, A); run privately, in attempt-start order (A, B).  Eight
    one-task jobs finish earlier, so the P² estimators are past their
    exact warm-up when the tie arrives.
    """
    profile = JobClassProfile(priority=LOW, partitions=1, reduce_tasks=0,
                              shuffle_time=0.0, setup_time_full=12.0,
                              setup_time_min=12.0)

    def job(job_id, arrival, times):
        return Job(job_id, LOW, arrival, 10.0, [StageSpec(0, times, [], 0.0)], profile)

    jobs = [job(i, 0.0, [1.0]) for i in range(8)]
    jobs.append(job(8, 0.0, [10.0] * 40))
    jobs.append(job(9, 0.015625, [19.984375] * 10))
    return jobs


@pytest.mark.parametrize("streaming", [True, False], ids=["streaming", "batch"])
def test_same_instant_ends_on_different_clusters_report_alike_traced_or_not(streaming):
    from repro.telemetry import NULL_HUB, CallbackSink, TelemetryHub

    summaries = []
    for tracing in (False, True):
        hub = NULL_HUB
        if tracing:
            hub = TelemetryHub(tracing=True)
            hub.add_sink(CallbackSink(lambda event: None))
        fleet = FleetSimulation(
            SchedulingPolicy.non_preemptive_priority(), _cross_cluster_tie_trace(),
            num_clusters=10, dispatcher="round_robin", telemetry=hub,
            streaming_metrics=streaming,
        )
        result = fleet.run()
        assert result.duration == 32.0
        summaries.append(result.summary())
    assert summaries[0] == summaries[1]
