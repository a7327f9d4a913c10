"""Tests for DagSimulation — DiAS on stage-DAG jobs."""

from __future__ import annotations

import pytest

from repro.core.config import SprintConfig
from repro.core.dropper import TaskDropper
from repro.core.policies import SchedulingPolicy
from repro.dag.graph import DagJob, DagStage, StageDAG
from repro.dag.simulation import DagSimulation, run_dag_policy
from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.profiles import JobClassProfile
from repro.telemetry import CallbackSink, TelemetryHub
from repro.workloads.scenarios import HIGH, LOW, dag_layered_scenario


def profile(priority=LOW, **kw) -> JobClassProfile:
    defaults = dict(
        name="t",
        mean_size_mb=100.0,
        partitions=4,
        reduce_tasks=1,
        setup_time_full=1.0,
        setup_time_min=0.5,
        shuffle_time=0.0,
        task_scv=0.0,
        max_accuracy_loss=0.32,
    )
    defaults.update(kw)
    return JobClassProfile(priority=priority, **defaults)


def stage(index, parents=(), maps=(1.0, 1.0), reduces=(0.5,), droppable=True):
    return DagStage(
        index=index,
        map_task_times=list(maps),
        reduce_task_times=list(reduces),
        shuffle_time=0.0,
        droppable=droppable,
        parents=tuple(parents),
    )


def diamond_job(job_id=0, priority=LOW, arrival=0.0) -> DagJob:
    dag = StageDAG(
        [stage(0), stage(1, parents=(0,)), stage(2, parents=(0,)), stage(3, parents=(1, 2))]
    )
    return DagJob(
        job_id=job_id, priority=priority, arrival_time=arrival, size_mb=100.0,
        dag=dag, profile=profile(priority),
    )


def small_cluster() -> Cluster:
    return Cluster(ClusterConfig(workers=2, cores_per_worker=2))


# ------------------------------------------------------------------- basics
def test_trace_runs_to_completion_with_records():
    jobs = [diamond_job(i, arrival=float(i)) for i in range(5)]
    result = run_dag_policy(
        SchedulingPolicy.non_preemptive_priority(), jobs, cluster=small_cluster()
    )
    assert result.completed_jobs == 5
    assert result.metrics.job_count == 5
    assert len(result.dag_rows) == 5
    assert result.scheduler_name == "fifo"
    for row in result.dag_rows:
        assert row["makespan_s"] >= row["lower_bound_s"] - 1e-9
        assert row["cp_stretch"] >= 1.0 - 1e-9


def test_empty_trace_rejected():
    with pytest.raises(ValueError, match="must not be empty"):
        DagSimulation(SchedulingPolicy.non_preemptive_priority(), jobs=[])


def test_priority_order_respected():
    # A low job arrives first; a high job arriving while it queues jumps ahead.
    jobs = [
        diamond_job(0, priority=LOW, arrival=0.0),
        diamond_job(1, priority=LOW, arrival=0.1),
        diamond_job(2, priority=HIGH, arrival=0.2),
    ]
    result = run_dag_policy(
        SchedulingPolicy.non_preemptive_priority(), jobs, cluster=small_cluster()
    )
    records = {r.job_id: r for r in result.metrics.records}
    assert records[2].completion_time < records[1].completion_time


def test_per_stage_dropping_reduces_execution_time():
    policy = SchedulingPolicy.differential_approximation({HIGH: 0.0, LOW: 0.5})
    jobs_full = [diamond_job(i, arrival=float(i * 100)) for i in range(3)]
    jobs_drop = [diamond_job(i, arrival=float(i * 100)) for i in range(3)]
    base = run_dag_policy(
        SchedulingPolicy.non_preemptive_priority(), jobs_full, cluster=small_cluster()
    )
    dropped = run_dag_policy(policy, jobs_drop, cluster=small_cluster())
    assert dropped.mean_makespan() < base.mean_makespan()
    assert dropped.mean_accuracy_loss(LOW) > 0.0
    # Non-droppable stages would keep all tasks; here every stage dropped,
    # so the effective ratio composes across the four droppable stages.
    assert all(r.drop_ratio > 0.5 for r in dropped.metrics.records)


def test_non_droppable_stages_keep_all_tasks():
    dag = StageDAG([stage(0, droppable=False)])
    job = DagJob(
        job_id=0, priority=LOW, arrival_time=0.0, size_mb=100.0,
        dag=dag, profile=profile(),
    )
    policy = SchedulingPolicy.differential_approximation({LOW: 0.5})
    result = run_dag_policy(policy, [job], cluster=small_cluster())
    assert result.metrics.records[0].drop_ratio == 0.0


def test_preemptive_policy_evicts_and_restarts():
    jobs = [
        diamond_job(0, priority=LOW, arrival=0.0),
        diamond_job(1, priority=HIGH, arrival=1.0),
    ]
    result = run_dag_policy(
        SchedulingPolicy.preemptive_priority(), jobs, cluster=small_cluster()
    )
    assert result.completed_jobs == 2
    assert result.evictions == 1
    assert result.resource_waste > 0.0


def test_sprinting_on_dag_jobs():
    sprint = SprintConfig(
        budget_seconds=100.0,
        replenish_seconds_per_hour=0.0,
        timeouts={HIGH: 0.0},
        sprint_priorities=frozenset({HIGH}),
    )
    policy = SchedulingPolicy.non_preemptive_priority().with_sprint(sprint, name="NPS")
    jobs = [diamond_job(0, priority=HIGH)]
    result = run_dag_policy(policy, jobs, cluster=small_cluster())
    assert result.sprinted_seconds > 0.0
    base = run_dag_policy(
        SchedulingPolicy.non_preemptive_priority(),
        [diamond_job(0, priority=HIGH)],
        cluster=small_cluster(),
    )
    assert result.mean_makespan() < base.mean_makespan()


def test_slack_biased_conserves_accuracy_budget_direction():
    scenario = dag_layered_scenario(num_jobs=20)
    policy = SchedulingPolicy.differential_approximation({HIGH: 0.0, LOW: 0.2})
    uniform = run_dag_policy(
        policy, scenario.generate_trace(seed=2), cluster=scenario.cluster, seed=2
    )
    biased = run_dag_policy(
        policy,
        scenario.generate_trace(seed=2),
        cluster=scenario.cluster,
        seed=2,
        slack_biased=True,
    )
    assert biased.completed_jobs == uniform.completed_jobs
    # Same class-level budget: mean effective drop stays in the same ballpark.
    assert biased.mean_accuracy_loss(LOW) == pytest.approx(
        uniform.mean_accuracy_loss(LOW), rel=0.25
    )


def test_plan_stages_per_stage_ratios():
    dropper = TaskDropper()
    job = diamond_job(0)
    plan = dropper.plan_stages(job, {0: 0.5, 1: 0.0, 2: 0.5, 3: 0.0})
    assert len(plan.kept_map_indices[0]) == 1
    assert len(plan.kept_map_indices[1]) == 2
    assert plan.total_map_tasks == 8
    assert plan.dropped_map_tasks == 2
    assert 0.0 < plan.effective_drop_ratio < 1.0
    # The requested ratio defaults to the task-weighted mean.
    assert plan.map_drop_ratio == pytest.approx(0.25)


def test_plan_stages_rejects_bad_ratio():
    dropper = TaskDropper()
    with pytest.raises(ValueError, match="must be in"):
        dropper.plan_stages(diamond_job(0), {0: 1.0})


# ---------------------------------------------------------------- telemetry
def _sampled_layered_run(tracing: bool):
    hub = TelemetryHub(sample_interval=2.0, tracing=tracing)
    events = []
    hub.add_sink(CallbackSink(events.append))
    scenario = dag_layered_scenario(num_jobs=20)
    simulation = DagSimulation(
        SchedulingPolicy.non_preemptive_priority(),
        jobs=scenario.generate_trace(seed=3),
        scheduler="critical_path_first",
        cluster=scenario.cluster,
        seed=3,
        telemetry=hub,
    )
    result = simulation.run()
    summary = [
        result.completed_jobs, result.evictions, result.duration,
        result.total_energy_joules, result.dag_rows,
        [(p, result.mean_response_time(p), result.tail_response_time(p))
         for p in result.priorities()],
    ]
    samples = [
        event for event in events
        if event["kind"] == "sample" and event["src"] != "kernel"
    ]
    return simulation.sim.processed_events, summary, samples


def test_a_sampling_hub_runs_dag_attempts_privately():
    # Sampling publishes nothing per task, so each attempt gives the kernel
    # one event, at its end; tracing keeps every attempt per task.
    events, summary, samples = _sampled_layered_run(tracing=False)
    traced_events, traced_summary, traced_samples = _sampled_layered_run(tracing=True)
    assert summary[:2] == [20, 0]  # every job completed, none evicted
    arrivals = attempt_ends = 20
    assert events == arrivals + attempt_ends
    assert traced_events > events
    assert summary == traced_summary
    assert samples and samples == traced_samples
