"""The attempt lifecycle both executions share, checked on each of them.

:class:`~repro.engine.execution.Execution` owns DVFS rescaling, eviction and
fault recovery for :class:`~repro.engine.execution.JobExecution` and
:class:`~repro.dag.execution.DagExecution` alike.  Every test here runs on a
MapReduce job through ``JobExecution`` and on the same job as a chain DAG
through ``DagExecution`` (as in ``tests/dag/test_chain_parity.py``).
"""

from __future__ import annotations

import pytest

from repro.dag.execution import DagExecution
from repro.dag.graph import DagJob, DagStage, StageDAG
from repro.engine.execution import JobExecution, build_phases
from repro.faults.injector import FaultInjector
from repro.faults.spec import parse_fault_spec
from repro.simulation.des import Simulator
from repro.simulation.random_streams import RandomStreams
from repro.telemetry import CallbackSink, TelemetryHub
from repro.workloads.scenarios import fleet_two_priority_scenario


def as_chain(job) -> DagJob:
    """``job`` as a chain DAG: each stage depends on the one before it."""
    stages = [
        DagStage(
            index=stage.index,
            map_task_times=list(stage.map_task_times),
            reduce_task_times=list(stage.reduce_task_times),
            shuffle_time=stage.shuffle_time,
            droppable=stage.droppable,
            parents=(job.stages[position - 1].index,) if position else (),
        )
        for position, stage in enumerate(job.stages)
    ]
    return DagJob(
        job.job_id, job.priority, job.arrival_time, job.size_mb, StageDAG(stages),
        job.profile,
    )


def _linear(sim, cluster, job, **kwargs):
    return JobExecution(sim, cluster, job, build_phases(job), **kwargs)


def _chain(sim, cluster, job, **kwargs):
    return DagExecution(sim, cluster, as_chain(job), scheduler="fifo", **kwargs)


KINDS = pytest.mark.parametrize("make", [_linear, _chain], ids=["job", "chain-dag"])


@pytest.fixture(scope="module")
def workload():
    """A one-stage job with 50 map tasks on 20 slots, so tasks wait in waves."""
    scenario = fleet_two_priority_scenario(num_clusters=2, num_jobs_per_cluster=40)
    return scenario.generate_trace(seed=3)[0], scenario.base.cluster


def _traced_run(make, workload, faults_spec=None, at=(), action=None):
    """Run one execution; ``action(execution, injector)`` fires at each time
    in ``at``.  Returns the execution, the injector, the task spans and the
    executions that completed."""
    job, cluster = workload
    sim = Simulator()
    hub = TelemetryHub(tracing=True)
    spans = []
    hub.add_sink(CallbackSink(
        lambda event: spans.append(event)
        if event["kind"] == "span" and event["cat"] == "task" else None
    ))
    injector = None
    if faults_spec is not None:
        injector = FaultInjector(
            parse_fault_spec(faults_spec), sim, cluster, RandomStreams(seed=11)
        )
    done = []
    execution = make(
        sim, cluster, job, on_complete=done.append, telemetry=hub, faults=injector
    )
    for time in at:
        sim.schedule_at(time, lambda _sim: action(execution, injector), priority=2)
    execution.start(speed=1.0)
    sim.run()
    return execution, injector, spans, done


@KINDS
def test_evict_during_retry_backoff_cancels_the_backoff(make, workload):
    job, cluster = workload
    sim = Simulator()
    injector = FaultInjector(
        parse_fault_spec("taskfail:p=1,retries=3,backoff=50,jitter=0"),
        sim,
        cluster,
        RandomStreams(seed=5),
    )
    execution = make(
        sim, cluster, job, on_complete=lambda _e: None, faults=injector,
        on_give_up=lambda _e: pytest.fail("no task may exhaust its retries here"),
    )
    execution.start(speed=1.0)
    while injector.count("retries") == 0:
        assert sim.step() is not None
    assert execution.running
    retries, failures = injector.count("retries"), injector.count("task_failures")

    execution.evict()
    processed = sim.processed_events
    sim.run()

    # Every event the attempt scheduled, the backoff included, was
    # cancelled: draining the heap runs no callback at all.
    assert sim.processed_events == processed
    assert injector.count("retries") == retries
    assert injector.count("task_failures") == failures
    assert not execution.completed


@KINDS
def test_repair_of_a_healthy_worker_never_frees_a_busy_or_backing_off_slot(
    make, workload
):
    """A spurious repair must be a no-op: adding a busy or backing-off slot
    to the free list would start a second task on it."""
    spec = "taskfail:p=0.3,retries=5,backoff=4,jitter=0"
    job, cluster = workload
    times = [0.5 * k for k in range(1, 400)]

    def repair_all(execution, _injector):
        for worker in range(cluster.config.workers):
            execution.on_worker_repair(worker)

    reference, ref_faults, ref_spans, ref_done = _traced_run(make, workload, spec)
    repaired, faults, spans, done = _traced_run(
        make, workload, spec, at=times, action=repair_all
    )
    assert ref_faults.count("retries") > 0
    assert done == [repaired] and ref_done == [reference]
    assert repaired.completion_time == reference.completion_time
    assert faults.counters == ref_faults.counters
    assert [(s["slot"], s["start"], s["t"], s["outcome"]) for s in spans] == [
        (s["slot"], s["start"], s["t"], s["outcome"]) for s in ref_spans
    ]
    # No slot ever ran two tasks at once.
    by_slot = {}
    for span in spans:
        by_slot.setdefault(span["slot"], []).append((span["start"], span["t"]))
    for intervals in by_slot.values():
        intervals.sort()
        for (_, end), (start, _) in zip(intervals, intervals[1:]):
            assert start >= end


@KINDS
def test_set_speed_during_setup_keeps_the_remaining_setup_work(make, workload):
    job, _cluster = workload
    setup = job.setup_time(0.0)
    switch_at, speed = 0.25 * setup, 2.0
    _execution, _faults, spans, done = _traced_run(
        make, workload, at=[switch_at],
        action=lambda execution, _injector: execution.set_speed(speed),
    )
    assert done
    # The first map task is dispatched the moment setup ends.
    first_task = min(span["start"] for span in spans if span["stage"] >= 0)
    assert first_task == switch_at + (setup - switch_at) / speed
