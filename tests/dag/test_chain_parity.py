"""A MapReduce job run as a chain DAG takes exactly as long as the linear engine.

Stage *i* of a :class:`~repro.engine.job.Job` becomes a DAG stage whose only
parent is stage *i − 1*.  :class:`~repro.dag.execution.DagExecution` under
``fifo`` then runs the same tasks in the same waves as
:class:`~repro.engine.execution.JobExecution` over
:func:`~repro.engine.execution.build_phases`: setup, then map, shuffle and
reduce of each stage in turn.  Slot ids may differ, but the completion time
and the sprinted time must match to the last bit, under a drop plan and a
speed change in mid-run.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.dropper import TaskDropper
from repro.dag.execution import DagExecution
from repro.dag.graph import DagJob, DagStage, StageDAG
from repro.engine.execution import JobExecution, build_phases
from repro.engine.job import Job
from repro.simulation.des import Simulator
from repro.workloads.scenarios import fleet_two_priority_scenario

MAP_DROP, REDUCE_DROP = 0.2, 0.1
SPRINT_SPEED = 1.6


def as_chain(job: Job) -> DagJob:
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


def _run(make_execution, cluster, window):
    """Start an execution at time 0, sprint over ``window``, run it out."""
    sim = Simulator()
    done = []
    execution = make_execution(sim, done.append)
    sim.schedule_at(window[0], lambda _sim: execution.set_speed(SPRINT_SPEED))
    sim.schedule_at(window[1], lambda _sim: execution.set_speed(1.0))
    execution.start(speed=1.0)
    sim.run()
    assert done == [execution]
    return execution.completion_time, execution.sprinted_time


@pytest.fixture(scope="module")
def workload():
    scenario = fleet_two_priority_scenario(num_clusters=2, num_jobs_per_cluster=40)
    return scenario.generate_trace(seed=3), scenario.base.cluster


def test_chain_dag_matches_the_linear_engine_bit_for_bit(workload):
    jobs, cluster = workload
    dropper = TaskDropper(np.random.default_rng(3))
    for job in jobs:
        plan = dropper.plan(job, MAP_DROP, REDUCE_DROP)
        nominal = job.ideal_service_time(cluster.slots, MAP_DROP)
        window = (0.3 * nominal, 0.6 * nominal)
        linear = _run(
            lambda sim, done: JobExecution(
                sim,
                cluster,
                job,
                build_phases(
                    job,
                    MAP_DROP,
                    REDUCE_DROP,
                    plan.kept_map_indices,
                    plan.kept_reduce_indices,
                ),
                on_complete=done,
            ),
            cluster,
            window,
        )
        chain = _run(
            lambda sim, done: DagExecution(
                sim,
                cluster,
                as_chain(job),
                scheduler="fifo",
                on_complete=done,
                map_drop_ratio=MAP_DROP,
                reduce_drop_ratio=REDUCE_DROP,
                kept_map_indices=plan.kept_map_indices,
                kept_reduce_indices=plan.kept_reduce_indices,
            ),
            cluster,
            window,
        )
        assert chain == linear, job.job_id
        assert linear[1] > 0.0, job.job_id
