"""Per-job cost of the DAG core on MapReduce jobs, against the linear engine.

Every job of the ``fleet-jsq`` ledger workload (``fleet_two_priority_scenario``
with 4 clusters x 400 jobs, DA(0/20) drop plans) runs alone on a fresh
simulator three times: once through
:class:`~repro.engine.execution.JobExecution` over
:func:`~repro.engine.execution.build_phases`, and twice as a chain DAG
(stage *i* depends on stage *i - 1*) through
:class:`~repro.dag.execution.DagExecution` under ``fifo``.  The first chain
run has telemetry off, so each attempt runs on the execution's private heap
and the kernel sees one event per job.  The second streams telemetry to a
discarding sink, which keeps the attempt on the per-task path (one kernel
event per task).  Construction counts, so the DAG sides pay their per-job
critical-path set-up.  The script exits non-zero unless all three finish
every job at the same instant, and prints the best-of-N host seconds of each
side and their ratios to ``JobExecution``::

    PYTHONPATH=src python benchmarks/bench_chain_dag_cost.py [--repeats 5]

Point ``PYTHONPATH`` at another checkout's ``src`` to measure that tree.
"""

from __future__ import annotations

import argparse
import time

import numpy as np

from repro.core.dropper import TaskDropper
from repro.dag.execution import DagExecution
from repro.dag.graph import DagJob, DagStage, StageDAG
from repro.engine.execution import JobExecution, build_phases
from repro.simulation.des import Simulator
from repro.telemetry import NULL_HUB, CallbackSink, TelemetryHub
from repro.workloads.scenarios import fleet_two_priority_scenario

#: DA(0/20): the low class drops 20 % of its map tasks, the high class none.
MAP_DROP = {0: 0.2}


def as_chain(job) -> DagJob:
    """``job`` as a chain DAG: each stage depends on the one before it."""
    stages = [
        DagStage(stage.index, list(stage.map_task_times), list(stage.reduce_task_times),
                 stage.shuffle_time, stage.droppable,
                 parents=(job.stages[i - 1].index,) if i else ())
        for i, stage in enumerate(job.stages)
    ]
    return DagJob(job.job_id, job.priority, job.arrival_time, job.size_mb,
                  StageDAG(stages), job.profile)


def _linear(sim, cluster, job, ratio, plan, done):
    phases = build_phases(job, ratio, 0.0, plan.kept_map_indices, plan.kept_reduce_indices)
    return JobExecution(sim, cluster, job, phases, on_complete=done)


def _chain(sim, cluster, job, ratio, plan, done, telemetry=NULL_HUB):
    return DagExecution(sim, cluster, job, scheduler="fifo", on_complete=done,
                        map_drop_ratio=ratio, kept_map_indices=plan.kept_map_indices,
                        kept_reduce_indices=plan.kept_reduce_indices,
                        telemetry=telemetry)


def _per_task_chain(sim, cluster, job, ratio, plan, done):
    hub = TelemetryHub()
    hub.add_sink(CallbackSink(lambda event: None))
    return _chain(sim, cluster, job, ratio, plan, done, telemetry=hub)


def _pass(make, cluster, inputs):
    """Run every job alone; returns (host seconds, completion times)."""
    times = []
    start = time.perf_counter()
    for job, ratio, plan in inputs:
        sim = Simulator()
        execution = make(sim, cluster, job, ratio, plan, lambda _execution: None)
        execution.start(speed=1.0)
        sim.run()
        times.append(execution.completion_time)
    return time.perf_counter() - start, times


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args()

    scenario = fleet_two_priority_scenario(num_clusters=4, num_jobs_per_cluster=400)
    jobs = scenario.generate_trace(seed=args.seed)
    cluster = scenario.base.cluster
    dropper = TaskDropper(np.random.default_rng(args.seed))
    linear_inputs, chain_inputs = [], []
    for job in jobs:
        ratio = MAP_DROP.get(job.priority, 0.0)
        plan = dropper.plan(job, ratio)
        linear_inputs.append((job, ratio, plan))
        chain_inputs.append((as_chain(job), ratio, plan))

    sides = {
        "JobExecution": (_linear, linear_inputs),
        "private chain DAG": (_chain, chain_inputs),
        "per-task chain DAG": (_per_task_chain, chain_inputs),
    }
    best = dict.fromkeys(sides, float("inf"))
    for _ in range(args.repeats):
        times = {}
        for name, (make, inputs) in sides.items():
            seconds, times[name] = _pass(make, cluster, inputs)
            best[name] = min(best[name], seconds)
        for name in sides:
            if times[name] != times["JobExecution"]:
                raise SystemExit(f"FAIL: {name} completion times differ from JobExecution")
    linear = best["JobExecution"]
    print(f"{len(jobs)} jobs, best of {args.repeats}: "
          + "   ".join(f"{name} {seconds:.3f} s ({seconds / linear:.2f}x)"
                       for name, seconds in best.items()))


if __name__ == "__main__":
    main()
