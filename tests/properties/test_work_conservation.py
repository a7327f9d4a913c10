"""Work conservation: one job at a time, and never an idle cluster with work waiting.

A cluster runs one job at a time.  Sorted by start time, every completed job
must therefore start exactly when the later of two things happens: the
previous job's completion and its own arrival.  Starting earlier means two
jobs overlap; starting later means the job waited while the cluster idled.
Both are compared with float ``==``, because the kernel hands the cluster to
the next job at the completion event's own time.

Under ``P`` an evicted job restarts; its record keeps the start of the run
that completed, so the law holds on the completed runs as well.
"""

from __future__ import annotations

from typing import List

import pytest

from repro.core.dias import DiASSimulation
from repro.core.policies import SchedulingPolicy
from repro.dag.simulation import DagSimulation
from repro.engine.cluster import Cluster
from repro.experiments.figures import limited_sprint_config
from repro.workloads.scenarios import (
    HIGH,
    LOW,
    dag_layered_scenario,
    reference_two_priority_scenario,
)

SEEDS = (0, 1, 2)

POLICIES = {
    "P": lambda: SchedulingPolicy.preemptive_priority(),
    "NP": lambda: SchedulingPolicy.non_preemptive_priority(),
    "DA(0/20)": lambda: SchedulingPolicy.differential_approximation({HIGH: 0.0, LOW: 0.2}),
    "DiAS": lambda: SchedulingPolicy.dias({HIGH: 0.0, LOW: 0.2}, limited_sprint_config()),
}


def violations(records) -> List[str]:
    """Every completed job that overlaps its predecessor or starts late."""
    ordered = sorted(records, key=lambda record: record.start_time)
    found = []
    previous_end = float("-inf")
    for record in ordered:
        due = max(previous_end, record.arrival_time)
        if record.start_time != due:
            found.append(
                f"job {record.job_id} starts at {record.start_time!r}, "
                f"expected {due!r}"
            )
        previous_end = record.completion_time
    return found


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", list(POLICIES))
def test_dias_cluster_is_work_conserving(policy, seed):
    scenario = reference_two_priority_scenario()
    source = scenario.cluster
    result = DiASSimulation(
        policy=POLICIES[policy](),
        jobs=scenario.generate_trace(seed=seed, num_jobs=400),
        cluster=Cluster(config=source.config, dvfs=source.dvfs, power_model=source.power_model),
        seed=seed,
    ).run()
    assert result.completed_jobs == 400
    assert violations(result.metrics.records) == []


@pytest.mark.parametrize("seed", SEEDS)
@pytest.mark.parametrize("policy", ["P", "NP", "DA(0/20)"])
def test_dag_cluster_is_work_conserving(policy, seed):
    scenario = dag_layered_scenario(num_jobs=150)
    result = DagSimulation(
        policy=POLICIES[policy](),
        jobs=scenario.generate_trace(seed=seed),
        scheduler="critical_path_first",
        cluster=scenario.cluster,
        seed=seed,
    ).run()
    assert result.completed_jobs == 150
    assert violations(result.metrics.records) == []


def test_the_law_catches_an_overlap_and_an_idle_wait():
    class Record:
        def __init__(self, job_id, arrival, start, end):
            self.job_id = job_id
            self.arrival_time = arrival
            self.start_time = start
            self.completion_time = end

    good = [Record(0, 0.0, 0.0, 5.0), Record(1, 1.0, 5.0, 6.0), Record(2, 9.0, 9.0, 10.0)]
    assert violations(good) == []
    overlap = [Record(0, 0.0, 0.0, 5.0), Record(1, 1.0, 4.0, 6.0)]
    assert len(violations(overlap)) == 1
    idle = [Record(0, 0.0, 0.0, 5.0), Record(1, 1.0, 5.5, 6.0)]
    assert len(violations(idle)) == 1
