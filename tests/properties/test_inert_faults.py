"""A fault plan that can never fire leaves a traced run exactly as it was.

``stragglers:p=0;taskfail:p=0`` arms the fault injector, so every task is
dispatched and ended with the injector present, yet no draw can straggle or
fail a task.  The job records and the ``task``, ``wave`` and ``stage`` spans
(ids, parents, times and fields) must then equal those of the same run with
no fault plan at all.  Traced runs keep every attempt on the per-task path,
so this pins that task dispatch and task end behave alike with and without
an injector.
"""

from __future__ import annotations

import pytest

from repro.core.dias import DiASSimulation
from repro.core.policies import SchedulingPolicy
from repro.dag.simulation import DagSimulation
from repro.engine.cluster import Cluster
from repro.experiments.figures import dias_policies, limited_sprint_config
from repro.telemetry import TelemetryHub, Tracer
from repro.workloads.scenarios import (
    HIGH,
    LOW,
    dag_layered_scenario,
    triangle_count_scenario,
)

INERT = "stragglers:p=0;taskfail:p=0"
SEED = 3
TASK_CATS = ("task", "wave", "stage")


def _mapreduce_run(policy_index: int, faults):
    scenario = triangle_count_scenario(30)
    policy = dias_policies(limited_sprint_config())[policy_index]
    hub = TelemetryHub(tracing=True)
    tracer = hub.add_sink(Tracer())
    template = scenario.cluster
    result = DiASSimulation(
        policy=policy,
        jobs=scenario.generate_trace(seed=SEED),
        cluster=Cluster(
            config=template.config, dvfs=template.dvfs, power_model=template.power_model
        ),
        seed=SEED,
        telemetry=hub,
        faults=faults,
    ).run()
    return result, tracer


def _dag_run(policy: SchedulingPolicy, faults):
    scenario = dag_layered_scenario(num_jobs=30)
    hub = TelemetryHub(tracing=True)
    tracer = hub.add_sink(Tracer())
    result = DagSimulation(
        policy=policy,
        jobs=scenario.generate_trace(seed=SEED),
        scheduler="critical_path_first",
        cluster=scenario.cluster,
        seed=SEED,
        telemetry=hub,
        faults=faults,
    ).run()
    return result, tracer


def _assert_inert(run):
    clean, clean_tracer = run(None)
    armed, armed_tracer = run(INERT)
    assert armed.metrics.records == clean.metrics.records
    assert all(value == 0 for value in armed.fault_counts.values())
    clean_spans = [s for s in clean_tracer.spans if s.cat in TASK_CATS]
    armed_spans = [s for s in armed_tracer.spans if s.cat in TASK_CATS]
    assert any(span.cat == "task" for span in clean_spans)
    assert armed_spans == clean_spans


@pytest.mark.parametrize("policy_index", [0, 1, 2], ids=["P", "DiAS(0/10)", "DiAS(0/20)"])
def test_inert_faults_leave_a_traced_mapreduce_run_unchanged(policy_index):
    _assert_inert(lambda faults: _mapreduce_run(policy_index, faults))


@pytest.mark.parametrize(
    "policy",
    [
        SchedulingPolicy.preemptive_priority(),
        SchedulingPolicy.differential_approximation({HIGH: 0.0, LOW: 0.2}),
    ],
    ids=["P", "DA(0/20)"],
)
def test_inert_faults_leave_a_traced_dag_run_unchanged(policy):
    _assert_inert(lambda faults: _dag_run(policy, faults))
