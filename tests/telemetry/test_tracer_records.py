"""The Tracer's span records equal the decoded span events of the same run.

The hub hands a :class:`Tracer` each span's fields through ``write_span``
and builds a ``span`` event dict only for sinks without that method.  These
tests attach both kinds to one tracing hub and check that the records the
tracer built directly equal what :func:`spans_from_events` decodes from the
ring buffer's events — for the Fig. 11 policies, a sprint budget that runs
dry, a DAG run, a fleet with crash faults, and two runs on one hub — and
that attaching the tracer changes nothing in the event stream itself.
"""

from __future__ import annotations

from collections import Counter
from typing import Callable, List, Tuple

import pytest

from repro.core.config import SprintConfig
from repro.core.dias import DiASSimulation
from repro.core.policies import SchedulingPolicy
from repro.dag.simulation import DagSimulation
from repro.engine.cluster import Cluster
from repro.experiments.figures import dias_policies, limited_sprint_config
from repro.fleet.simulation import FleetSimulation
from repro.telemetry import RingBufferSink, TelemetryHub, Tracer
from repro.telemetry.spans import spans_from_events
from repro.workloads.scenarios import (
    HIGH,
    LOW,
    dag_fork_join_scenario,
    fleet_two_priority_scenario,
    reference_two_priority_scenario,
    triangle_count_scenario,
)

#: The base fields of a ``span`` event; none may leak into a record's extras.
BASE_FIELDS = ("t", "kind", "src", "span_id", "parent_id", "name", "cat", "start", "job_id")

Build = Callable[[TelemetryHub], List[object]]


def _fresh(cluster: Cluster) -> Cluster:
    return Cluster(config=cluster.config, dvfs=cluster.dvfs, power_model=cluster.power_model)


def _fig11(policy: SchedulingPolicy) -> Build:
    def build(hub: TelemetryHub) -> List[object]:
        scenario = triangle_count_scenario(40)
        return [
            DiASSimulation(
                policy=policy, jobs=scenario.generate_trace(seed=0),
                cluster=_fresh(scenario.cluster), seed=0, telemetry=hub,
            )
        ]
    return build


def _dry_budget(hub: TelemetryHub) -> List[object]:
    # A budget that never refills: sprints start, run dry and get denied.
    sprint = SprintConfig.limited_sprinting(
        budget_seconds=200.0, timeout=5.0, replenish_seconds_per_hour=0.0
    )
    scenario = reference_two_priority_scenario(num_jobs=40)
    return [
        DiASSimulation(
            policy=SchedulingPolicy.dias({HIGH: 0.0, LOW: 0.2}, sprint),
            jobs=scenario.generate_trace(seed=3), cluster=_fresh(scenario.cluster),
            seed=3, telemetry=hub,
        )
    ]


def _dag(hub: TelemetryHub) -> List[object]:
    scenario = dag_fork_join_scenario(num_jobs=20)
    return [
        DagSimulation(
            policy=SchedulingPolicy.differential_approximation({HIGH: 0.0, LOW: 0.2}),
            jobs=scenario.generate_trace(seed=2), scheduler="critical_path_first",
            cluster=scenario.cluster, seed=2, telemetry=hub,
        )
    ]


def _fleet_crash(hub: TelemetryHub) -> List[object]:
    scenario = fleet_two_priority_scenario(num_clusters=2, num_jobs_per_cluster=15)
    return [
        FleetSimulation(
            policy=SchedulingPolicy.preemptive_priority(),
            jobs=scenario.generate_trace(seed=4), clusters=scenario.make_clusters(),
            dispatcher="jsq", seed=4, telemetry=hub,
            faults="crash:mttf=250,repair=60",
        )
    ]


def _two_runs(hub: TelemetryHub) -> List[object]:
    return _fig11(SchedulingPolicy.preemptive_priority())(hub) + _dry_budget(hub)


CASES = {
    **{f"fig11-{policy.name}": _fig11(policy) for policy in dias_policies(limited_sprint_config())},
    "dry-budget": _dry_budget,
    "dag": _dag,
    "fleet-crash": _fleet_crash,
    "two-runs": _two_runs,
}


def _run(build: Build, tracer: bool) -> Tuple[TelemetryHub, RingBufferSink, Tracer]:
    hub = TelemetryHub(tracing=True)
    spans = hub.add_sink(Tracer()) if tracer else None
    ring = hub.add_sink(RingBufferSink(capacity=1 << 20))
    for simulation in build(hub):
        simulation.run()
    return hub, ring, spans


@pytest.fixture(scope="module")
def runs():
    """Per case: (hub, ring, tracer) with both sinks, then (hub, ring, None) alone."""
    return {
        name: (_run(build, tracer=True), _run(build, tracer=False))
        for name, build in CASES.items()
    }


@pytest.mark.parametrize("case", sorted(CASES))
def test_tracer_records_equal_the_decoded_span_events(runs, case):
    (hub, ring, tracer), (alone_hub, alone, _) = runs[case]
    records = tracer.spans
    assert records, "the run published no spans"
    assert records == spans_from_events(ring.events)
    assert tracer.events_seen == len(ring) == hub.events_emitted
    # Attaching the tracer changes neither the dict stream nor its count.
    assert ring.events == alone.events
    assert hub.events_emitted == alone_hub.events_emitted
    for record in records:
        assert not set(BASE_FIELDS) & set(record.extras), record


def test_cases_cover_every_span_category(runs):
    cats = Counter(
        record.cat for (_, _, tracer), _ in runs.values() for record in tracer.spans
    )
    for cat in ("job", "queue", "attempt", "wave", "stage", "task", "sprint",
                "drop", "evict", "denied", "route", "fault", "kernel"):
        assert cats[cat] > 0, cat


def test_two_runs_on_one_hub_are_runs_one_and_two(runs):
    (_, _, tracer), _ = runs["two-runs"]
    indices = [record.run for record in tracer.spans]
    assert indices == sorted(indices)
    assert set(indices) == {1, 2}
