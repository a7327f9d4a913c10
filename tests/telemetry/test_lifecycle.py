"""The lifecycle probe: one report per controller transition, late sinks."""

from __future__ import annotations

from typing import Callable

import pytest

from repro.core.config import SprintConfig
from repro.core.dias import DiASSimulation
from repro.core.policies import SchedulingPolicy
from repro.fleet.simulation import FleetSimulation
from repro.telemetry import RingBufferSink, TelemetryHub
from repro.workloads.scenarios import (
    HIGH,
    LOW,
    fleet_two_priority_scenario,
    reference_two_priority_scenario,
)


def _sprinting_policy() -> SchedulingPolicy:
    # A budget that never refills: sprints start, run dry and get denied.
    sprint = SprintConfig.limited_sprinting(
        budget_seconds=200.0, timeout=5.0, replenish_seconds_per_hour=0.0
    )
    return SchedulingPolicy.dias({HIGH: 0.0, LOW: 0.2}, sprint)


def _dias(hub: TelemetryHub) -> DiASSimulation:
    scenario = reference_two_priority_scenario(num_jobs=40)
    return DiASSimulation(
        policy=_sprinting_policy(),
        jobs=scenario.generate_trace(seed=3),
        cluster=scenario.cluster,
        seed=3,
        telemetry=hub,
        faults="taskfail:p=0.05,retries=1",
    )


def _fleet(hub: TelemetryHub) -> FleetSimulation:
    scenario = fleet_two_priority_scenario(num_clusters=2, num_jobs_per_cluster=15)
    return FleetSimulation(
        policy=_sprinting_policy(),
        jobs=scenario.generate_trace(seed=5),
        clusters=scenario.make_clusters(),
        dispatcher="jsq",
        sprint_budget="shared",
        seed=5,
        telemetry=hub,
        faults="crash:mttf=1500,repair=60",
    )


def _stream(build: Callable[[TelemetryHub], object], late: bool) -> list:
    hub = TelemetryHub(sample_interval=20.0, tracing=True)
    sink = RingBufferSink(capacity=1 << 20)
    if not late:
        hub.add_sink(sink)
    simulation = build(hub)
    if late:
        hub.add_sink(sink)
    simulation.run()
    return sink.events


@pytest.mark.parametrize("build", [_dias, _fleet], ids=["dias", "fleet"])
def test_sink_attached_after_construction_sees_the_same_stream(build):
    early = _stream(build, late=False)
    assert any(e["kind"] == "span" and e["cat"] == "sprint" for e in early)
    assert _stream(build, late=True) == early


def test_each_sprint_transition_is_reported_once():
    hub = TelemetryHub(tracing=True)
    sink = hub.add_sink(RingBufferSink(capacity=1 << 20))
    simulation = _dias(hub)
    simulation.run()
    events = sink.events
    sprinter = simulation.sprinter

    def count(kind: str, **fields) -> int:
        return sum(
            1 for e in events
            if e["kind"] == kind and all(e.get(k) == v for k, v in fields.items())
        )

    assert sprinter.sprints_started > 0 and sprinter.sprints_denied > 0
    assert count("sprint_start") == sprinter.sprints_started
    assert count("dvfs_transition", mode="sprint") == sprinter.sprints_started
    assert count("sprint_end") == count("span", cat="sprint") == sprinter.sprints_started
    assert count("sprint_denied") == count("span", cat="denied") == sprinter.sprints_denied
    sprinted = sum(e["sprinted"] for e in events if e["kind"] == "sprint_end")
    assert sprinted == pytest.approx(sprinter.total_sprinted_seconds)
