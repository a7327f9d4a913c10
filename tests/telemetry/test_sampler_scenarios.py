"""Pinned sample streams: seven sampled runs whose observable output is fixed.

Each run below streams telemetry with a periodic sampler and is hashed into
one SHA-256 digest: every headline number of its result, then every event of
its telemetry stream serialised at emission (key order included) except the
``kernel`` ones.  Kernel rows and heap compactions count the engine's own
events, which a change to how sample ticks are scheduled may move; the
controller, fleet and lifecycle events must not move.  The scenarios cover
what can end or split a stretch between two samples: preemptive evictions,
in-flight speed changes, crash renewals, a streaming fleet, DAG attempts, a
run cut off by ``until`` inside an idle stretch, and a resume from a
checkpoint taken in an idle stretch.

``python tests/telemetry/test_sampler_scenarios.py`` prints the current
digests.
"""

from __future__ import annotations

import hashlib
import json
from typing import Callable, Dict, List

import pytest

from repro.core.config import SprintConfig
from repro.core.dias import DiASSimulation
from repro.core.policies import SchedulingPolicy
from repro.dag.simulation import DagSimulation
from repro.engine.cluster import Cluster
from repro.faults.checkpoint import (
    attach_dias_checkpointing,
    load_checkpoint,
    restore_dias,
)
from repro.fleet.simulation import FleetSimulation
from repro.telemetry import CallbackSink, TelemetryHub
from repro.workloads.scenarios import (
    HIGH,
    LOW,
    FleetScenario,
    dag_layered_scenario,
    reference_two_priority_scenario,
)

#: The idle stretch that ``run-until-in-a-gap`` stops in: halfway between two
#: samples (interval 5) of an idle cluster, in the middle of the full run,
#: which ends at about 13,714.
_UNTIL_IN_A_GAP = 7232.5


def _hub(interval: float, lines: List[str]) -> TelemetryHub:
    hub = TelemetryHub(sample_interval=interval)

    def keep(event: dict) -> None:
        if event.get("src") != "kernel":
            lines.append(json.dumps(event))

    hub.add_sink(CallbackSink(keep))
    return hub


def _summary(result) -> str:
    fields = {
        "completed": result.completed_jobs,
        "duration": result.duration,
        "energy": result.total_energy_joules,
        "sprinted": result.sprinted_seconds,
        "evictions": result.evictions,
        "faults": getattr(result, "fault_counts", None),
    }
    if hasattr(result, "summary"):
        fields["summary"] = result.summary()
    else:
        fields["classes"] = {
            str(p): [result.mean_response_time(p), result.tail_response_time(p)]
            for p in result.priorities()
        }
    return json.dumps(fields, sort_keys=True)


def _digest(parts: List[str]) -> str:
    sha = hashlib.sha256()
    for part in parts:
        data = part.encode()
        sha.update(len(data).to_bytes(8, "big"))
        sha.update(data)
    return sha.hexdigest()


def _dias(policy, num_jobs=60, seed=3, faults=None, utilisation=None):
    scenario = reference_two_priority_scenario(num_jobs=num_jobs)
    if utilisation is not None:
        scenario = scenario.with_utilisation(utilisation)

    def build(hub):
        return DiASSimulation(
            policy=policy,
            jobs=scenario.generate_trace(seed=seed),
            cluster=Cluster(config=scenario.cluster.config, dvfs=scenario.cluster.dvfs,
                            power_model=scenario.cluster.power_model),
            seed=seed,
            telemetry=hub,
            faults=faults,
        )

    return build


def _sprinting():
    # Sprint after 5 s from a 200 s budget that never refills.
    sprint = SprintConfig.limited_sprinting(
        budget_seconds=200.0, timeout=5.0, replenish_seconds_per_hour=0.0
    )
    return _dias(SchedulingPolicy.dias({HIGH: 0.0, LOW: 0.2}, sprint))


def _streaming_fleet(hub):
    scenario = FleetScenario(
        base=reference_two_priority_scenario(num_jobs=60), num_clusters=3
    )
    return FleetSimulation(
        policy=SchedulingPolicy.preemptive_priority(),
        jobs=[],
        job_source=iter(scenario.generate_trace(seed=4)),
        streaming_metrics=True,
        clusters=scenario.make_clusters(),
        dispatcher="least_work_left",
        seed=4,
        telemetry=hub,
    )


def _dag(hub):
    scenario = dag_layered_scenario(num_jobs=30)
    return DagSimulation(
        policy=SchedulingPolicy.preemptive_priority(),
        jobs=scenario.generate_trace(seed=5),
        scheduler="critical_path_first",
        cluster=scenario.cluster,
        seed=5,
        telemetry=hub,
    )


def _run(build, interval: float = 5.0, until=None) -> str:
    lines: List[str] = []
    simulation = build(_hub(interval, lines))
    result = simulation.run() if until is None else simulation.run(until=until)
    assert any('"kind": "sample"' in line for line in lines)
    return _digest([_summary(result), repr(simulation.sim.now)] + lines)


def _resume_in_a_gap(tmp_path) -> str:
    build = _dias(SchedulingPolicy.non_preemptive_priority(), num_jobs=40,
                  seed=7, utilisation=0.4)
    path = str(tmp_path / "gap.ckpt")
    first: List[str] = []
    simulation = build(_hub(10.0, first))
    attach_dias_checkpointing(simulation, every=200.0, path=path)
    uninterrupted = simulation.run()
    payload = load_checkpoint(path)
    # Snapshots are taken at quiescent points, so an idle stretch follows.
    assert 0.0 < payload["time"] < uninterrupted.duration
    second: List[str] = []
    again = build(_hub(10.0, second))
    restore_dias(again, payload)
    result = again.run()
    assert _summary(result) == _summary(uninterrupted)
    return _digest(
        [_summary(uninterrupted), repr(payload["time"])] + first + ["resumed"] + second
    )


SCENARIOS: Dict[str, Callable] = {
    "preemptive-evictions": lambda tmp: _run(
        _dias(SchedulingPolicy.preemptive_priority())),
    "sprinting": lambda tmp: _run(_sprinting()),
    "crash-renewals": lambda tmp: _run(_dias(
        SchedulingPolicy.non_preemptive_priority(),
        faults="crash:mttf=400,repair=40", utilisation=0.4)),
    "streaming-fleet": lambda tmp: _run(_streaming_fleet),
    "dag-cpfirst": lambda tmp: _run(_dag, interval=2.0),
    "run-until-in-a-gap": lambda tmp: _run(
        _dias(SchedulingPolicy.non_preemptive_priority(), utilisation=0.3),
        until=_UNTIL_IN_A_GAP),
    "resume-in-a-gap": _resume_in_a_gap,
}

DIGESTS: Dict[str, str] = {
    "preemptive-evictions": "9890b23193645f9bfddc6fdfe51d12149124ffeb8a4f1e5114c2122dcd9c2dc5",
    "sprinting": "514a0696a9f93ec665860b827c4fae5edc60c53c5995c8009876aaa0d5ab618c",
    "crash-renewals": "bd4fdc3f84ebd113dc254a84c82abadd7b6fa4e73f3df3049904c4f7556fa244",
    "streaming-fleet": "429ffdc7ca516e9910e73542aa3aa537636bfe07897c0615fdbf967e1eeb4a19",
    "dag-cpfirst": "9016671d7fd835dee9ee5cb516f50a6a7f0d470bc4db2b6f3322ce6a84769a59",
    "run-until-in-a-gap": "d46d501de1aa09267780f62014adf4bba36ea2649385457b153cea54a8dd7a09",
    "resume-in-a-gap": "42f429762f691a4955dd4bb43c37f68b415fb8fecb1f8f877a873976a3faf750",
}


@pytest.mark.parametrize("name", list(SCENARIOS))
def test_sampled_scenario_digest_is_unchanged(name, tmp_path):
    assert SCENARIOS[name](tmp_path) == DIGESTS[name]


if __name__ == "__main__":  # pragma: no cover - digest recording helper
    import pathlib
    import tempfile

    with tempfile.TemporaryDirectory() as workdir:
        for scenario in SCENARIOS:
            print(f'    "{scenario}": "{SCENARIOS[scenario](pathlib.Path(workdir))}",')
