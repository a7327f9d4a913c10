"""Checkpoint/resume: file format, state round-trip, mismatch detection."""

from __future__ import annotations

import pickle
from types import SimpleNamespace

import pytest

from repro.core.dias import DiASSimulation
from repro.core.policies import SchedulingPolicy
from repro.engine.cluster import Cluster
from repro.faults.checkpoint import (
    CHECKPOINT_VERSION,
    arrived_count,
    attach_dias_checkpointing,
    dias_state,
    load_checkpoint,
    restore_dias,
    restore_fleet,
    save_checkpoint,
)
from repro.fleet.simulation import FleetSimulation
from repro.workloads.scenarios import (
    FleetScenario,
    reference_two_priority_scenario,
)

SPEC = "crash:mttf=400,repair=40;taskfail:p=0.05,retries=2"


def _low_load_fleet_scenario(num_jobs: int = 40) -> FleetScenario:
    # Quiescent points (nothing queued, running, or routed-but-unfinished)
    # are rare at the reference ~80% load; checkpoint tests need the idle
    # gaps a 40%-load trace creates.
    return FleetScenario(
        base=reference_two_priority_scenario(num_jobs=num_jobs).with_utilisation(0.4),
        num_clusters=2,
    )


def _fleet(scenario: FleetScenario, seed: int = 11, **kwargs) -> FleetSimulation:
    return FleetSimulation(
        policy=SchedulingPolicy.non_preemptive_priority(),
        jobs=scenario.generate_trace(seed=seed),
        clusters=scenario.make_clusters(),
        dispatcher="round_robin",
        seed=seed,
        faults=SPEC,
        **kwargs,
    )


def test_arrived_count_counts_arrivals_tied_at_now():
    jobs = [SimpleNamespace(arrival_time=t) for t in (1.0, 2.0, 2.0, 2.0, 5.0)]
    assert arrived_count(jobs, 0.5) == 0
    assert arrived_count(jobs, 1.0) == 1
    assert arrived_count(jobs, 2.0) == 4
    assert arrived_count(jobs, 4.999) == 4
    assert arrived_count(jobs, 5.0) == 5
    assert arrived_count([], 5.0) == 0


def test_save_load_round_trip(tmp_path):
    path = str(tmp_path / "state.ckpt")
    save_checkpoint(path, {"magic": "repro-checkpoint",
                           "version": CHECKPOINT_VERSION, "x": 1})
    assert load_checkpoint(path)["x"] == 1


def test_load_rejects_non_checkpoint_pickle(tmp_path):
    path = str(tmp_path / "junk.ckpt")
    with open(path, "wb") as handle:
        pickle.dump({"hello": "world"}, handle)
    with pytest.raises(ValueError, match="not a repro checkpoint"):
        load_checkpoint(path)


def test_load_rejects_future_version(tmp_path):
    path = str(tmp_path / "future.ckpt")
    save_checkpoint(path, {"magic": "repro-checkpoint",
                           "version": CHECKPOINT_VERSION + 1})
    with pytest.raises(ValueError, match="unsupported checkpoint version"):
        load_checkpoint(path)


def test_fleet_checkpoint_resume_is_bitwise_identical(tmp_path):
    path = str(tmp_path / "fleet.ckpt")
    scenario = _low_load_fleet_scenario()

    reference = _fleet(scenario).run()

    interrupted = _fleet(scenario, checkpoint_every=50.0, checkpoint_path=path)
    interrupted.run(until=reference.duration * 0.6)
    payload = load_checkpoint(path)
    assert payload["kind"] == "fleet"
    assert 0 < payload["routed"] < 80  # genuinely mid-run

    resumed_sim = _fleet(scenario)
    resumed_sim.restore(payload)
    resumed = resumed_sim.run()

    assert resumed.summary() == reference.summary()
    assert dict(resumed.fault_counts) == dict(reference.fault_counts)


def test_checkpointing_does_not_perturb_the_run(tmp_path):
    scenario = _low_load_fleet_scenario()
    plain = _fleet(scenario).run()
    checkpointed = _fleet(
        scenario,
        checkpoint_every=50.0,
        checkpoint_path=str(tmp_path / "fleet.ckpt"),
    ).run()
    assert checkpointed.summary() == plain.summary()


def test_restore_rejects_wrong_kind(tmp_path):
    scenario = _low_load_fleet_scenario()
    fleet = _fleet(scenario)
    with pytest.raises(ValueError, match="cannot resume a fleet run"):
        restore_fleet(fleet, {"kind": "dias", "time": 0.0})


def test_restore_rejects_cluster_count_mismatch(tmp_path):
    path = str(tmp_path / "fleet.ckpt")
    scenario = _low_load_fleet_scenario()
    interrupted = _fleet(scenario, checkpoint_every=50.0, checkpoint_path=path)
    interrupted.run(until=6000.0)
    payload = load_checkpoint(path)

    other = FleetScenario(base=scenario.base, num_clusters=3)
    fleet = _fleet(other)
    with pytest.raises(ValueError, match="configurations must match"):
        fleet.restore(payload)


def test_restore_rejects_fault_spec_mismatch(tmp_path):
    path = str(tmp_path / "fleet.ckpt")
    scenario = _low_load_fleet_scenario()
    interrupted = _fleet(scenario, checkpoint_every=50.0, checkpoint_path=path)
    interrupted.run(until=6000.0)
    payload = load_checkpoint(path)

    faultless = FleetSimulation(
        policy=SchedulingPolicy.non_preemptive_priority(),
        jobs=scenario.generate_trace(seed=11),
        clusters=scenario.make_clusters(),
        dispatcher="round_robin",
        seed=11,
    )
    with pytest.raises(ValueError, match="same --faults spec"):
        faultless.restore(payload)


def _dias_simulation(seed: int = 7, faults=SPEC) -> DiASSimulation:
    scenario = reference_two_priority_scenario(num_jobs=40).with_utilisation(0.4)
    source = scenario.cluster
    cluster = Cluster(
        config=source.config, dvfs=source.dvfs, power_model=source.power_model
    )
    return DiASSimulation(
        policy=SchedulingPolicy.non_preemptive_priority(),
        jobs=scenario.generate_trace(seed=seed),
        cluster=cluster,
        seed=seed,
        faults=faults,
    )


def test_dias_checkpoint_resume_is_bitwise_identical(tmp_path):
    path = str(tmp_path / "dias.ckpt")

    reference = _dias_simulation().run()

    interrupted = _dias_simulation()
    attach_dias_checkpointing(interrupted, every=50.0, path=path)
    interrupted.run(until=reference.duration * 0.6)
    payload = load_checkpoint(path)
    assert payload["kind"] == "dias"

    resumed_sim = _dias_simulation()
    restore_dias(resumed_sim, payload)
    resumed = resumed_sim.run()

    assert resumed.mean_response_time() == reference.mean_response_time()
    assert resumed.total_energy_joules == reference.total_energy_joules
    assert resumed.completed_jobs == reference.completed_jobs
    assert dict(resumed.fault_counts) == dict(reference.fault_counts)


def test_dias_checkpointing_survives_periodic_sampling(tmp_path):
    # The sampler's end-of-run stop must not displace the checkpoint hook:
    # both react to completions of the same run.
    from repro.telemetry import RingBufferSink, TelemetryHub

    path = tmp_path / "dias.ckpt"
    hub = TelemetryHub(sample_interval=10.0)
    sink = hub.add_sink(RingBufferSink(capacity=1 << 16))
    scenario = reference_two_priority_scenario(num_jobs=40).with_utilisation(0.4)
    simulation = DiASSimulation(
        policy=SchedulingPolicy.non_preemptive_priority(),
        jobs=scenario.generate_trace(seed=7),
        cluster=Cluster(config=scenario.cluster.config),
        seed=7,
        telemetry=hub,
    )
    attach_dias_checkpointing(simulation, every=50.0, path=str(path))
    result = simulation.run()
    assert load_checkpoint(str(path))["kind"] == "dias"
    sample_times = [event["t"] for event in sink.events if event["kind"] == "sample"]
    assert sample_times and max(sample_times) <= result.duration


def test_attach_dias_checkpointing_rejects_bad_interval():
    simulation = _dias_simulation()
    with pytest.raises(ValueError, match="must be positive"):
        attach_dias_checkpointing(simulation, every=0.0, path="x.ckpt")


def test_dias_state_kind_cannot_resume_fleet(tmp_path):
    simulation = _dias_simulation()
    payload = dias_state(simulation)
    scenario = _low_load_fleet_scenario()
    with pytest.raises(ValueError, match="cannot resume a fleet run"):
        _fleet(scenario).restore(payload)
