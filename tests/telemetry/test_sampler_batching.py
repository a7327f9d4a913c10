"""Gap batching in the periodic sampler changes no byte of any run.

When a sampler tick fires, every later tick that sorts before the next heap
entry sees frozen state, so :class:`PeriodicSampler` emits those ticks in a
loop as virtual kernel events, from its sources' derive forms.  The
reference here is a test-local sampler that never batches: every tick is a
heap event and every source is sampled in full.  Each run below is made
twice, once with each sampler, and the whole telemetry stream (serialised
byte for byte, key order included) and every headline number of the result
must be equal.
"""

from __future__ import annotations

import json

import pytest

import repro.core.dias as dias_module
import repro.fleet.simulation as fleet_module
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
from repro.simulation.des import Simulator
from repro.telemetry import RingBufferSink, TelemetryHub
from repro.telemetry.sampler import SAMPLE_PRIORITY, PeriodicSampler, kernel_sample_source
from repro.workloads.scenarios import (
    HIGH,
    LOW,
    FleetScenario,
    dag_layered_scenario,
    reference_two_priority_scenario,
)


class _EveryTickOnTheHeap(PeriodicSampler):
    """The unbatched reference: one heap event and full samples per tick."""

    heap_ticks = 0

    def _tick(self, sim: Simulator) -> None:
        type(self).heap_ticks += 1
        self._pending = None
        if self._stopped:
            return
        self._sample()
        if self.should_continue is not None:
            alive = self.should_continue()
        else:
            alive = sim.pending_events > 0
        if alive:
            self._pending = sim.schedule(
                self.interval, self._tick, priority=SAMPLE_PRIORITY
            )


class _Batching(PeriodicSampler):
    """The sampler under test, counting the ticks that went through the heap."""

    heap_ticks = 0

    def _tick(self, sim: Simulator) -> None:
        type(self).heap_ticks += 1
        super()._tick(sim)


def _use(monkeypatch, sampler_cls) -> None:
    sampler_cls.heap_ticks = 0
    monkeypatch.setattr(dias_module, "PeriodicSampler", sampler_cls)
    monkeypatch.setattr(fleet_module, "PeriodicSampler", sampler_cls)


def _hub(interval: float) -> TelemetryHub:
    hub = TelemetryHub(sample_interval=interval)
    hub.add_sink(RingBufferSink(capacity=1 << 20))
    return hub


def _stream(hub: TelemetryHub) -> list:
    return [json.dumps(event) for event in hub.sinks[0].events]


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


def _both(monkeypatch, build, interval: float = 5.0, until=None):
    """Run ``build(hub)`` under the reference and the batching sampler."""
    outputs = []
    for sampler_cls in (_EveryTickOnTheHeap, _Batching):
        _use(monkeypatch, sampler_cls)
        hub = _hub(interval)
        simulation = build(hub)
        result = simulation.run() if until is None else simulation.run(until=until)
        outputs.append(
            (_summary(result), _stream(hub), simulation.sim.now, sampler_cls.heap_ticks)
        )
    return outputs


def _assert_identical(outputs):
    (ref_summary, ref_stream, ref_now, ref_heap), (summary, stream, now, heap) = outputs
    assert summary == ref_summary
    assert now == ref_now
    assert len(stream) == len(ref_stream)
    for index, (line, ref_line) in enumerate(zip(stream, ref_stream)):
        assert line == ref_line, f"event {index} differs"
    samples = sum(1 for line in stream if '"kind": "sample"' in line)
    assert samples > 0
    # Batching took some ticks off the heap: fewer heap ticks, same stream.
    assert heap < ref_heap


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


def test_preemptive_run_with_evictions(monkeypatch):
    outputs = _both(monkeypatch, _dias(SchedulingPolicy.preemptive_priority()))
    _assert_identical(outputs)
    assert json.loads(outputs[0][0])["evictions"] > 0


def test_sprinting_run_changes_speed_in_flight(monkeypatch):
    # Sprint after 5 s from a 200 s budget that never refills.
    sprint = SprintConfig.limited_sprinting(
        budget_seconds=200.0, timeout=5.0, replenish_seconds_per_hour=0.0
    )
    policy = SchedulingPolicy.dias({HIGH: 0.0, LOW: 0.2}, sprint)
    outputs = _both(monkeypatch, _dias(policy))
    _assert_identical(outputs)
    assert json.loads(outputs[0][0])["sprinted"] > 0.0


def test_crash_renewals_end_gaps(monkeypatch):
    build = _dias(
        SchedulingPolicy.non_preemptive_priority(),
        faults="crash:mttf=400,repair=40",
        utilisation=0.4,
    )
    outputs = _both(monkeypatch, build)
    _assert_identical(outputs)
    assert json.loads(outputs[0][0])["faults"]["crashes"] > 0


def test_fleet_with_a_streaming_job_source(monkeypatch):
    scenario = FleetScenario(
        base=reference_two_priority_scenario(num_jobs=60), num_clusters=3
    )

    def build(hub):
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

    _assert_identical(_both(monkeypatch, build))


def test_dag_run(monkeypatch):
    scenario = dag_layered_scenario(num_jobs=30)

    def build(hub):
        return DagSimulation(
            policy=SchedulingPolicy.preemptive_priority(),
            jobs=scenario.generate_trace(seed=5),
            scheduler="critical_path_first",
            cluster=scenario.cluster,
            seed=5,
            telemetry=hub,
        )

    _assert_identical(_both(monkeypatch, build, interval=2.0))


def test_run_until_inside_a_gap(monkeypatch):
    build = _dias(SchedulingPolicy.non_preemptive_priority(), utilisation=0.3)
    # Stop the run halfway between two ticks of an idle stretch (three
    # samples with only ticks in between) in the middle of the run.  The
    # cluster is idle at all three and no job arrived or finished between
    # the first and the third.
    full = _both(monkeypatch, build)
    events = [json.loads(line) for line in full[1][1]]
    samples = [e for e in events if e["kind"] == "sample" and e["src"] == "dias"]
    stretches = [
        second["t"] + 0.5 * (third["t"] - second["t"])
        for first, second, third in zip(samples, samples[1:], samples[2:])
        if first["running"] == second["running"] == third["running"] == 0.0
        and first["completed_jobs"] == third["completed_jobs"]
        and first["queue_depth"] == third["queue_depth"]
    ]
    assert len(stretches) > 2, "the trace has no idle stretch"
    until = stretches[len(stretches) // 2]
    outputs = _both(monkeypatch, build, until=until)
    _assert_identical(outputs)
    assert outputs[1][2] == until


def test_resume_from_a_checkpoint_taken_in_a_gap(monkeypatch, tmp_path):
    build = _dias(SchedulingPolicy.non_preemptive_priority(), num_jobs=40,
                  seed=7, utilisation=0.4)
    resumed = []
    for sampler_cls in (_EveryTickOnTheHeap, _Batching):
        _use(monkeypatch, sampler_cls)
        path = str(tmp_path / f"{sampler_cls.__name__}.ckpt")
        simulation = build(_hub(10.0))
        attach_dias_checkpointing(simulation, every=200.0, path=path)
        uninterrupted = simulation.run()
        payload = load_checkpoint(path)
        # Snapshots are taken at quiescent points, so an idle gap follows.
        assert 0.0 < payload["time"] < uninterrupted.duration
        hub = _hub(10.0)
        again = build(hub)
        restore_dias(again, payload)
        result = again.run()
        assert _summary(result) == _summary(uninterrupted)
        resumed.append((payload["time"], _summary(result), _stream(hub)))
    assert resumed[0] == resumed[1]


def test_gate_workload_batches_ticks(monkeypatch):
    """The telemetry-overhead benchmark's run takes many ticks off the heap."""
    scenario = reference_two_priority_scenario()
    _use(monkeypatch, _Batching)
    simulation = DiASSimulation(
        policy=SchedulingPolicy.preemptive_priority(),
        jobs=scenario.generate_trace(seed=0, num_jobs=80),
        cluster=Cluster(config=scenario.cluster.config, dvfs=scenario.cluster.dvfs,
                        power_model=scenario.cluster.power_model),
        seed=0,
        telemetry=_hub(5.0),
    )
    simulation.run()
    assert _Batching.heap_ticks < simulation._sampler.samples_taken


# ---------------------------------------------------------------- the kernel
def test_virtual_events_only_inside_run_and_before_the_heap_top():
    sim = Simulator()
    assert not sim.try_virtual_event(1.0, SAMPLE_PRIORITY)  # not running
    seen = []

    def probe(s):
        seen.append(s.try_virtual_event(1.5, SAMPLE_PRIORITY))   # before 2.0
        seen.append(s.try_virtual_event(2.0, 0))                 # ties lower priority
        seen.append(s.try_virtual_event(2.0, 1))                 # ties, same priority
        seen.append(s.try_virtual_event(2.5, SAMPLE_PRIORITY))   # after the top

    sim.schedule(1.0, probe)
    sim.schedule(2.0, lambda s: None, priority=1)
    sim.run()
    assert seen == [True, True, False, False]
    assert sim.scheduled_events == 4 and sim.processed_events == 4


def test_virtual_events_respect_until_and_max_events():
    verdicts = []

    def probe(s):
        verdicts.append(s.try_virtual_event(4.0, SAMPLE_PRIORITY))
        verdicts.append(s.try_virtual_event(6.0, SAMPLE_PRIORITY))

    sim = Simulator()
    sim.schedule(1.0, probe)
    sim.run(until=5.0)
    assert verdicts == [True, False]
    assert sim.now == 5.0

    sim = Simulator()
    sim.schedule(1.0, probe)
    sim.run(max_events=10)
    assert verdicts[2:] == [False, False]


def test_cancelled_heap_top_still_ends_a_gap():
    # The reference pops the cancelled entry before the tick, which changes
    # ``pending_events``; a virtual tick past it would not.
    sim = Simulator()
    verdicts = []
    sim.schedule(2.0, lambda s: None).cancel()
    sim.schedule(1.0, lambda s: verdicts.append(s.try_virtual_event(3.0, 9)))
    sim.run()
    assert verdicts == [False]


@pytest.mark.parametrize("tracing", [False, True])
def test_run_span_counts_virtual_events(tracing):
    hub = TelemetryHub(sample_interval=1.0, tracing=tracing)
    ring = hub.add_sink(RingBufferSink(capacity=1024))
    sim = Simulator(telemetry=hub)
    sim.schedule(10.0, lambda s: None)
    kernel = kernel_sample_source(sim)
    sampler = PeriodicSampler(sim, hub, 1.0, sources=[("kernel", kernel, kernel.derive)])
    sampler.start()
    sim.run()
    spans = [e for e in ring.events if e["kind"] == "span"]
    if tracing:
        # One workload event plus every tick, batched or not.
        assert spans[0]["events"] == sim.processed_events == 1 + sampler.samples_taken - 1
    else:
        assert spans == []


@pytest.mark.parametrize("until", [None, 4.25])
def test_virtual_ticks_equal_repeated_virtual_events(until):
    """One ``virtual_ticks`` call accounts what a loop of
    ``try_virtual_event`` calls would, stopping at the first refusal."""
    outcomes = []
    for batched in (False, True):
        sim = Simulator()
        seen = []

        def probe(s, seen=seen, batched=batched):
            if batched:
                seen.extend(s.virtual_ticks(s.now, 0.75, SAMPLE_PRIORITY))
                return
            now = s.now
            while True:
                now += 0.75
                if not s.try_virtual_event(now, SAMPLE_PRIORITY):
                    return
                seen.append(now)

        sim.schedule(1.0, probe)
        sim.schedule(5.5, lambda s: None, priority=1)
        sim.run(until=until)
        outcomes.append((seen, sim.now, sim.scheduled_events, sim.processed_events))
    assert outcomes[0] == outcomes[1]
    assert outcomes[0][0] == ([1.75, 2.5, 3.25, 4.0] if until else
                              [1.75, 2.5, 3.25, 4.0, 4.75])
