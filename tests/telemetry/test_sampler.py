"""Tests for the simulator-clock periodic sampler."""

from __future__ import annotations

import pytest

from repro.simulation.des import Simulator
from repro.telemetry import (
    PeriodicSampler,
    RingBufferSink,
    TelemetryHub,
    kernel_sample_source,
)


def _hub_with_ring():
    hub = TelemetryHub(sample_interval=1.0)
    ring = hub.add_sink(RingBufferSink(capacity=1024))
    return hub, ring


def _recording_source(name, state, calls):
    """A ``(src, rows)`` source reading ``state["value"]``; records each
    ``rows`` call's times in ``calls``."""

    def rows(times):
        calls.append((name, list(times)))
        return [{"value": state["value"], "t": t} for t in times]

    return (name, rows)


def _samples(ring):
    return [e for e in ring.events if e["kind"] == "sample"]


def test_samples_every_interval_without_touching_the_heap():
    sim = Simulator()
    hub, ring = _hub_with_ring()
    for i in range(5):
        sim.schedule(float(i) + 0.5, lambda s: None)
    sampler = PeriodicSampler(sim, hub, 1.0,
                              sources=[_recording_source("x", {"value": 0}, [])])
    sampler.start()
    sim.run()
    times = [e["t"] for e in _samples(ring)]
    # A baseline at 0 and every tick before the last event (4.5).
    assert times == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert sampler.samples_taken == 5
    # Ticks are not events: the kernel counts the workload's five only.
    assert sim.scheduled_events == sim.processed_events == 5
    assert sim.now == 4.5


def test_rows_get_kind_and_src_after_their_fields():
    sim = Simulator()
    hub, ring = _hub_with_ring()
    sim.schedule(1.5, lambda s: None)
    PeriodicSampler(sim, hub, 1.0,
                    sources=[_recording_source("x", {"value": 7}, [])]).start()
    sim.run()
    assert [list(e) for e in _samples(ring)] == [["value", "t", "kind", "src"]] * 2


def test_a_tick_at_t_sees_the_state_after_every_event_at_t():
    sim = Simulator()
    hub, ring = _hub_with_ring()
    state = {"value": 0.0}

    def bump(value):
        def callback(_sim):
            state["value"] = value

        return callback

    sim.schedule(1.0, bump(1.0), priority=0)
    sim.schedule(1.0, bump(2.0), priority=7)
    sim.schedule(1.25, bump(3.0))
    # The first event past tick 2 falls on tick 3 itself.
    sim.schedule(3.0, bump(4.0))
    sim.schedule(3.5, bump(5.0))
    PeriodicSampler(sim, hub, 1.0, sources=[_recording_source("probe", state, [])]).start()
    sim.run()
    values = {e["t"]: e["value"] for e in _samples(ring)}
    assert values == {0.0: 0.0, 1.0: 2.0, 2.0: 3.0, 3.0: 4.0}


def test_each_flush_makes_one_rows_call_per_source_interleaved_by_tick():
    sim = Simulator()
    hub, ring = _hub_with_ring()
    calls = []
    state = {"value": 0.0}
    sim.schedule(4.5, lambda s: None)
    sim.schedule(6.5, lambda s: None)
    sampler = PeriodicSampler(sim, hub, 1.0, sources=[
        _recording_source("a", state, calls), _recording_source("b", state, calls),
    ])
    sampler.start()
    sim.run()
    assert calls == [
        ("a", [0.0]), ("b", [0.0]),
        ("a", [1.0, 2.0, 3.0, 4.0]), ("b", [1.0, 2.0, 3.0, 4.0]),
        ("a", [5.0, 6.0]), ("b", [5.0, 6.0]),
    ]
    rows = [(e["t"], e["src"]) for e in _samples(ring)]
    assert rows == [(float(t), src) for t in range(7) for src in "ab"]
    assert sampler.samples_taken == 7


def test_run_until_emits_the_ticks_up_to_and_including_until():
    sim = Simulator()
    hub, ring = _hub_with_ring()
    sim.schedule(1.5, lambda s: None)
    sim.schedule(10.5, lambda s: None)
    PeriodicSampler(sim, hub, 1.0,
                    sources=[_recording_source("x", {"value": 0}, [])]).start()
    assert sim.run(until=4.0) == 4.0
    assert [e["t"] for e in _samples(ring)] == [0.0, 1.0, 2.0, 3.0, 4.0]
    sim.run(until=4.5)
    assert len(_samples(ring)) == 5
    sim.run()
    assert [e["t"] for e in _samples(ring)][5:] == [5.0, 6.0, 7.0, 8.0, 9.0, 10.0]


def test_the_drain_predicate_ends_sampling_at_the_unsampled_end_time():
    def build(sampled):
        sim = Simulator()
        hub, ring = _hub_with_ring()
        done = {"value": 0}

        def finish(_sim):
            done["value"] = 1

        sim.schedule(2.5, finish)
        # Events after the drain (a renewal process winding down, say) must
        # not be sampled.
        sim.schedule(7.5, lambda s: None)
        if sampled:
            PeriodicSampler(sim, hub, 1.0,
                            sources=[_recording_source("x", done, [])],
                            should_continue=lambda: not done["value"]).start()
        return sim, ring

    plain, _ = build(False)
    sampled, ring = build(True)
    assert sampled.run() == plain.run() == 7.5
    assert sampled.scheduled_events == plain.scheduled_events
    # Ticks 1 and 2 came before the drain at 2.5; none came after it.
    assert [(e["t"], e["value"]) for e in _samples(ring)] == [
        (0.0, 0), (1.0, 0), (2.0, 0),
    ]


def test_kernel_source_rate_is_per_simulated_second():
    hub, _ring = _hub_with_ring()
    sim = Simulator(telemetry=hub)
    kernel = kernel_sample_source(sim)
    assert kernel()["events_per_simsec"] == 0.0  # no time elapsed
    for i in range(10):
        sim.schedule(0.5 * (i + 1), lambda s: None)
    sim.run()
    row = kernel()
    assert row["processed_events"] == row["scheduled_events"] == 10
    assert row["pending_events"] == 0
    assert row["events_per_simsec"] == 10 / 5.0


def test_sampler_validates_arguments():
    sim = Simulator()
    hub, _ = _hub_with_ring()
    source = _recording_source("x", {"value": 0}, [])
    with pytest.raises(ValueError):
        PeriodicSampler(sim, hub, 0.0, sources=[source])
    with pytest.raises(ValueError):
        PeriodicSampler(sim, hub, 1.0, sources=[])
    sampler = PeriodicSampler(sim, hub, 1.0, sources=[source])
    sampler.start()
    with pytest.raises(RuntimeError):
        sampler.start()
