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


def test_samples_every_interval():
    sim = Simulator()
    hub, ring = _hub_with_ring()
    for i in range(5):
        sim.schedule(float(i), lambda s: None)
    sampler = PeriodicSampler(sim, hub, 1.0,
                              sources=[("kernel", kernel_sample_source(sim))])
    sampler.start()
    sim.run()
    times = [e["t"] for e in ring.events if e["kind"] == "sample"]
    # Baseline at t=0 plus one tick per interval while work remained.
    assert times[0] == 0.0
    assert times == sorted(times)
    assert sampler.samples_taken == len(times)


def test_sampler_stop_prevents_clock_advance():
    """A cancelled trailing tick must not advance the kernel clock."""
    sim = Simulator()
    hub, _ring = _hub_with_ring()
    sim.schedule(2.5, lambda s: None)
    sampler = PeriodicSampler(sim, hub, 1.0,
                              sources=[("kernel", kernel_sample_source(sim))],
                              should_continue=lambda: True)
    sampler.start()
    # Stop as soon as the workload's only event fires (t=2.5); the pending
    # tick at t=3.0 is cancelled and must be skipped without advancing time.
    sim.schedule(2.5, lambda s: sampler.stop(), priority=10)
    end = sim.run()
    assert end == 2.5
    assert sim.now == 2.5


def test_sampler_without_stop_overruns_the_workload():
    """Control for the stop() test: the trailing tick advances the clock."""
    sim = Simulator()
    hub, _ring = _hub_with_ring()
    sim.schedule(2.5, lambda s: None)
    sampler = PeriodicSampler(sim, hub, 1.0,
                              sources=[("kernel", kernel_sample_source(sim))])
    sampler.start()
    end = sim.run()
    assert end > 2.5


def test_sample_priority_observes_post_state():
    """Samples at time T run after engine events scheduled at T."""
    sim = Simulator()
    hub, ring = _hub_with_ring()
    state = {"value": 0.0}

    def bump(s):
        state["value"] = 1.0

    sim.schedule(1.0, bump)  # priority 0 < SAMPLE_PRIORITY
    sampler = PeriodicSampler(sim, hub, 1.0,
                              sources=[("probe", lambda: dict(state))])
    sampler.start()
    sim.run()
    at_one = [e for e in ring.events if e["t"] == 1.0 and e["kind"] == "sample"]
    assert at_one and at_one[0]["value"] == 1.0


def test_kernel_source_rate_is_per_simulated_second():
    # The simulator only maintains live per-event counters when it is
    # constructed with an enabled hub, exactly as the engines do.
    hub, ring = _hub_with_ring()
    sim = Simulator(telemetry=hub)
    for i in range(10):
        sim.schedule(0.1 * i, lambda s: None)
    sampler = PeriodicSampler(sim, hub, 1.0,
                              sources=[("kernel", kernel_sample_source(sim))])
    sampler.start()
    sim.run()
    samples = [e for e in ring.events if e["src"] == "kernel"]
    assert samples[0]["events_per_simsec"] == 0.0  # baseline: no time elapsed
    assert all(s["events_per_simsec"] >= 0.0 for s in samples)
    assert samples[-1]["processed_events"] >= 10.0


def test_sampler_validates_arguments():
    sim = Simulator()
    hub, _ = _hub_with_ring()
    with pytest.raises(ValueError):
        PeriodicSampler(sim, hub, 0.0, sources=[("x", dict)])
    with pytest.raises(ValueError):
        PeriodicSampler(sim, hub, 1.0, sources=[])
    sampler = PeriodicSampler(sim, hub, 1.0, sources=[("x", dict)])
    sampler.start()
    with pytest.raises(RuntimeError):
        sampler.start()


def test_a_gap_costs_one_derive_call_per_source_and_rows_interleave_by_tick():
    sim = Simulator()
    hub, ring = _hub_with_ring()
    calls = []

    def source(name):
        def sample():
            return {"value": 0.0}

        def derive(previous, times):
            calls.append((name, list(times)))
            return [dict(previous, t=t, value=float(t)) for t in times]

        return (name, sample, derive)

    sim.schedule(4.5, lambda s: None)
    sampler = PeriodicSampler(sim, hub, 1.0, sources=[source("a"), source("b")])
    sampler.start()
    sim.run()
    # The tick at 1.0 is a heap event; 2.0-4.0 sort before the event at 4.5.
    assert calls == [("a", [2.0, 3.0, 4.0]), ("b", [2.0, 3.0, 4.0])]
    rows = [(e["t"], e["src"]) for e in ring.events if e["kind"] == "sample"]
    assert rows == [
        (0.0, "a"), (0.0, "b"), (1.0, "a"), (1.0, "b"),
        (2.0, "a"), (2.0, "b"), (3.0, "a"), (3.0, "b"), (4.0, "a"), (4.0, "b"),
        (5.0, "a"), (5.0, "b"),
    ]
    assert sampler.samples_taken == 6


def test_a_source_without_a_derive_form_is_taken_as_unchanged_in_a_gap():
    sim = Simulator()
    hub, ring = _hub_with_ring()
    reads = []

    def sample():
        reads.append(sim.now)
        return {"value": 1.0}

    sim.schedule(3.5, lambda s: None)
    PeriodicSampler(sim, hub, 1.0, sources=[("x", sample)]).start()
    sim.run()
    assert reads == [0.0, 1.0, 4.0]
    samples = [e for e in ring.events if e["kind"] == "sample"]
    assert [e["t"] for e in samples] == [0.0, 1.0, 2.0, 3.0, 4.0]
    assert all(e["value"] == 1.0 and e["src"] == "x" for e in samples)
