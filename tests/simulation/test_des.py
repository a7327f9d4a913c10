"""Tests for the discrete-event simulation kernel."""

from __future__ import annotations

import math

import pytest

from repro.simulation.des import SimulationError, Simulator


def test_clock_starts_at_zero():
    sim = Simulator()
    assert sim.now == 0.0


def test_clock_starts_at_custom_time():
    sim = Simulator(start_time=12.5)
    assert sim.now == 12.5


def test_schedule_and_run_single_event():
    sim = Simulator()
    fired = []
    sim.schedule(5.0, lambda s: fired.append(s.now))
    sim.run()
    assert fired == [5.0]
    assert sim.now == 5.0


def test_events_fire_in_time_order():
    sim = Simulator()
    order = []
    sim.schedule(3.0, lambda s: order.append("c"))
    sim.schedule(1.0, lambda s: order.append("a"))
    sim.schedule(2.0, lambda s: order.append("b"))
    sim.run()
    assert order == ["a", "b", "c"]


def test_same_time_events_fire_in_priority_then_fifo_order():
    sim = Simulator()
    order = []
    sim.schedule(1.0, lambda s: order.append("low"), priority=5)
    sim.schedule(1.0, lambda s: order.append("first"), priority=0)
    sim.schedule(1.0, lambda s: order.append("second"), priority=0)
    sim.run()
    assert order == ["first", "second", "low"]


def test_schedule_negative_delay_rejected():
    sim = Simulator()
    with pytest.raises(SimulationError):
        sim.schedule(-1.0, lambda s: None)


def test_schedule_at_in_the_past_rejected():
    sim = Simulator()
    sim.schedule(5.0, lambda s: None)
    sim.run()
    with pytest.raises(SimulationError):
        sim.schedule_at(1.0, lambda s: None)


def test_cancelled_event_does_not_fire():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda s: fired.append("cancelled"))
    sim.schedule(2.0, lambda s: fired.append("kept"))
    event.cancel()
    sim.run()
    assert fired == ["kept"]


def test_cancelled_events_do_not_advance_clock():
    sim = Simulator()
    event = sim.schedule(10.0, lambda s: None)
    sim.schedule(1.0, lambda s: None)
    event.cancel()
    sim.run()
    assert sim.now == 1.0


def test_events_scheduled_from_callbacks():
    sim = Simulator()
    times = []

    def chain(s: Simulator) -> None:
        times.append(s.now)
        if len(times) < 3:
            s.schedule(1.0, chain)

    sim.schedule(1.0, chain)
    sim.run()
    assert times == [1.0, 2.0, 3.0]


def test_run_until_stops_before_later_events():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda s: fired.append(1))
    sim.schedule(10.0, lambda s: fired.append(10))
    sim.run(until=5.0)
    assert fired == [1]
    assert sim.now == 5.0
    # The pending event survives and can still run later.
    sim.run()
    assert fired == [1, 10]


def test_run_max_events_limit():
    sim = Simulator()
    fired = []
    for i in range(5):
        sim.schedule(float(i + 1), lambda s, i=i: fired.append(i))
    sim.run(max_events=2)
    assert fired == [0, 1]


def test_stop_from_callback():
    sim = Simulator()
    fired = []
    sim.schedule(1.0, lambda s: (fired.append(1), s.stop()))
    sim.schedule(2.0, lambda s: fired.append(2))
    sim.run()
    assert fired == [1]


def test_peek_time_skips_cancelled():
    sim = Simulator()
    event = sim.schedule(1.0, lambda s: None)
    sim.schedule(4.0, lambda s: None)
    event.cancel()
    assert sim.peek_time() == 4.0


def test_step_returns_none_when_empty():
    sim = Simulator()
    assert sim.step() is None


def test_processed_event_count():
    sim = Simulator()
    for i in range(4):
        sim.schedule(float(i + 1), lambda s: None)
    sim.run()
    assert sim.processed_events == 4


def test_payload_is_preserved():
    sim = Simulator()
    event = sim.schedule(1.0, lambda s: None, payload={"job": 42})
    assert event.payload == {"job": 42}
    sim.run()


def test_step_survives_thousands_of_consecutive_cancelled_events():
    """A long run of cancelled entries must not hit the recursion limit."""
    sim = Simulator()
    cancelled = [sim.schedule(1.0, lambda s: None) for _ in range(5000)]
    for event in cancelled:
        event.cancel()
    fired = []
    sim.schedule(2.0, lambda s: fired.append(s.now))
    assert sim.step() is not None
    assert fired == [2.0]
    assert sim.pending_events == 0


def test_run_survives_cancellation_storm_interleaved():
    """Cancellation storms interleaved with live events drain iteratively."""
    sim = Simulator()
    fired = []
    for burst in range(5):
        doomed = [
            sim.schedule(float(burst) + 0.5, lambda s: None) for _ in range(2000)
        ]
        for event in doomed:
            event.cancel()
        sim.schedule(float(burst) + 1.0, lambda s: fired.append(s.now))
    sim.run()
    assert fired == [1.0, 2.0, 3.0, 4.0, 5.0]
    assert sim.processed_events == 5


def test_heap_entries_are_flat_tuples():
    """The hot path pushes (time, priority, seq, event) entries directly."""
    sim = Simulator()
    event = sim.schedule(3.0, lambda s: None, priority=7)
    entry = sim._heap[0]
    assert entry == (3.0, 7, event.seq, event)
    assert entry[:3] == event.sort_key()


def test_scheduled_events_counts_all_schedules():
    sim = Simulator()
    for i in range(3):
        sim.schedule(float(i), lambda s: None)
    assert sim.scheduled_events == 3
    sim.run()
    assert sim.processed_events == 3


def test_compaction_disabled_keeps_lazy_behaviour():
    sim = Simulator(compaction_threshold=None)
    events = [sim.schedule(1.0, lambda s: None) for _ in range(200)]
    for event in events:
        event.cancel()
    for i in range(200):
        sim.schedule(2.0 + i, lambda s: None)
    assert sim.heap_compactions == 0


def test_compaction_drops_dead_entries_while_scheduling_continues():
    sim = Simulator(compaction_threshold=16)
    doomed = []
    for i in range(300):
        doomed.append(sim.schedule(1000.0 + i, lambda s: None))
        if len(doomed) >= 10:
            for event in doomed:
                event.cancel()
            doomed = []
    assert sim.heap_compactions > 0
    assert sim.pending_events < 300


def test_cancel_after_firing_is_harmless():
    sim = Simulator()
    fired = []
    event = sim.schedule(1.0, lambda s: fired.append(s.now))
    sim.run()
    event.cancel()  # already fired; must not corrupt kernel state
    sim.schedule(2.0, lambda s: fired.append(s.now))
    sim.run()
    assert fired == [1.0, 3.0]


def test_run_with_max_events_skips_cancelled_without_counting_them():
    sim = Simulator()
    fired = []
    cancelled = [sim.schedule(0.5, lambda s: None) for _ in range(50)]
    for event in cancelled:
        event.cancel()
    for i in range(4):
        sim.schedule(float(i + 1), lambda s, i=i: fired.append(i))
    sim.run(max_events=2)
    assert fired == [0, 1]


def test_running_priority_is_the_priority_of_the_event_being_run():
    sim = Simulator()
    seen = []

    def record(s):
        seen.append(s.running_priority)

    sim.schedule(1.0, record, priority=2)
    sim.schedule(1.0, record, priority=0)
    sim.run()
    sim.schedule(1.0, record, priority=5)
    sim.step()
    sim.schedule(1.0, record, priority=7)
    sim.run(until=100.0)
    sim.schedule(1.0, record, priority=3)
    sim.run(max_events=5)
    assert seen == [0, 2, 5, 7, 3]
    assert sim.running_priority is None


def test_running_priority_belongs_to_its_own_simulator():
    outer, inner = Simulator(), Simulator()
    seen = []

    def nested(_sim):
        inner.schedule(0.0, lambda s: seen.append((s.running_priority,
                                                    outer.running_priority)),
                       priority=4)
        inner.run()

    outer.schedule(1.0, nested, priority=1)
    outer.run()
    assert seen == [(4, 1)]


# ------------------------------------------------------------- clock watch
def _watching(sim, wake_at, interval=None):
    """Register a watch that records the time it is called with; it returns
    that time (``wake_at`` moves to the waking event) unless ``interval`` is
    given, when it returns ``wake_at + interval``."""
    calls = []
    state = {"wake_at": wake_at}

    def watch(t):
        calls.append(t)
        if interval is None:
            return t
        state["wake_at"] += interval
        return state["wake_at"]

    sim.watch(watch, wake_at)
    return calls


def test_watch_wakes_before_the_first_later_event_fires():
    sim = Simulator()
    fired = []
    for t in (1.0, 2.0, 3.0):
        sim.schedule(t, lambda s, t=t: fired.append(t))
    sim.schedule(2.0, lambda s: fired.append("late"), priority=5)
    seen = []

    def watch(t):
        seen.append((t, sim.now, list(fired)))
        return t

    sim.watch(watch, 1.5)
    sim.run()
    # The watch sees t=2.0 before either event at 2.0 fires; the clock still
    # stands at the last event.  Then it waits for a time past 2.0.
    assert seen == [(2.0, 1.0, [1.0]), (3.0, 2.0, [1.0, 2.0, "late"])]
    assert fired == [1.0, 2.0, "late", 3.0]


def test_events_at_exactly_wake_at_and_cancelled_entries_do_not_wake_it():
    sim = Simulator()
    sim.schedule(2.0, lambda s: None)
    sim.schedule(3.0, lambda s: None).cancel()
    sim.schedule(5.0, lambda s: None)
    calls = _watching(sim, 2.0)
    sim.run()
    assert calls == [5.0]


def test_until_is_inclusive_for_the_watch():
    sim = Simulator()
    sim.schedule(1.0, lambda s: None)
    sim.schedule(9.0, lambda s: None)
    calls = _watching(sim, 4.0, interval=1.0)
    assert sim.run(until=4.0) == 4.0
    # Run to 4.0 inclusive: the watch learns that the clock passes 4.0.
    assert calls == [math.nextafter(4.0, math.inf)]
    calls.clear()
    sim.run(until=4.5)  # wake_at is now 5.0, past the end: no call
    assert calls == []
    sim.run()
    assert calls == [9.0]


def test_until_wakes_the_watch_when_the_heap_drains_early():
    sim = Simulator()
    sim.schedule(1.0, lambda s: None)
    calls = _watching(sim, 2.0)
    sim.run(until=10.0)
    assert calls == [math.nextafter(10.0, math.inf)]
    assert sim.now == 10.0


def test_nothing_wakes_the_watch_after_stop():
    sim = Simulator()
    sim.schedule(1.0, lambda s: s.stop())
    sim.schedule(5.0, lambda s: None)
    calls = _watching(sim, 2.0)
    assert sim.run(until=10.0) == 1.0
    assert calls == []
    sim.run(until=10.0)
    assert calls == [5.0, math.nextafter(10.0, math.inf)]


def test_max_events_counts_events_only():
    """The watch is not an event: it neither takes from a ``max_events``
    budget nor moves the kernel's counters, and ``max_events`` ending a
    ``run(until=...)`` early skips the end-of-run call."""
    sim = Simulator()
    fired = []
    for i in range(6):
        sim.schedule(float(i + 1), lambda s, i=i: fired.append(i))
    calls = _watching(sim, 0.5, interval=0.5)
    sim.run(until=100.0, max_events=3)
    assert fired == [0, 1, 2]
    assert len(calls) == 3
    assert sim.processed_events == 3 and sim.scheduled_events == 6
    sim.run(max_events=2)
    assert fired == [0, 1, 2, 3, 4]


def test_step_does_not_call_the_watch():
    sim = Simulator()
    sim.schedule(5.0, lambda s: None)
    calls = _watching(sim, 1.0)
    sim.step()
    assert calls == [] and sim.now == 5.0


def test_one_watch_per_simulator():
    sim = Simulator()
    sim.watch(lambda t: math.inf, 1.0)
    with pytest.raises(SimulationError):
        sim.watch(lambda t: math.inf, 2.0)


def test_an_infinite_wake_at_is_never_called():
    sim = Simulator()
    sim.schedule(1.0, lambda s: None)
    calls = _watching(sim, math.inf)
    sim.run(until=50.0)
    assert calls == []
