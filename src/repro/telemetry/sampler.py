"""Simulator-clock-driven periodic telemetry samplers.

A :class:`PeriodicSampler` snapshots one or more *sources* every ``interval``
simulated seconds and publishes each snapshot as a ``sample`` event.  Sources
are ``(src_label, sample)`` or ``(src_label, sample, derive)`` tuples:
``sample()`` returns a fresh flat dict of numeric fields, and the optional
``derive(previous, t)`` returns the sample at time ``t`` given the source's
previous event, on the promise that no event has fired in between (see gap
batching below).  The built-in :func:`kernel_sample_source` exposes the DES
kernel's counters (processed/pending/scheduled events, heap compactions and
the event rate per simulated second) and carries its derive form as
``.derive``.

These properties matter for correctness:

* **Read-only sampling.**  Source callables must only *read* simulation
  state.  The sampler's own ticks interleave with the run's events (they
  consume kernel sequence numbers), but because the callbacks never mutate
  engine or controller state and draw no randomness, simulation results with
  sampling enabled are identical to results without it.
* **Gap batching.**  The cost of sampling should follow state changes, not
  ticks.  When a tick fires, every later tick that sorts strictly before the
  heap's top entry (and is not past the run's ``until``) would see frozen
  state, so the sampler emits those ticks in a loop right away, with no heap
  push or pop.  Each such tick is a *virtual* kernel event
  (:meth:`~repro.simulation.des.Simulator.try_virtual_event`): the kernel
  moves its clock and sequence counter exactly as a heap tick would, so
  ``processed_events``, ``scheduled_events`` and ``pending_events`` read the
  same as without batching, and so does everything that consumes sequence
  numbers later.  A virtual tick asks each source for its derive form, which
  recomputes only the fields that move with the clock (the controller's
  ``utilisation``, ``energy_joules`` and ``work_left``; the kernel's
  processed/scheduled counts, one more each, and its event rate) with the
  same float expressions as a full sample; a source without one is sampled
  in full.  Sample streams are therefore byte-identical to unbatched ones.
* **Termination.**  A self-rescheduling event would keep a run-to-exhaustion
  kernel alive forever, so the sampler consults ``should_continue()`` after
  every tick and stops rescheduling once it returns False (typically "all
  trace jobs completed").  Without an explicit predicate it falls back to
  "the heap still holds other events", which is correct for bounded runs but
  can overrun on heaps dominated by cancelled far-future events — pass a
  predicate for open-ended workloads.
* **No trailing clock advance.**  One tick is always in flight, and if it
  fired after the workload's last completion it would advance the simulation
  clock past the natural end of the run — changing the reported duration,
  utilisation denominator and idle energy relative to an unsampled run.  The
  run driver therefore calls :meth:`PeriodicSampler.stop` the moment the
  workload completes (e.g. from the controller's ``on_job_complete`` hook):
  the pending tick is lazily cancelled, and a cancelled event is skipped by
  the kernel *without* advancing the clock.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Dict, Optional, Sequence, Tuple

from repro.telemetry.hub import TelemetryHub

if TYPE_CHECKING:  # imported lazily: the kernel itself imports this package
    from repro.simulation.des import Simulator

#: Event priority of sampler ticks: higher than every engine/controller
#: priority in use (0-2), so a sample taken at time T observes the state
#: *after* all state changes scheduled at T.
SAMPLE_PRIORITY = 9

#: ``(src, sample)`` or ``(src, sample, derive)``; see the module docstring.
SampleSource = Tuple[Any, ...]


def kernel_sample_source(sim: Simulator) -> Callable[[], Dict[str, float]]:
    """Build a sample source reading the kernel's own counters.

    The event rate is computed per *simulated* second (events processed since
    the previous sample over simulated time elapsed) so that samples stay
    free of wall-clock quantities and therefore deterministic.  The returned
    callable's ``derive`` attribute is its derive form; both share the rate
    state.
    """
    last_time = sim.now
    last_processed = sim.processed_events

    def sample() -> Dict[str, float]:
        # Reads the kernel's private counters directly: each public property
        # is a Python frame, and this closure runs on every heap tick of
        # every sampled run — the properties remain the supported interface
        # everywhere latency does not matter.
        nonlocal last_time, last_processed
        now = sim._now
        heap_size = len(sim._heap)
        seq = sim._seq
        processed = seq - heap_size - sim._cancel_pops - sim._compaction_losses
        elapsed = now - last_time
        delta = processed - last_processed
        last_time = now
        last_processed = processed
        return {
            "processed_events": processed,
            "pending_events": heap_size,
            "scheduled_events": seq,
            "heap_compactions": sim._compactions,
            "events_per_simsec": (delta / elapsed) if elapsed > 0 else 0.0,
        }

    def derive(previous: Dict[str, float], now: float) -> Dict[str, float]:
        # One virtual tick since ``previous``: one more event scheduled and
        # processed, nothing else moved.
        nonlocal last_time, last_processed
        processed = previous["processed_events"] + 1
        elapsed = now - last_time
        delta = processed - last_processed
        last_time = now
        last_processed = processed
        event = previous.copy()
        event["processed_events"] = processed
        event["scheduled_events"] = previous["scheduled_events"] + 1
        event["events_per_simsec"] = (delta / elapsed) if elapsed > 0 else 0.0
        return event

    sample.derive = derive  # type: ignore[attr-defined]
    return sample


class PeriodicSampler:
    """Emits ``sample`` events for every source each ``interval`` sim-seconds."""

    def __init__(
        self,
        sim: Simulator,
        hub: TelemetryHub,
        interval: float,
        sources: Sequence[SampleSource],
        should_continue: Optional[Callable[[], bool]] = None,
    ) -> None:
        if interval <= 0:
            raise ValueError(f"sampling interval must be positive, got {interval!r}")
        if not sources:
            raise ValueError("at least one sample source is required")
        self.sim = sim
        self.hub = hub
        self.interval = float(interval)
        #: ``(src, sample, derive or None)`` per source.
        self.sources = [
            (source[0], source[1], source[2] if len(source) > 2 else None)
            for source in sources
        ]
        self.should_continue = should_continue
        self.samples_taken = 0
        self._started = False
        self._stopped = False
        self._pending = None

    def start(self) -> None:
        """Take a baseline sample now and schedule the periodic ticks."""
        if self._started:
            raise RuntimeError("the sampler is already started")
        self._started = True
        self._sample()
        self._pending = self.sim.schedule(
            self.interval, self._tick, priority=SAMPLE_PRIORITY
        )

    def stop(self) -> None:
        """Cancel the in-flight tick so the clock never advances past the run.

        Call this the moment the workload completes: the pending tick is
        lazily cancelled, which the kernel skips *without* advancing the
        clock, so sampled runs end at exactly the same simulated time (and
        idle-energy charge) as unsampled ones.
        """
        self._stopped = True
        if self._pending is not None:
            self._pending.cancel()
            self._pending = None

    # ------------------------------------------------------------- internals
    def _sample(self) -> None:
        now = self.sim.now
        emit_event = self.hub.emit_event
        for src, fn, _derive in self.sources:
            # Sources return a fresh flat dict per call; fill in the base
            # fields and hand it straight to the hub instead of paying a
            # kwargs copy per sample (samples dominate telemetry streams).
            event = fn()
            event["t"] = now
            event["kind"] = "sample"
            event["src"] = src
            emit_event(event)
        self.samples_taken += 1

    def _tick(self, sim: Simulator) -> None:
        self._pending = None
        if self._stopped:
            return
        # A heap tick takes a full sample, then emits the ticks of the gap
        # up to the next heap entry as virtual events from derive forms.
        # The loop is inlined rather than split into helpers: ticks fire for
        # the whole run on every sampled simulation, and each saved Python
        # frame is measurable in the telemetry overhead benchmark.
        now = sim.now
        emit_event = self.hub.emit_event
        sources = self.sources
        previous = []
        for src, fn, _derive in sources:
            event = fn()
            event["t"] = now
            event["kind"] = "sample"
            event["src"] = src
            emit_event(event)
            previous.append(event)
        self.samples_taken += 1
        should_continue = self.should_continue
        interval = self.interval
        while (
            should_continue()
            if should_continue is not None
            # The tick itself was already popped, so any remaining entry is
            # other work (possibly cancelled; see module docstring).
            else sim.pending_events > 0
        ):
            now += interval
            if not sim.try_virtual_event(now, SAMPLE_PRIORITY):
                self._pending = sim.schedule(
                    interval, self._tick, priority=SAMPLE_PRIORITY
                )
                return
            for i, (src, fn, derive) in enumerate(sources):
                if derive is None:
                    event = fn()
                    event["t"] = now
                    event["kind"] = "sample"
                    event["src"] = src
                else:
                    # A copy of the previous event: the base fields keep
                    # their place in the key order.
                    event = derive(previous[i], now)
                    event["t"] = now
                emit_event(event)
                previous[i] = event
            self.samples_taken += 1
