"""Simulator-clock-driven periodic telemetry samplers.

A :class:`PeriodicSampler` snapshots one or more *sources* every ``interval``
simulated seconds and publishes each snapshot as a ``sample`` event.  Sources
are ``(src_label, sample)`` or ``(src_label, sample, derive)`` tuples:
``sample()`` returns a fresh flat dict of numeric fields, and
``derive(previous, times)`` returns the source's sample events at each of
``times``, given its event ``previous``, on the promise that no event fires
in between (see gap batching below).  Every source has one: a source passed
without it uses its sample callable's ``derive`` attribute if there is one,
and otherwise is taken not to move between events (its rows are copies of
``previous``).  The built-in :func:`kernel_sample_source` exposes the DES
kernel's counters (processed/pending/scheduled events, heap compactions and
the event rate per simulated second) and carries its derive form as
``.derive``.  The controllers publish it once per run, at the run's end,
not per tick: its counters follow how many events the engine uses, not the
state of the simulated system.

These properties matter for correctness:

* **Read-only sampling.**  Source callables must only *read* simulation
  state.  The sampler's own ticks interleave with the run's events (they
  consume kernel sequence numbers), but because the callbacks never mutate
  engine or controller state and draw no randomness, simulation results with
  sampling enabled are identical to results without it.
* **Gap batching.**  The cost of sampling should follow state changes, not
  ticks.  When a tick fires, every later tick that sorts strictly before the
  heap's top entry (and is not past the run's ``until``) would see frozen
  state.  The sampler accounts them as *virtual* kernel events
  (:meth:`~repro.simulation.des.Simulator.virtual_ticks`), which move the
  clock and sequence counter exactly as heap ticks would, so every
  kernel counter and everything that consumes sequence numbers later read
  the same as without batching.  Then it makes one derive call per source
  for all the gap's ticks and emits the rows interleaved by tick, in source
  order.  A derive form recomputes only the fields that move with the clock
  (the controller's ``utilisation``, ``energy_joules`` and ``work_left``;
  the kernel's processed/scheduled counts, one more per tick, and its event
  rate) with the same float expressions as a full sample, so sample streams
  are byte-identical to unbatched ones.  It must read the clock from
  ``times``, never from the kernel, which already stands at the gap's last
  tick.
* **Termination.**  A self-rescheduling event would keep a run-to-exhaustion
  kernel alive forever, so the sampler consults ``should_continue()`` after
  every heap tick (its answer cannot change inside a gap, where no event
  fires) and stops rescheduling once it returns False (typically "all
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

from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.hub import TelemetryHub

if TYPE_CHECKING:  # imported lazily: the kernel itself imports this package
    from repro.simulation.des import Simulator

#: Event priority of sampler ticks: higher than every engine/controller
#: priority in use (0-2), so a sample taken at time T observes the state
#: *after* all state changes scheduled at T.
SAMPLE_PRIORITY = 9

#: ``(src, sample)`` or ``(src, sample, derive)``; see the module docstring.
SampleSource = Tuple[Any, ...]

#: ``derive(previous, times) -> rows``: the sample events at ``times``.
Derive = Callable[[Dict[str, Any], List[float]], List[Dict[str, Any]]]


def _unchanged(previous: Dict[str, Any], times: List[float]) -> List[Dict[str, Any]]:
    """The derive form of a source that does not move between events."""
    rows = []
    for now in times:
        row = previous.copy()
        row["t"] = now
        rows.append(row)
    return rows


def emit_sample(hub: TelemetryHub, now: float, src: str, event: Dict[str, Any]) -> None:
    """Publish the fresh sample dict ``event`` of ``src`` taken at ``now``."""
    # The base fields go last, so that derived copies keep the key order.
    event["t"] = now
    event["kind"] = "sample"
    event["src"] = src
    hub.emit_event(event)


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
        # Reads the kernel's private counters directly, sparing a Python
        # frame per public property.
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

    def derive(previous: Dict[str, float], times: List[float]) -> List[Dict[str, float]]:
        # One virtual tick per time: one more event scheduled and processed
        # each, nothing else moved.
        nonlocal last_time, last_processed
        processed = previous["processed_events"]
        scheduled = previous["scheduled_events"]
        rows = []
        for now in times:
            processed += 1
            scheduled += 1
            elapsed = now - last_time
            delta = processed - last_processed
            last_time = now
            last_processed = processed
            row = previous.copy()
            row["processed_events"] = processed
            row["scheduled_events"] = scheduled
            row["events_per_simsec"] = (delta / elapsed) if elapsed > 0 else 0.0
            row["t"] = now
            rows.append(row)
        return rows

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
        #: ``(src, sample, derive)`` per source.
        self.sources: List[Tuple[str, Callable[[], Dict[str, Any]], Derive]] = [
            (
                source[0],
                source[1],
                source[2] if len(source) > 2
                else getattr(source[1], "derive", _unchanged),
            )
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
    def _sample(self) -> List[Dict[str, Any]]:
        """Sample every source in full now; returns the events emitted."""
        now = self.sim.now
        emit_event = self.hub.emit_event
        events = []
        for src, fn, _derive in self.sources:
            # As in ``emit_sample``, inlined: this runs on every heap tick.
            event = fn()
            event["t"] = now
            event["kind"] = "sample"
            event["src"] = src
            emit_event(event)
            events.append(event)
        self.samples_taken += 1
        return events

    def _tick(self, sim: Simulator) -> None:
        self._pending = None
        if self._stopped:
            return
        # A heap tick takes a full sample, accounts the ticks of the gap up
        # to the next heap entry as virtual events, then derives their rows
        # with one call per source.
        previous = self._sample()
        should_continue = self.should_continue
        if not (
            should_continue()
            if should_continue is not None
            # The tick itself was already popped, so any remaining entry is
            # other work (possibly cancelled; see module docstring).
            else sim.pending_events > 0
        ):
            return
        times = sim.virtual_ticks(sim.now, self.interval, SAMPLE_PRIORITY)
        if times:
            columns = [
                derive(event, times)
                for (_src, _fn, derive), event in zip(self.sources, previous)
            ]
            self.hub.emit_events(
                columns[0] if len(columns) == 1
                else [row for rows in zip(*columns) for row in rows]
            )
            self.samples_taken += len(times)
        self._pending = sim.schedule(self.interval, self._tick, priority=SAMPLE_PRIORITY)
