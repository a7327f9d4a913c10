"""Simulator-clock-driven periodic telemetry samplers.

A :class:`PeriodicSampler` snapshots one or more *sources* every ``interval``
simulated seconds and publishes each snapshot as a ``sample`` event.  A
source is a ``(src_label, rows)`` pair: ``rows(times)`` returns one fresh
flat dict of numeric fields per time, each followed by its ``t``, and the
sampler appends ``kind`` and ``src``.  The controllers' sources read their
state once per call and only the fields that move with the clock per time.

The sampler schedules no events.  It registers the kernel's clock watch
(:meth:`~repro.simulation.des.Simulator.watch`), which the run loop calls
with an event's time ``t`` before the first event past the next tick fires.
The sampler then emits every tick ``T < t`` that it has not emitted yet,
with one ``rows`` call per source, interleaved by tick in source order.  A
tick at ``T`` therefore sees the state after every event at ``T`` and before
any later one.  A ``run(until=U)`` that reaches ``U`` emits the ticks up to
and including ``U``.

These properties matter for correctness:

* **Read-only sampling.**  Sources must only *read* simulation state and
  draw no randomness, so results with sampling on are identical to results
  without it.  They read the clock from ``times``, never from the kernel,
  which still stands at the last event.
* **Nothing past the run.**  Ticks are not events, so they neither advance
  the clock nor keep a run alive: a sampled run ends at the same simulated
  time (and idle-energy charge) as an unsampled one.  ``should_continue()``
  is asked at each flush; once it returns False (typically "all trace jobs
  completed") no tick is emitted again.

The built-in :func:`kernel_sample_source` exposes the DES kernel's counters
(processed/pending/scheduled events, heap compactions and the event rate per
simulated second).  The controllers publish it once per run, at the run's
end: its counters follow how many events the engine uses, not the state of
the simulated system.  Sample ticks are not events, so they count in none of
them.
"""

from __future__ import annotations

import math
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Optional, Sequence, Tuple

from repro.telemetry.hub import TelemetryHub

if TYPE_CHECKING:  # imported lazily: the kernel itself imports this package
    from repro.simulation.des import Simulator

#: ``rows(times)``: one sample dict per time, its fields followed by ``t``.
Rows = Callable[[Sequence[float]], List[Dict[str, Any]]]

#: ``(src, rows)``; see the module docstring.
SampleSource = Tuple[str, Rows]


def emit_sample(hub: TelemetryHub, now: float, src: str, event: Dict[str, Any]) -> None:
    """Publish the fresh sample dict ``event`` of ``src`` taken at ``now``."""
    event["t"] = now
    event["kind"] = "sample"
    event["src"] = src
    hub.emit_event(event)


def kernel_sample_source(sim: Simulator) -> Callable[[], Dict[str, float]]:
    """Build a sample source reading the kernel's own counters.

    The event rate is computed per *simulated* second (events processed since
    the source was built over simulated time elapsed) so that samples stay
    free of wall-clock quantities and therefore deterministic.
    """
    start_time = sim.now
    start_processed = sim.processed_events

    def sample() -> Dict[str, float]:
        elapsed = sim.now - start_time
        processed = sim.processed_events
        return {
            "processed_events": processed,
            "pending_events": sim.pending_events,
            "scheduled_events": sim.scheduled_events,
            "heap_compactions": sim.heap_compactions,
            "events_per_simsec": (
                (processed - start_processed) / elapsed if elapsed > 0 else 0.0
            ),
        }

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
        self.sources: List[SampleSource] = list(sources)
        self.should_continue = should_continue
        self.samples_taken = 0
        self._started = False
        self._next_tick = math.inf

    def start(self) -> None:
        """Take a baseline sample now and watch the clock for the next ticks."""
        if self._started:
            raise RuntimeError("the sampler is already started")
        self._started = True
        now = self.sim.now
        self._emit([now])
        self._next_tick = now + self.interval
        self.sim.watch(self._flush, self._next_tick)

    # ------------------------------------------------------------- internals
    def _flush(self, t: float) -> float:
        """The clock watch: emit the ticks before ``t``; return the next one."""
        should_continue = self.should_continue
        if should_continue is not None and not should_continue():
            return math.inf
        # The kernel wakes the watch only past the next tick, so there is at
        # least one.  Each tick is the one before plus the interval.
        interval = self.interval
        tick = self._next_tick
        times = []
        while tick < t:
            times.append(tick)
            tick += interval
        self._emit(times)
        self._next_tick = tick
        return tick

    def _emit(self, times: List[float]) -> None:
        """One ``rows`` call per source; rows interleaved by tick."""
        columns = []
        for src, rows in self.sources:
            column = rows(times)
            for row in column:
                row["kind"] = "sample"
                row["src"] = src
            columns.append(column)
        self.hub.emit_events(
            columns[0] if len(columns) == 1
            else [row for tick in zip(*columns) for row in tick]
        )
        self.samples_taken += len(times)
