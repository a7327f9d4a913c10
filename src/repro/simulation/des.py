"""A small, fast discrete-event simulation kernel.

The kernel is deliberately minimal: a binary-heap event list, a simulation
clock, and cancellable events.  All higher-level behaviour (job arrivals,
task completions, sprint timeouts, budget replenishment) is expressed as
events scheduled by the engine and controller layers.

Design notes
------------
* Events are ordered by ``(time, priority, sequence)``.  The sequence number
  makes ordering deterministic for events scheduled at the same instant, which
  keeps simulations reproducible across runs and platforms.
* Cancellation is *lazy*: a cancelled event stays in the heap but is skipped
  when popped.  This keeps cancellation O(1), which matters because preemption
  and DVFS changes cancel many in-flight task-completion events.  Skipping is
  iterative, so arbitrarily long runs of cancelled entries (preemption or DVFS
  storms) cannot exhaust the Python recursion limit.
* Heap entries are flat ``(time, priority, seq, event)`` tuples.  ``seq`` is
  unique per simulator, so comparisons never reach the (incomparable) event
  object, and the hot scheduling path avoids an extra method call and nested
  tuple per event.
* **Hot-path specialisation.**  :class:`Event` is a ``__slots__`` class (no
  dataclass machinery, no per-instance ``__dict__``), the sequence counter is
  a plain integer that doubles as the scheduled-event count,
  ``heapq.heappush``/``heappop`` are bound at module level, conversions are
  skipped when arguments already have the right type, and
  :meth:`Simulator.run` drives the heap directly — with a specialised tight
  loop for the common "run to exhaustion" case — instead of calling
  :meth:`peek_time`/:meth:`step` per event.  Together these roughly double
  event throughput over the naive dataclass/delegating implementation (see
  ``benchmarks/bench_kernel_throughput.py``).
* **Heap compaction.**  Cancel storms (mass preemption, DVFS mode flips) can
  leave the heap dominated by dead entries that lazy skipping only reclaims
  when their firing time arrives — far-future cancelled events would otherwise
  bloat the heap unboundedly as the simulation keeps scheduling.  Instead of
  paying bookkeeping per cancel, the kernel re-examines the heap every time it
  doubles past a watermark (amortised O(1) per schedule): if at least
  ``compaction_threshold`` entries are dead *and* they make up at least half
  the heap, it is rebuilt in place without them.  Because
  ``(time, priority, seq)`` is a strict total order, re-heapifying the
  survivors pops them in exactly the same order as lazy skipping would have —
  compaction is invisible to the simulation.
* **Clock watch.**  :meth:`Simulator.watch` registers one callback that
  learns when the clock is about to pass a time of its choosing, without an
  event on the heap.  The periodic telemetry sampler uses it: its ticks
  cost no heap traffic, move no counter and never need cancelling.  Only
  the ``until`` loop checks the watch (one float comparison per event), so
  a run with neither a watch nor ``until`` pays nothing for it.
* The kernel knows nothing about jobs, priorities or energy; it only runs
  callbacks at simulated times.  :class:`ArrivalPump` is the one helper that
  sits on top: it feeds a lazy, arrival-ordered source (anything whose items
  carry an ``arrival_time``) into the heap one arrival at a time.
"""

from __future__ import annotations

import heapq
import math
import sys
from typing import Any, Callable, Iterable, List, Optional

from repro.telemetry.hub import NULL_HUB, TelemetryHub

_heappush = heapq.heappush
_heappop = heapq.heappop
_heapify = heapq.heapify

#: Dead heap entries required before a rebuild is considered (see
#: :class:`Simulator`).  High enough that unit-scale simulations never pay a
#: rebuild; low enough that storm-heavy runs stay within ~2x the live size.
DEFAULT_COMPACTION_THRESHOLD = 512

#: Heap size at which the first compaction scan happens; subsequent scans run
#: each time the heap doubles past the size seen at the previous scan.
_MIN_COMPACTION_WATERMARK = 64


class SimulationError(RuntimeError):
    """Raised for invalid kernel operations (e.g. scheduling in the past)."""


class Event:
    """A scheduled callback.

    Attributes
    ----------
    time:
        Simulated time at which the event fires.
    priority:
        Tie-breaking priority for events at the same time (lower fires first).
    seq:
        Monotonic sequence number assigned by the simulator.
    callback:
        Callable invoked as ``callback(simulator)`` when the event fires.
    payload:
        Arbitrary user data attached to the event.
    cancelled:
        Lazily-checked cancellation flag.
    """

    __slots__ = ("time", "priority", "seq", "callback", "payload", "cancelled")

    def __init__(
        self,
        time: float,
        priority: int,
        seq: int,
        callback: Callable[["Simulator"], None],
        payload: Any = None,
        cancelled: bool = False,
    ) -> None:
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.payload = payload
        self.cancelled = cancelled

    def cancel(self) -> None:
        """Mark the event as cancelled; it will be skipped when popped."""
        self.cancelled = True

    def sort_key(self) -> tuple:
        return (self.time, self.priority, self.seq)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        state = " cancelled" if self.cancelled else ""
        return f"Event(time={self.time!r}, priority={self.priority!r}, seq={self.seq!r}{state})"


class Simulator:
    """Event-driven simulator with a monotonically advancing clock.

    Parameters
    ----------
    start_time:
        Initial value of the simulation clock.
    compaction_threshold:
        Minimum number of cancelled-but-unfired events before a heap rebuild
        drops them (and only once they are at least half the heap).  ``0`` or
        ``None`` disables compaction (pure lazy skipping).
    telemetry:
        Probe bus for kernel events (heap compactions).  Defaults to the
        shared always-disabled :data:`~repro.telemetry.hub.NULL_HUB`, so the
        hot scheduling/dispatch loops pay nothing when telemetry is off: the
        only probe site is inside :meth:`_compact`, which already runs rarely
        (amortised O(1) per schedule).
    """

    __slots__ = (
        "_now",
        "_heap",
        "_seq",
        "_cancel_pops",
        "_compaction_losses",
        "_running",
        "_stopped",
        "_compactions",
        "_compaction_threshold",
        "_compaction_watermark",
        "_watch",
        "_wake_at",
        "telemetry",
    )

    def __init__(
        self,
        start_time: float = 0.0,
        compaction_threshold: Optional[int] = DEFAULT_COMPACTION_THRESHOLD,
        telemetry: TelemetryHub = NULL_HUB,
    ) -> None:
        self._now = float(start_time)
        self.telemetry = telemetry
        self._heap: List[tuple] = []
        self._seq = 0
        # Executed-event accounting is *derived*, never counted per event:
        # every scheduled event is either still in the heap, was popped while
        # cancelled, was dropped by a compaction rebuild, or was executed.
        # Tracking only the two rare buckets keeps the hot run loop free of
        # per-event counter writes while telemetry samplers still read an
        # exact live count (see :attr:`processed_events`).
        self._cancel_pops = 0
        self._compaction_losses = 0
        self._running = False
        self._stopped = False
        self._compactions = 0
        self._compaction_threshold = int(compaction_threshold or 0)
        self._compaction_watermark = _MIN_COMPACTION_WATERMARK
        # The clock watch (see :meth:`watch`) and the time it waits for.
        self._watch: Optional[Callable[[float], float]] = None
        self._wake_at = math.inf

    # ------------------------------------------------------------------ time
    @property
    def now(self) -> float:
        """Current simulated time."""
        return self._now

    @property
    def processed_events(self) -> int:
        """Number of events executed so far (excluding cancelled events).

        Derived as scheduled − pending − cancelled-pops − compaction-losses,
        which is exact at any instant (including from inside an event
        callback, where the running event counts as processed) without the
        run loop maintaining a per-event counter.
        """
        return (
            self._seq - len(self._heap) - self._cancel_pops - self._compaction_losses
        )

    @property
    def scheduled_events(self) -> int:
        """Number of events ever scheduled on this simulator."""
        return self._seq

    @property
    def pending_events(self) -> int:
        """Number of events currently in the heap (including cancelled)."""
        return len(self._heap)

    @property
    def heap_compactions(self) -> int:
        """Number of times the event heap was rebuilt to drop dead entries."""
        return self._compactions

    @property
    def running_priority(self) -> Optional[int]:
        """Priority of the event whose callback is running (``None`` outside one).

        Read from the frame of the :meth:`run` or :meth:`step` call that
        invoked the callback, so the run loops store nothing per event to
        offer it.  It costs a walk up the call stack; it is meant for rare
        questions such as which same-instant events have already fired.
        """
        frame = sys._getframe(1)
        while frame is not None:
            if frame.f_code in _LOOP_CODES:
                local = frame.f_locals
                if local.get("self") is self and "event" in local:
                    return local["event"].priority
            frame = frame.f_back
        return None

    # ------------------------------------------------------------- scheduling
    def schedule(
        self,
        delay: float,
        callback: Callable[["Simulator"], None],
        *,
        priority: int = 0,
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` to run ``delay`` time units from now."""
        if delay < 0:
            raise SimulationError(f"cannot schedule event with negative delay {delay!r}")
        if priority.__class__ is not int:
            priority = int(priority)
        seq = self._seq
        self._seq = seq + 1
        event = Event(self._now + delay, priority, seq, callback, payload)
        heap = self._heap
        _heappush(heap, (event.time, priority, seq, event))
        if len(heap) >= self._compaction_watermark:
            self._maybe_compact()
        return event

    def schedule_at(
        self,
        time: float,
        callback: Callable[["Simulator"], None],
        *,
        priority: int = 0,
        payload: Any = None,
    ) -> Event:
        """Schedule ``callback`` to run at absolute simulated ``time``."""
        if time < self._now:
            raise SimulationError(
                f"cannot schedule event at {time!r} before current time {self._now!r}"
            )
        if time.__class__ is not float:
            time = float(time)
        if priority.__class__ is not int:
            priority = int(priority)
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, priority, seq, callback, payload)
        heap = self._heap
        _heappush(heap, (time, priority, seq, event))
        if len(heap) >= self._compaction_watermark:
            self._maybe_compact()
        return event

    def watch(self, callback: Callable[[float], float], wake_at: float) -> None:
        """Register the clock watch: ``callback(t)`` runs when the clock is
        about to pass ``wake_at``, and returns the next ``wake_at``.

        :meth:`run` calls it before the first non-cancelled event later than
        ``wake_at`` fires, with that event's time, so the callback sees the
        state after every event up to ``wake_at`` and before any later one.
        A ``run(until=U)`` that reached ``U`` (neither :meth:`stop` nor
        ``max_events`` ended it) then calls it once more with the first float
        after ``U`` if ``U >= wake_at``: ``until`` is inclusive, as it is for
        events.  The callback must not schedule events, and it reads the
        time from its argument, never from :attr:`now`, which may still stand
        at the last event.  Return ``math.inf`` to stop being called.

        The watch is not an event: it moves no counter and does not keep a
        run alive.  A simulator holds one watch; register it before
        :meth:`run`.  :meth:`step` never calls it.
        """
        if self._watch is not None:
            raise SimulationError("this simulator already has a clock watch")
        self._watch = callback
        self._wake_at = float(wake_at)

    # -------------------------------------------------------------- execution
    def peek_time(self) -> Optional[float]:
        """Time of the next non-cancelled event, or ``None`` if empty."""
        self._discard_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self) -> Optional[Event]:
        """Execute the next event.  Returns the event, or ``None`` if empty.

        Stepping does not call the clock watch (see :meth:`watch`); nothing
        that samples the clock drives a simulator step by step.
        """
        heap = self._heap
        while heap:
            event = _heappop(heap)[3]
            if not event.cancelled:
                self._now = event.time
                event.callback(self)
                return event
            self._cancel_pops += 1
        return None

    def run(self, until: Optional[float] = None, max_events: Optional[int] = None) -> float:
        """Run until the event list drains, ``until`` is reached, or ``max_events``.

        Returns the simulation time at which the run stopped.  Executed-event
        counts are derived (see :attr:`processed_events`), so the loops keep
        no per-event counter.  A run with a clock watch (see :meth:`watch`)
        takes the ``until`` loop, which compares each event's time with the
        watch's.  ``max_events`` counts events only: the watch's calls are not
        events.
        """
        telemetry = self.telemetry
        span_id = (
            telemetry.new_span_id()
            if telemetry.enabled and telemetry.tracing
            else 0
        )
        started_at = self._now
        processed_before = self.processed_events if span_id else 0
        self._running = True
        self._stopped = False
        watch = self._watch
        wake_at = self._wake_at
        limit = math.inf if until is None else until
        reached = False
        executed = 0
        # Hot loop: drive the heap directly with local bindings.  ``heap`` may
        # be mutated by callbacks (scheduling and compaction both operate on
        # the same list object in place), so the alias stays valid throughout.
        heap = self._heap
        pop = _heappop
        try:
            if watch is None and until is None and max_events is None:
                # Specialised run-to-exhaustion loop (the common case).
                while heap:
                    if self._stopped:
                        break
                    event = pop(heap)[3]
                    if event.cancelled:
                        self._cancel_pops += 1
                        continue
                    self._now = event.time
                    event.callback(self)
            elif watch is None and until is None:
                # Bounded-count loop: no deadline, so events can be popped
                # directly without peeking.
                while heap:
                    if self._stopped or executed >= max_events:
                        break
                    event = pop(heap)[3]
                    if event.cancelled:
                        self._cancel_pops += 1
                        continue
                    self._now = event.time
                    executed += 1
                    event.callback(self)
            else:
                while heap:
                    if self._stopped:
                        break
                    if max_events is not None and executed >= max_events:
                        break
                    entry = heap[0]
                    event = entry[3]
                    if event.cancelled:
                        pop(heap)
                        self._cancel_pops += 1
                        continue
                    event_time = entry[0]
                    if event_time > limit:
                        self._now = limit
                        reached = True
                        break
                    if event_time > wake_at:
                        wake_at = watch(event_time)
                    pop(heap)
                    self._now = event_time
                    executed += 1
                    event.callback(self)
                else:
                    reached = True  # the heap drained
            if (
                until is not None and until >= wake_at and reached
                and not self._stopped
            ):
                # ``until`` is inclusive: the clock passes every time up to it.
                wake_at = watch(math.nextafter(until, math.inf))
        finally:
            self._running = False
            self._wake_at = wake_at
        if until is not None and self._now < until and not heap:
            self._now = until
        if span_id:
            # One root-level span covering the whole kernel run; ``job_id=-1``
            # keeps it out of per-job trace assembly.
            telemetry.span(
                self._now, "kernel", span_id, 0, "run", "kernel", started_at, -1,
                events=self.processed_events - processed_before,
            )
        return self._now

    def stop(self) -> None:
        """Request that :meth:`run` return after the current event."""
        self._stopped = True

    # -------------------------------------------------------------- internals
    def _maybe_compact(self) -> None:
        """Scan for dead entries once the heap doubles past the watermark.

        The scan is O(heap) but runs at most once per doubling, so the
        amortised cost per scheduled event is O(1).
        """
        heap = self._heap
        threshold = self._compaction_threshold
        if threshold:
            dead = 0
            for entry in heap:
                if entry[3].cancelled:
                    dead += 1
            if dead >= threshold and dead * 2 >= len(heap):
                self._compact()
        self._compaction_watermark = max(len(self._heap) * 2, _MIN_COMPACTION_WATERMARK)

    def _compact(self) -> None:
        """Drop cancelled entries and re-heapify, preserving pop order.

        The rebuild mutates the heap list *in place* so aliases held by a
        running :meth:`run` loop keep observing the compacted heap.
        """
        heap = self._heap
        before = len(heap)
        heap[:] = [entry for entry in heap if not entry[3].cancelled]
        _heapify(heap)
        self._compaction_losses += before - len(heap)
        self._compactions += 1
        if self.telemetry.enabled:
            self.telemetry.emit(
                "heap_compaction",
                self._now,
                src="kernel",
                before=before,
                after=len(heap),
                compactions=self._compactions,
            )

    def _discard_cancelled(self) -> None:
        heap = self._heap
        while heap and heap[0][3].cancelled:
            _heappop(heap)
            self._cancel_pops += 1


#: Code objects of the loops that invoke event callbacks (see
#: :attr:`Simulator.running_priority`).
_LOOP_CODES = (Simulator.run.__code__, Simulator.step.__code__)


class ArrivalPump:
    """Feeds a lazy, arrival-ordered source into a simulator one item at a time.

    Only the next arrival is ever in the event heap, so a streaming replay
    never materialises its trace.  Each arrival event first pulls and
    schedules its successor, then hands its own item to ``deliver``: at equal
    timestamps the heap sequence then matches a batch run that schedules
    every arrival up front in trace order.  When the source runs dry,
    ``on_exhausted`` receives the number of items it yielded; the last of them
    is delivered right after, so no arrival is still pending at that point.
    """

    __slots__ = ("_sim", "_pulled", "_items", "_deliver", "_on_exhausted")

    def __init__(
        self,
        sim: Simulator,
        source: Iterable[Any],
        deliver: Callable[[Any], None],
        on_exhausted: Callable[[int], None],
    ) -> None:
        self._sim = sim
        self._pulled = 0  # items taken from the source so far
        self._items = iter(source)
        self._deliver = deliver
        self._on_exhausted = on_exhausted

    def start(self) -> None:
        """Schedule the first arrival; an empty source is an error."""
        first = next(self._items, None)
        if first is None:
            raise ValueError("the streaming job source yielded no jobs")
        self._schedule(first)

    def _schedule(self, item: Any) -> None:
        self._pulled += 1
        self._sim.schedule_at(item.arrival_time, self._make_callback(item), priority=0)

    def _make_callback(self, item: Any) -> Callable[[Simulator], None]:
        def _callback(_sim: Simulator) -> None:
            successor = next(self._items, None)
            if successor is None:
                self._on_exhausted(self._pulled)
            else:
                self._schedule(successor)
            self._deliver(item)

        return _callback
