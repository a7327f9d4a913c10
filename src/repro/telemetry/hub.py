"""The telemetry probe bus.

A :class:`TelemetryHub` fans typed events out to attached sinks.  Design
constraints, in order of importance:

1. **Zero cost when disabled.**  Probe sites in hot paths guard on the plain
   ``enabled`` attribute (a single attribute load and truth test) before
   building any payload; a hub without sinks — and the shared :data:`NULL_HUB`
   default — keeps ``enabled`` False, so a simulation built without telemetry
   executes the exact same instruction stream as one built before the
   telemetry layer existed.
2. **Determinism.**  Events carry only simulated time and simulation state —
   never wall-clock time — so the emitted stream is a pure function of the
   run's seed and configuration, which is what makes byte-identical JSONL
   reruns and deterministic parallel merges possible.
3. **Typed events.**  Every event is a flat dict with the base fields ``t``
   (simulated time), ``kind`` and ``src`` plus kind-specific fields; the
   vocabulary is defined (and validated) by :mod:`repro.telemetry.schema`.

Span tracing rides on the same bus behind a second flag: probe sites that
build causal ``span`` events guard on ``tracing`` (off by default, and off
for plain ``--telemetry`` runs), publish them through :meth:`span`, and take
deterministic span ids from :meth:`new_span_id`.  Because ids come from a per-hub counter and events
carry only simulated time, a span stream is as reproducible as any other
telemetry stream.
"""

from __future__ import annotations

from typing import Any, Callable, Dict, List, Optional


class TelemetryHub:
    """Publishes typed telemetry events to attached sinks.

    Parameters
    ----------
    sample_interval:
        Default simulated-time interval for periodic samplers attached to a
        run using this hub (``None`` = the component's own default / no
        sampling decision made here).  The hub carries the interval so one
        value configures every layer of a nested run (fleet -> controllers).
    tracing:
        Enables the causal span probes (``span`` events).  Separate from
        ``enabled`` so a plain telemetry stream never pays for span
        bookkeeping; span probe sites guard on this flag exactly the way
        ordinary probe sites guard on ``enabled``.
    """

    __slots__ = (
        "enabled",
        "tracing",
        "sample_interval",
        "events_emitted",
        "_sinks",
        "_writes",
        "_span_seq",
    )

    def __init__(
        self, sample_interval: Optional[float] = None, tracing: bool = False
    ) -> None:
        if sample_interval is not None and sample_interval <= 0:
            raise ValueError(
                f"sample_interval must be positive simulated seconds, got {sample_interval!r}"
            )
        self.enabled = False
        self.tracing = bool(tracing)
        self.sample_interval = sample_interval
        self.events_emitted = 0
        self._sinks: List[Any] = []
        # Pre-bound ``sink.write`` methods: the emit loop touches one list
        # instead of re-resolving the attribute per sink per event.
        self._writes: List[Callable[[Dict[str, Any]], None]] = []
        self._span_seq = 0

    # ------------------------------------------------------------------ sinks
    @property
    def sinks(self) -> List[Any]:
        return list(self._sinks)

    def add_sink(self, sink: Any) -> Any:
        """Attach ``sink`` (anything with ``write(event)``); returns it."""
        if not callable(getattr(sink, "write", None)):
            raise TypeError(f"telemetry sinks must expose write(event); got {sink!r}")
        self._sinks.append(sink)
        self._writes.append(sink.write)
        self.enabled = True
        return sink

    def remove_sink(self, sink: Any) -> None:
        """Detach ``sink``; the hub disables itself when no sinks remain."""
        index = self._sinks.index(sink)
        del self._sinks[index]
        del self._writes[index]
        self.enabled = bool(self._sinks)

    def close(self) -> None:
        """Close every sink that supports it and disable the hub."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if callable(close):
                close()
        self._sinks = []
        self._writes = []
        self.enabled = False

    # ------------------------------------------------------------------ spans
    def new_span_id(self) -> int:
        """Allocate the next span id (deterministic per-hub counter, from 1).

        Parent/child causality in ``span`` events is expressed through these
        ids; ``0`` is reserved for "no parent" (a root span).
        """
        self._span_seq += 1
        return self._span_seq

    # ------------------------------------------------------------------ emit
    def emit(self, kind: str, time: float, src: str = "", **fields: Any) -> None:
        """Publish one event to every sink.

        No-op while disabled, but hot probe sites should still guard on
        ``hub.enabled`` themselves so the payload (``fields``) is never even
        built in the disabled case.  The kwargs dict itself becomes the event
        (one allocation, not a copy); sinks must treat events as read-only.
        """
        if not self.enabled:
            return
        fields["t"] = time if time.__class__ is float else float(time)
        fields["kind"] = kind
        fields["src"] = src
        self.events_emitted += 1
        for write in self._writes:
            write(fields)

    def span(
        self,
        time: float,
        src: str,
        span_id: int,
        parent_id: int,
        name: str,
        cat: str,
        start: float,
        job_id: int,
        **extra: Any,
    ) -> None:
        """Publish one causal ``span`` event closing at ``time``.

        The one definition of a span's fields: ``start`` is its begin,
        ``parent_id`` 0 marks a root, and ``extra`` carries per-kind
        attribution (outcome, sprinted seconds, stage index, ...).  Ids come
        from :meth:`new_span_id`, allocated when the span opens.
        """
        if not self.enabled:
            return
        extra["t"] = time if time.__class__ is float else float(time)
        extra["kind"] = "span"
        extra["src"] = src
        extra["span_id"] = span_id
        extra["parent_id"] = parent_id
        extra["name"] = name
        extra["cat"] = cat
        extra["start"] = start
        extra["job_id"] = job_id
        self.emit_event(extra)

    def emit_event(self, event: Dict[str, Any]) -> None:
        """Publish a pre-built event dict (``t``/``kind``/``src`` included).

        Fast path for producers that already hold a fresh flat dict — the
        spans and samples in particular — skipping the kwargs copy
        :meth:`emit` would make.  The caller must not reuse the dict.
        """
        if not self.enabled:
            return
        self.events_emitted += 1
        for write in self._writes:
            write(event)

    def emit_events(self, events: List[Dict[str, Any]]) -> None:
        """Publish pre-built event dicts in order (see :meth:`emit_event`)."""
        if not self.enabled:
            return
        self.events_emitted += len(events)
        writes = self._writes
        if len(writes) == 1:
            write = writes[0]
            for event in events:
                write(event)
            return
        for event in events:
            for write in writes:
                write(event)


class _NullTelemetryHub(TelemetryHub):
    """The shared disabled hub; refuses sinks so it can never be enabled.

    Components default their ``telemetry`` attribute to :data:`NULL_HUB`
    instead of ``None`` so probe sites read one attribute (``enabled``)
    without a ``None`` check.  Attaching a sink to the shared instance would
    silently enable telemetry for *every* component built without an explicit
    hub, so it raises instead.
    """

    __slots__ = ()

    def add_sink(self, sink: Any) -> Any:
        raise RuntimeError(
            "cannot attach a sink to the shared NULL_HUB; "
            "construct a TelemetryHub and pass it to the component instead"
        )


#: Shared always-disabled hub used as the default for every instrumented
#: component.  Its ``emit`` is unreachable from guarded probe sites.
NULL_HUB = _NullTelemetryHub()
