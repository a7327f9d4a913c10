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

A sink may also expose the optional span method
``write_span(t, src, span_id, parent_id, name, cat, start, job_id, extras)``.
:meth:`TelemetryHub.span` hands such a sink the span's fields directly
instead of an event dict — the in-memory
:class:`~repro.telemetry.tracing.Tracer` builds its record from them — and
builds the ``span`` event dict only when a sink without ``write_span`` (a
JSON-lines file, a ring buffer, a callback) is attached.  Every other event
still reaches every sink through ``write``.
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
        "_span_event_writes",
        "_span_writes",
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
        # The span fan-out, split by sink kind: ``write`` of the sinks that
        # take span events as dicts, ``write_span`` of those that take fields.
        self._span_event_writes: List[Callable[[Dict[str, Any]], None]] = []
        self._span_writes: List[Callable[..., None]] = []
        self._span_seq = 0

    # ------------------------------------------------------------------ sinks
    @property
    def sinks(self) -> List[Any]:
        return list(self._sinks)

    def add_sink(self, sink: Any) -> Any:
        """Attach ``sink`` (anything with ``write(event)``); returns it.

        A sink that also exposes ``write_span`` receives spans through it
        (see :meth:`span`) and every other event through ``write``.
        """
        if not callable(getattr(sink, "write", None)):
            raise TypeError(f"telemetry sinks must expose write(event); got {sink!r}")
        self._sinks.append(sink)
        self._bind()
        return sink

    def remove_sink(self, sink: Any) -> None:
        """Detach ``sink``; the hub disables itself when no sinks remain."""
        self._sinks.remove(sink)
        self._bind()

    def close(self) -> None:
        """Close every sink that supports it and disable the hub."""
        for sink in self._sinks:
            close = getattr(sink, "close", None)
            if callable(close):
                close()
        self._sinks = []
        self._bind()

    def _bind(self) -> None:
        """Rebuild the pre-bound write lists from ``_sinks``."""
        self._writes = [sink.write for sink in self._sinks]
        self._span_event_writes = []
        self._span_writes = []
        for sink in self._sinks:
            write_span = getattr(sink, "write_span", None)
            if callable(write_span):
                self._span_writes.append(write_span)
            else:
                self._span_event_writes.append(sink.write)
        self.enabled = bool(self._sinks)

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

        Sinks with a ``write_span`` method get the fields as arguments, with
        ``extra`` as their read-only ``extras`` dict; the event dict (the
        extras plus the base fields ``t``, ``kind``, ``src``, ``span_id``,
        ...) is built only for the other sinks, and then as a copy when both
        kinds are attached, so no record's extras ever holds a base field.
        Either way each sink sees the span once and ``events_emitted`` counts
        it once.
        """
        if not self.enabled:
            return
        if time.__class__ is not float:
            time = float(time)
        self.events_emitted += 1
        span_writes = self._span_writes
        event_writes = self._span_event_writes
        if event_writes:
            event = dict(extra) if span_writes else extra
            event["t"] = time
            event["kind"] = "span"
            event["src"] = src
            event["span_id"] = span_id
            event["parent_id"] = parent_id
            event["name"] = name
            event["cat"] = cat
            event["start"] = start
            event["job_id"] = job_id
            for write in event_writes:
                write(event)
        for write_span in span_writes:
            write_span(time, src, span_id, parent_id, name, cat, start, job_id, extra)

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
