"""Causal span records and per-job span trees.

A *span* is one closed interval of a job's lifecycle, published on the probe
bus as a ``kind="span"`` event when the interval ends (``start`` carries the
begin, the base field ``t`` the end).  Producers allocate span ids up front
from the hub's deterministic counter (:meth:`TelemetryHub.new_span_id`), so a
child emitted before its parent closes can already reference the parent id;
this module reassembles the stream into trees afterwards.

Span vocabulary (``cat`` / typical ``name``):

``job``
    Root span per job: admission to completion.  ``parent_id`` 0.
``queue``/``queue_wait``
    Time spent in the priority buffers — one span per wait, so an evicted
    job contributes several.
``attempt``
    One dispatch of the job onto the cluster; ``outcome`` is ``completed``
    or ``evicted``, ``attempt`` the 1-based attempt index, ``sprinted`` the
    seconds of this attempt spent at sprint speed.  DAG attempts also carry
    ``cp`` (PERT-predicted critical path, comma-joined stage indices),
    ``cp_len`` and ``lb`` (lower-bound makespan).
``wave`` / ``stage``
    Execution phases inside an attempt: linear jobs emit ``wave`` spans
    (setup/map/shuffle/reduce), DAG jobs ``stage`` spans carrying ``stage``
    (index, -1 for setup), ``parents`` (comma-joined predecessor indices)
    and ``pred`` (PERT-predicted duration).
``task``
    One task occupying one cluster slot (``slot``, ``stage``).
``sprint``
    A DVFS sprint-throttle interval, child of the attempt it accelerated.
``drop`` / ``evict`` / ``route`` / ``fault``
    Zero-length annotation spans: the drop decision applied at dispatch
    (``salvaged`` = estimated seconds of work shed per slot), a preemptive
    eviction (``wasted``), fleet routing (``cluster``), and fault-recovery
    actions (``crash``/``retry``/``speculate``, attached to the attempt they
    hit).  These are terminal — they never have children.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

#: Annotation categories that must stay leaves of the span tree.
TERMINAL_CATS = frozenset({"drop", "evict", "route", "denied", "fault"})

#: Fields of a ``span`` event that are *not* kind-specific extras.
_BASE_FIELDS = frozenset(
    {"t", "kind", "src", "span_id", "parent_id", "name", "cat", "start", "job_id"}
)

#: Containment slack for float comparisons on span boundaries.
EPSILON = 1e-9


class SpanRecord:
    """One closed span.

    The :class:`~repro.telemetry.tracing.Tracer` builds it from the fields
    the hub hands it; :func:`span_from_event` decodes it from a recorded
    ``span`` event.
    """

    __slots__ = (
        "span_id",
        "parent_id",
        "name",
        "cat",
        "src",
        "start",
        "end",
        "job_id",
        "run",
        "extras",
    )

    def __init__(
        self,
        span_id: int,
        parent_id: int,
        name: str,
        cat: str,
        src: str,
        start: float,
        end: float,
        job_id: int,
        run: int = 0,
        extras: Optional[Dict[str, Any]] = None,
    ) -> None:
        self.span_id = int(span_id)
        self.parent_id = int(parent_id)
        self.name = str(name)
        self.cat = str(cat)
        self.src = str(src)
        self.start = float(start)
        self.end = float(end)
        self.job_id = int(job_id)
        self.run = int(run)
        self.extras = dict(extras) if extras else {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    @property
    def is_instant(self) -> bool:
        return self.end == self.start and self.cat in TERMINAL_CATS

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, SpanRecord):
            return NotImplemented
        return all(
            getattr(self, field) == getattr(other, field) for field in SpanRecord.__slots__
        )

    def __hash__(self) -> int:
        return hash((self.run, self.span_id))

    def __repr__(self) -> str:
        return (
            f"SpanRecord(run={self.run}, id={self.span_id}, parent={self.parent_id}, "
            f"{self.cat}/{self.name}, job={self.job_id}, "
            f"[{self.start:.6f}, {self.end:.6f}])"
        )


def span_from_event(event: Mapping[str, Any], run: int = 0) -> SpanRecord:
    """Decode one ``span`` telemetry event into a :class:`SpanRecord`."""
    return SpanRecord(
        span_id=event["span_id"],
        parent_id=event["parent_id"],
        name=event["name"],
        cat=event["cat"],
        src=event.get("src", ""),
        start=event["start"],
        end=event["t"],
        job_id=event["job_id"],
        run=run,
        extras={key: value for key, value in event.items() if key not in _BASE_FIELDS},
    )


def spans_from_events(events: Iterable[Mapping[str, Any]]) -> List[SpanRecord]:
    """Extract spans from a telemetry event stream, segmenting by run.

    Span ids are only unique within one hub, and merged multi-run streams
    (``repro compare`` part files) restart the counter per run; each
    ``run_start`` event therefore increments the run index so ids never
    collide across runs.  Spans are returned in stream order.
    """
    spans: List[SpanRecord] = []
    run = 0
    for event in events:
        kind = event.get("kind")
        if kind == "run_start":
            run += 1
        elif kind == "span":
            spans.append(span_from_event(event, run))
    return spans


class JobTrace:
    """All spans of one job in one run, indexed as a tree."""

    __slots__ = ("run", "job_id", "spans", "root", "_children")

    def __init__(self, run: int, job_id: int, spans: Sequence[SpanRecord]) -> None:
        self.run = run
        self.job_id = job_id
        self.spans: List[SpanRecord] = list(spans)
        roots = [span for span in self.spans if span.cat == "job"]
        self.root: Optional[SpanRecord] = roots[0] if roots else None
        self._children: Dict[int, List[SpanRecord]] = {}
        root_id = self.root.span_id if self.root is not None else 0
        for span in self.spans:
            if span is self.root:
                continue
            # Root-parented annotations (fleet routing happens before the
            # cluster opens the job span) hang off the job root by job_id.
            parent = span.parent_id if span.parent_id != 0 else root_id
            self._children.setdefault(parent, []).append(span)
        for children in self._children.values():
            children.sort(key=lambda span: (span.start, span.span_id))

    def children(self, span: SpanRecord) -> List[SpanRecord]:
        return self._children.get(span.span_id, [])

    def by_cat(self, cat: str) -> List[SpanRecord]:
        return [span for span in self.spans if span.cat == cat]

    def walk(self) -> Iterable[Tuple[SpanRecord, int]]:
        """Depth-first ``(span, depth)`` traversal from the job root."""
        if self.root is None:
            return
        stack: List[Tuple[SpanRecord, int]] = [(self.root, 0)]
        while stack:
            span, depth = stack.pop()
            yield span, depth
            for child in reversed(self.children(span)):
                stack.append((child, depth + 1))

    @property
    def response_time(self) -> float:
        return self.root.duration if self.root is not None else 0.0


def build_job_traces(spans: Iterable[SpanRecord]) -> List[JobTrace]:
    """Group spans into per-(run, job) traces, in first-appearance order.

    Spans with ``job_id < 0`` (kernel/run-scoped spans) belong to no job and
    are left out; fetch them with a ``cat`` filter on the raw span list.
    """
    grouped: Dict[Tuple[int, int], List[SpanRecord]] = {}
    order: List[Tuple[int, int]] = []
    for span in spans:
        if span.job_id < 0:
            continue
        key = (span.run, span.job_id)
        if key not in grouped:
            grouped[key] = []
            order.append(key)
        grouped[key].append(span)
    return [JobTrace(run, job_id, grouped[(run, job_id)]) for run, job_id in order]


def check_trace(trace: JobTrace, epsilon: float = EPSILON) -> List[str]:
    """Return human-readable span-tree invariant violations (empty = OK).

    Checked invariants: every span is closed with ``end >= start``; span ids
    are unique within the trace; every non-root parent reference resolves;
    each child interval is contained in its parent's (within ``epsilon``);
    drop/evict/route annotation spans are terminal (no children).
    """
    problems: List[str] = []
    if trace.root is None:
        problems.append(f"job {trace.job_id}: no root 'job' span")
        return problems
    by_id: Dict[int, SpanRecord] = {}
    for span in trace.spans:
        if span.end < span.start:
            problems.append(f"{span!r}: end precedes start")
        if span.span_id in by_id:
            problems.append(f"{span!r}: duplicate span id")
        by_id[span.span_id] = span
    for span in trace.spans:
        if span is trace.root or span.parent_id == 0:
            continue
        parent = by_id.get(span.parent_id)
        if parent is None:
            problems.append(f"{span!r}: parent {span.parent_id} not in trace")
            continue
        if span.start < parent.start - epsilon or span.end > parent.end + epsilon:
            problems.append(
                f"{span!r}: interval escapes parent "
                f"[{parent.start:.6f}, {parent.end:.6f}]"
            )
        if parent.cat in TERMINAL_CATS:
            problems.append(f"{span!r}: child of terminal {parent.cat!r} span")
    return problems


# ---------------------------------------------------------------------------
# Latency decomposition
# ---------------------------------------------------------------------------
#: Components of :func:`decompose`, in reporting order.  The first four sum
#: to the job's response time (``total``); ``salvaged`` is the estimated
#: extra service time dropping avoided, reported alongside rather than
#: inside the closure.
DECOMPOSITION_COMPONENTS = ("queueing", "re_execution", "sprinted", "service")


def decompose(trace: JobTrace) -> Dict[str, float]:
    """Attribute a job's response time to lifecycle components.

    The job interval partitions exactly into queue waits and attempts (an
    eviction re-queues the job at the same instant), and the final attempt
    splits into sprint-throttled and nominal service, so::

        queueing + re_execution + sprinted + service == response

    up to float rounding (``residual`` records the difference).  Evicted
    attempts count wholly as ``re_execution`` — the work was redone —
    including any sprint seconds they burned.
    """
    queueing = 0.0
    re_execution = 0.0
    sprinted = 0.0
    service = 0.0
    salvaged = 0.0
    attempts = 0
    for span in trace.spans:
        if span.cat == "queue":
            queueing += span.end - span.start
        elif span.cat == "attempt":
            attempts += 1
            if span.extras.get("outcome") == "evicted":
                re_execution += span.end - span.start
            else:
                boost = float(span.extras.get("sprinted", 0.0))
                sprinted += boost
                service += (span.end - span.start) - boost
        elif span.cat == "drop":
            salvaged += float(span.extras.get("salvaged", 0.0))
    response = trace.response_time
    total = queueing + re_execution + sprinted + service
    return {
        "queueing": queueing,
        "re_execution": re_execution,
        "sprinted": sprinted,
        "service": service,
        "salvaged": salvaged,
        "total": total,
        "response": response,
        "residual": response - total,
        "attempts": float(attempts),
    }


def aggregate_decomposition(traces: Sequence[JobTrace]) -> Dict[str, float]:
    """Sum per-job decompositions over ``traces`` (plus a ``jobs`` count)."""
    totals = {
        key: 0.0
        for key in (*DECOMPOSITION_COMPONENTS, "salvaged", "total", "response", "attempts")
    }
    for trace in traces:
        parts = decompose(trace)
        for key in totals:
            totals[key] += parts[key]
    totals["jobs"] = float(len(traces))
    return totals


# ---------------------------------------------------------------------------
# Observed critical path (DAG jobs)
# ---------------------------------------------------------------------------
def _parse_index_list(joined: Any) -> Tuple[int, ...]:
    text = str(joined).strip()
    if not text:
        return ()
    return tuple(int(token) for token in text.split(","))


def stage_observations(
    trace: JobTrace,
) -> Tuple[Dict[int, float], Dict[int, float], Dict[int, Tuple[int, ...]]]:
    """Per-stage ``(start, end, parents)`` observed in the *final* attempt.

    Evicted attempts also carry stage spans, but the critical path of record
    is the one that actually produced the result, so earlier attempts'
    stages are ignored (a stage index would otherwise appear twice).
    """
    final = [
        span
        for span in trace.by_cat("attempt")
        if span.extras.get("outcome") != "evicted"
    ]
    if not final:
        return {}, {}, {}
    attempt_id = final[-1].span_id
    starts: Dict[int, float] = {}
    ends: Dict[int, float] = {}
    parents: Dict[int, Tuple[int, ...]] = {}
    for span in trace.by_cat("stage"):
        if span.parent_id != attempt_id:
            continue
        stage = int(span.extras.get("stage", -1))
        if stage < 0:
            continue  # setup pseudo-stage
        starts[stage] = span.start
        ends[stage] = span.end
        parents[stage] = _parse_index_list(span.extras.get("parents", ""))
    return starts, ends, parents


def observed_stage_path(trace: JobTrace) -> Tuple[int, ...]:
    """The critical path a DAG job *actually* took, from its stage spans.

    Walks back from the last-finishing stage through the predecessor with
    the latest observed finish (:func:`repro.dag.analytics
    .observed_critical_path`); compare against the PERT prediction stored on
    the attempt span (``cp`` extra, :func:`predicted_stage_path`).
    """
    _, ends, parents = stage_observations(trace)
    if not ends:
        return ()
    from repro.dag.analytics import observed_critical_path

    return observed_critical_path(ends, parents)


def predicted_stage_path(trace: JobTrace) -> Tuple[int, ...]:
    """The PERT-predicted critical path recorded on the final attempt span."""
    for span in reversed(trace.by_cat("attempt")):
        if span.extras.get("outcome") != "evicted" and "cp" in span.extras:
            return _parse_index_list(span.extras["cp"])
    return ()
