"""Span tracing: the probe-bus subscriber, exporters and the trace report.

Three consumers of the ``span`` events defined in
:mod:`repro.telemetry.spans`:

* :class:`Tracer` — a hub sink that materialises span records (and run
  segmentation) in memory while a traced run executes.  It takes spans
  through the hub's ``write_span`` sink method, as fields rather than event
  dicts, and costs nothing when tracing is off because producers never
  publish spans then.
* Chrome trace-event export — :func:`chrome_trace_document` /
  :func:`write_chrome_trace` produce JSON loadable by ``chrome://tracing``
  and ui.perfetto.dev (``ph: "X"`` complete events on per-job / per-stage /
  per-slot tracks, ``ph: "i"`` instants for drop/evict/route annotations,
  ``ph: "M"`` metadata naming processes and threads).  Export is a pure
  function of the span stream: canonical key order, process ids assigned in
  first-appearance order — so a stream assembled from parallel part files
  (merged in submission order, PR 6) exports byte-identically to a serial
  run.  ``args`` carries the exact span fields, making the export lossless:
  :func:`spans_from_chrome` round-trips it.
* The ASCII report — :func:`render_trace_report` prints the latency
  decomposition (queueing / re-execution / sprint-throttled / service, plus
  drop-salvaged), a per-category flame summary, the slowest jobs, a per-job
  waterfall, and the observed-vs-PERT critical-path comparison for DAG jobs.
"""

from __future__ import annotations

import json
from typing import Any, Dict, List, Mapping, Optional, Sequence, Tuple, Union

from repro.telemetry.schema import read_events_lenient
from repro.telemetry.spans import (
    DECOMPOSITION_COMPONENTS,
    JobTrace,
    SpanRecord,
    aggregate_decomposition,
    build_job_traces,
    decompose,
    observed_stage_path,
    predicted_stage_path,
    spans_from_events,
    stage_observations,
)

#: Fields every exported ``args`` object carries (the rest are span extras).
_ARGS_BASE = ("span_id", "parent_id", "job_id", "src", "run", "start", "end")

#: Accepted phase types in the minimal Chrome-trace schema.
_CHROME_PHASES = frozenset({"X", "i", "M"})


class Tracer:
    """Probe-bus sink that materialises the causal span tree of a run.

    Attach to a :class:`~repro.telemetry.hub.TelemetryHub` built with
    ``tracing=True``.  The hub hands spans to :meth:`write_span`, which
    appends one :class:`SpanRecord` per span straight from its fields — no
    event dict is built or decoded for the tracer.  Multi-run streams are
    segmented on ``run_start`` (through :meth:`write`) exactly like
    :func:`~repro.telemetry.spans.spans_from_events` does for files.
    """

    def __init__(self) -> None:
        self.events_seen = 0
        self._run = 0
        self._spans: List[SpanRecord] = []

    def write(self, event: Mapping[str, Any]) -> None:
        self.events_seen += 1
        if event.get("kind") == "run_start":
            self._run += 1

    def write_span(
        self,
        t: float,
        src: str,
        span_id: int,
        parent_id: int,
        name: str,
        cat: str,
        start: float,
        job_id: int,
        extras: Dict[str, Any],
    ) -> None:
        self.events_seen += 1
        self._spans.append(
            SpanRecord(span_id, parent_id, name, cat, src, start, t, job_id, self._run, extras)
        )

    @property
    def spans(self) -> List[SpanRecord]:
        return list(self._spans)

    def traces(self) -> List[JobTrace]:
        return build_job_traces(self._spans)


def read_spans(path: str) -> List[SpanRecord]:
    """Read spans from a telemetry JSONL file (unknown kinds are skipped)."""
    events, _ = read_events_lenient(path)
    return spans_from_events(events)


# ---------------------------------------------------------------------------
# Chrome trace-event export
# ---------------------------------------------------------------------------
def _thread_id(span: SpanRecord) -> int:
    """Deterministic Chrome thread id: one track family per span level.

    Only one job occupies a controller at a time and each slot runs one task
    at a time, so putting job-level spans, per-stage spans and per-slot task
    spans on separate tid ranges yields tracks without overlapping complete
    events (which trace viewers would otherwise stack arbitrarily).
    """
    cat = span.cat
    if cat == "kernel":
        return 0
    if cat == "task":
        return 1 + int(span.extras.get("slot", 0))
    if cat in ("wave", "stage"):
        return 1001 + int(span.extras.get("stage", -1))
    return 10000 + span.job_id if span.job_id >= 0 else 10000


def _thread_name(span: SpanRecord) -> str:
    cat = span.cat
    if cat == "kernel":
        return "kernel"
    if cat == "task":
        return f"slot {int(span.extras.get('slot', 0))}"
    if cat in ("wave", "stage"):
        stage = int(span.extras.get("stage", -1))
        return "setup" if stage < 0 else f"stage {stage}"
    return f"job {span.job_id}" if span.job_id >= 0 else "run"


def chrome_trace_document(spans: Sequence[SpanRecord]) -> Dict[str, Any]:
    """Build a Chrome trace-event document (``{"traceEvents": [...]}``).

    Timestamps are microseconds (the format's unit); ``args`` additionally
    keeps the exact simulated-second floats so the export loses nothing to
    the µs conversion.  Process ids number ``(run, src)`` pairs in
    first-appearance order, which makes the document a deterministic
    function of the span stream.
    """
    pids: Dict[Tuple[int, str], int] = {}
    threads: Dict[Tuple[int, int], str] = {}
    body: List[Dict[str, Any]] = []
    for span in spans:
        key = (span.run, span.src)
        pid = pids.get(key)
        if pid is None:
            pid = len(pids) + 1
            pids[key] = pid
        tid = _thread_id(span)
        if (pid, tid) not in threads:
            threads[(pid, tid)] = _thread_name(span)
        args: Dict[str, Any] = {
            "span_id": span.span_id,
            "parent_id": span.parent_id,
            "job_id": span.job_id,
            "src": span.src,
            "run": span.run,
            "start": span.start,
            "end": span.end,
        }
        args.update(span.extras)
        entry: Dict[str, Any] = {
            "name": span.name,
            "cat": span.cat,
            "pid": pid,
            "tid": tid,
            "ts": span.start * 1e6,
            "args": args,
        }
        if span.is_instant:
            entry["ph"] = "i"
            entry["s"] = "t"
        else:
            entry["ph"] = "X"
            entry["dur"] = span.duration * 1e6
        body.append(entry)
    meta: List[Dict[str, Any]] = []
    for (run, src), pid in pids.items():
        meta.append(
            {
                "ph": "M",
                "name": "process_name",
                "pid": pid,
                "tid": 0,
                "ts": 0,
                "args": {"name": f"run{run} {src}".rstrip()},
            }
        )
    for (pid, tid), name in threads.items():
        meta.append(
            {
                "ph": "M",
                "name": "thread_name",
                "pid": pid,
                "tid": tid,
                "ts": 0,
                "args": {"name": name},
            }
        )
    return {"traceEvents": meta + body, "displayTimeUnit": "ms"}


def write_chrome_trace(path: str, spans: Sequence[SpanRecord]) -> int:
    """Write the Chrome trace JSON for ``spans`` to ``path`` canonically.

    Canonical encoding (sorted keys, no whitespace, trailing newline) keeps
    the bytes a pure function of the span stream, which is what the
    serial ≡ parallel equivalence tests compare.  Returns the number of
    span (non-metadata) events written.
    """
    document = chrome_trace_document(spans)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(json.dumps(document, sort_keys=True, separators=(",", ":")))
        handle.write("\n")
    return sum(1 for entry in document["traceEvents"] if entry["ph"] != "M")


def validate_chrome_trace(source: Union[str, Mapping[str, Any]]) -> int:
    """Validate ``source`` (path or decoded dict) against a minimal schema.

    Checks the trace-event envelope and per-phase required fields — enough
    to guarantee chrome://tracing / Perfetto can load the file and that our
    own ``args`` round-trip fields are present.  Returns the number of
    non-metadata events; raises ``ValueError`` on the first violation.
    """
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8") as handle:
            try:
                document = json.load(handle)
            except json.JSONDecodeError as error:
                raise ValueError(f"{source}: invalid JSON ({error})") from error
    else:
        document = source
    if not isinstance(document, Mapping) or "traceEvents" not in document:
        raise ValueError("not a Chrome trace: missing top-level 'traceEvents'")
    events = document["traceEvents"]
    if not isinstance(events, list):
        raise ValueError("'traceEvents' must be a JSON array")
    spans = 0
    for index, entry in enumerate(events):
        where = f"traceEvents[{index}]"
        if not isinstance(entry, Mapping):
            raise ValueError(f"{where}: not an object")
        phase = entry.get("ph")
        if phase not in _CHROME_PHASES:
            raise ValueError(f"{where}: unsupported phase {phase!r}")
        for field, types in (("name", str), ("pid", int), ("tid", int)):
            if not isinstance(entry.get(field), types) or isinstance(entry.get(field), bool):
                raise ValueError(f"{where}: missing or mistyped {field!r}")
        if not isinstance(entry.get("ts"), (int, float)) or entry["ts"] < 0:
            raise ValueError(f"{where}: 'ts' must be a non-negative number")
        args = entry.get("args")
        if not isinstance(args, Mapping):
            raise ValueError(f"{where}: missing 'args' object")
        if phase == "M":
            if not isinstance(args.get("name"), str):
                raise ValueError(f"{where}: metadata 'args.name' must be a string")
            continue
        if phase == "X":
            if not isinstance(entry.get("dur"), (int, float)) or entry["dur"] < 0:
                raise ValueError(f"{where}: 'dur' must be a non-negative number")
        elif entry.get("s") != "t":
            raise ValueError(f"{where}: instant events must carry s='t'")
        for field in ("span_id", "parent_id", "job_id", "run"):
            if not isinstance(args.get(field), int):
                raise ValueError(f"{where}: 'args.{field}' must be an integer")
        for field in ("start", "end"):
            if not isinstance(args.get(field), (int, float)):
                raise ValueError(f"{where}: 'args.{field}' must be a number")
        spans += 1
    return spans


def spans_from_chrome(document: Mapping[str, Any]) -> List[SpanRecord]:
    """Rebuild the exact span records from an exported Chrome trace."""
    validate_chrome_trace(document)
    spans: List[SpanRecord] = []
    for entry in document["traceEvents"]:
        if entry["ph"] == "M":
            continue
        args = entry["args"]
        spans.append(
            SpanRecord(
                span_id=args["span_id"],
                parent_id=args["parent_id"],
                name=entry["name"],
                cat=entry.get("cat", ""),
                src=args["src"],
                start=args["start"],
                end=args["end"],
                job_id=args["job_id"],
                run=args["run"],
                extras={k: v for k, v in args.items() if k not in _ARGS_BASE},
            )
        )
    return spans


def load_spans(path: str) -> List[SpanRecord]:
    """Load spans from either an exported Chrome trace or telemetry JSONL."""
    with open(path, "r", encoding="utf-8") as handle:
        text = handle.read()
    if text.lstrip().startswith("{"):
        try:
            document = json.loads(text)
        except json.JSONDecodeError:
            document = None
        if isinstance(document, Mapping) and "traceEvents" in document:
            return spans_from_chrome(document)
    return spans_from_events(read_events_lenient(path)[0])


# ---------------------------------------------------------------------------
# ASCII report
# ---------------------------------------------------------------------------
def _span_label(span: SpanRecord) -> str:
    cat = span.cat
    extras = span.extras
    if cat == "job":
        return f"job {span.job_id} (prio {extras.get('priority', '?')})"
    if cat == "queue":
        return "queue_wait"
    if cat == "attempt":
        return f"attempt#{extras.get('attempt', '?')} ({extras.get('outcome', '?')})"
    if cat == "wave":
        return f"{span.name}[{extras.get('stage', '?')}]"
    if cat == "stage":
        stage = int(extras.get("stage", -1))
        return "setup" if stage < 0 else f"stage {stage}"
    if cat == "task":
        return f"task s{extras.get('slot', '?')}"
    if cat == "drop":
        return f"drop ({extras.get('dropped_tasks', '?')} tasks)"
    if cat == "route":
        return f"route->c{extras.get('cluster', '?')}"
    return span.name


def render_waterfall(trace: JobTrace, width: int = 100, max_rows: int = 60) -> str:
    """ASCII waterfall of one job's span tree on a shared time axis."""
    root = trace.root
    if root is None:
        return f"job {trace.job_id}: no root span"
    rows: List[Tuple[str, SpanRecord]] = []
    for span, depth in trace.walk():
        rows.append(("  " * depth + _span_label(span), span))
    omitted = max(0, len(rows) - max_rows)
    rows = rows[:max_rows]
    label_width = max(len(label) for label, _ in rows)
    bar_width = max(20, width - label_width - 16)
    window = (root.end - root.start) or 1.0
    lines = [
        f"Waterfall — job {trace.job_id} (run {trace.run})  "
        f"t={root.start:.6g} .. {root.end:.6g}  response={root.duration:.6g}s"
    ]
    for label, span in rows:
        lo = int((span.start - root.start) / window * bar_width)
        hi = int((span.end - root.start) / window * bar_width)
        lo = min(max(lo, 0), bar_width - 1)
        hi = min(max(hi, lo), bar_width)
        if span.is_instant:
            bar = " " * lo + "|" + " " * (bar_width - lo - 1)
            metric = f"@{span.start:.4g}"
        else:
            fill = max(hi - lo, 1)
            bar = " " * lo + "#" * fill + " " * (bar_width - lo - fill)
            metric = f"{span.duration:.4g}s"
        lines.append(f"{label:<{label_width}} [{bar}] {metric}")
    if omitted:
        lines.append(f"... {omitted} more spans (use --focus-job or widen --max-rows)")
    return "\n".join(lines)


def decomposition_rows(traces: Sequence[JobTrace]) -> List[Dict[str, Any]]:
    """Aggregate decomposition as table rows (component, seconds, share)."""
    totals = aggregate_decomposition(traces)
    response = totals["response"] or 1.0
    rows = [
        {
            "component": component,
            "seconds": totals[component],
            "share_pct": 100.0 * totals[component] / response,
        }
        for component in DECOMPOSITION_COMPONENTS
    ]
    rows.append(
        {"component": "response (=sum)", "seconds": totals["response"], "share_pct": 100.0}
    )
    rows.append(
        {
            "component": "drop_salvaged (avoided)",
            "seconds": totals["salvaged"],
            "share_pct": 100.0 * totals["salvaged"] / response,
        }
    )
    return rows


def span_summary_rows(spans: Sequence[SpanRecord]) -> List[Dict[str, Any]]:
    """Per-category span counts and durations (the flame-style aggregate)."""
    by_cat: Dict[str, List[float]] = {}
    for span in spans:
        by_cat.setdefault(span.cat, []).append(span.duration)
    rows = []
    for cat in sorted(by_cat):
        durations = by_cat[cat]
        total = sum(durations)
        rows.append(
            {
                "cat": cat,
                "spans": len(durations),
                "total_s": total,
                "mean_s": total / len(durations),
            }
        )
    return rows


def job_decomposition_rows(
    traces: Sequence[JobTrace], limit: int = 8
) -> List[Dict[str, Any]]:
    """Per-job decomposition of the ``limit`` slowest jobs."""
    scored = sorted(traces, key=lambda t: (-t.response_time, t.run, t.job_id))
    rows = []
    for trace in scored[:limit]:
        parts = decompose(trace)
        rows.append(
            {
                "run": trace.run,
                "job": trace.job_id,
                "response_s": parts["response"],
                "queueing_s": parts["queueing"],
                "service_s": parts["service"],
                "sprinted_s": parts["sprinted"],
                "re_exec_s": parts["re_execution"],
                "salvaged_s": parts["salvaged"],
                "attempts": int(parts["attempts"]),
            }
        )
    return rows


def critical_path_rows(traces: Sequence[JobTrace]) -> List[Dict[str, Any]]:
    """Observed-vs-PERT critical-path comparison for DAG jobs."""
    rows = []
    for trace in traces:
        predicted = predicted_stage_path(trace)
        if not predicted:
            continue
        observed = observed_stage_path(trace)
        starts, ends, _ = stage_observations(trace)
        observed_len = (
            ends[observed[-1]] - starts[observed[0]] if observed else 0.0
        )
        final_attempts = [
            span
            for span in trace.by_cat("attempt")
            if span.extras.get("outcome") != "evicted"
        ]
        extras = final_attempts[-1].extras if final_attempts else {}
        rows.append(
            {
                "run": trace.run,
                "job": trace.job_id,
                "predicted_path": ">".join(str(i) for i in predicted),
                "observed_path": ">".join(str(i) for i in observed),
                "match": "yes" if predicted == observed else "no",
                "pert_len_s": float(extras.get("cp_len", 0.0)),
                "observed_len_s": observed_len,
            }
        )
    return rows


def render_trace_report(
    spans: Sequence[SpanRecord],
    width: int = 100,
    focus_job: Optional[int] = None,
    jobs_limit: int = 8,
) -> str:
    """The full ``repro trace`` report for a span stream."""
    # Imported here: reporting sits above telemetry in the layering (the
    # experiments package imports the harness, which imports the controllers,
    # which import this package).
    from repro.experiments.reporting import format_rows

    if not spans:
        return "Trace: (no spans — was the run made with --trace?)"
    traces = build_job_traces(spans)
    runs = len({span.run for span in spans})
    tmin = min(span.start for span in spans)
    tmax = max(span.end for span in spans)
    sections = [
        f"Trace — {len(spans)} spans, {len(traces)} jobs, {runs} run(s), "
        f"sim time {tmin:.6g} .. {tmax:.6g}"
    ]
    sections.append(
        "Latency decomposition (all jobs)\n" + format_rows(decomposition_rows(traces))
    )
    sections.append("Span summary by category\n" + format_rows(span_summary_rows(spans)))
    job_rows = job_decomposition_rows(traces, limit=jobs_limit)
    if job_rows:
        sections.append("Slowest jobs\n" + format_rows(job_rows))
    cp_rows = critical_path_rows(traces)
    if cp_rows:
        sections.append(
            "Critical path: observed vs PERT prediction\n" + format_rows(cp_rows)
        )
    focus: Optional[JobTrace] = None
    if focus_job is not None:
        matching = [trace for trace in traces if trace.job_id == focus_job]
        if not matching:
            known = ", ".join(str(t.job_id) for t in traces[:20])
            raise ValueError(f"no spans for job {focus_job}; traced jobs: {known}")
        focus = matching[0]
    elif traces:
        focus = max(traces, key=lambda t: (t.response_time, -t.run, -t.job_id))
    if focus is not None:
        sections.append(render_waterfall(focus, width=width))
    return "\n\n".join(sections)
