"""The run inspector: summary tables + ASCII time-series of a telemetry file.

``repro inspect telemetry.jsonl`` validates every line against the event
schema (:mod:`repro.telemetry.schema`) and renders:

* event counts by kind and the run headers (policy, router, clusters);
* per-priority job statistics from ``job_completed`` events;
* drop-decision and sprint/eviction summaries;
* ASCII time-series plots — utilisation, total queue depth and drop rate
  over simulated time — in the spirit of monotasks'
  ``plot_continuous_monitor``, but terminal-native and dependency-free.

All tables reuse :func:`repro.experiments.reporting.format_rows` so inspector
output reads like the rest of the CLI.
"""

from __future__ import annotations

from typing import Any, Dict, List, Optional, Sequence, Tuple

from repro.experiments.reporting import format_rows
from repro.simulation.metrics import percentile
from repro.telemetry.schema import read_events, read_events_lenient

#: Left margin reserved for y-axis labels in ASCII plots.
_Y_LABEL_WIDTH = 10


# ---------------------------------------------------------------------------
# Series extraction
# ---------------------------------------------------------------------------
def sample_series(
    events: Sequence[Dict[str, Any]], field: str, src: Optional[str] = None
) -> Tuple[List[float], List[float]]:
    """(times, values) of ``field`` across ``sample`` events (optionally one src)."""
    times: List[float] = []
    values: List[float] = []
    for event in events:
        if event.get("kind") != "sample" or field not in event:
            continue
        if src is not None and event.get("src") != src:
            continue
        times.append(float(event["t"]))
        values.append(float(event[field]))
    return times, values


def event_weight_series(
    events: Sequence[Dict[str, Any]], kind: str, field: Optional[str] = None
) -> Tuple[List[float], List[float]]:
    """(times, weights) of ``kind`` events; weight is ``field`` or 1 per event."""
    times: List[float] = []
    weights: List[float] = []
    for event in events:
        if event.get("kind") != kind:
            continue
        times.append(float(event["t"]))
        weights.append(float(event[field]) if field is not None else 1.0)
    return times, weights


# ---------------------------------------------------------------------------
# ASCII plotting
# ---------------------------------------------------------------------------
def _bucketize(
    times: Sequence[float], values: Sequence[float], width: int
) -> Tuple[float, float, List[List[float]]]:
    tmin, tmax = min(times), max(times)
    span = (tmax - tmin) or 1.0
    buckets: List[List[float]] = [[] for _ in range(width)]
    for t, v in zip(times, values):
        index = min(width - 1, int((t - tmin) / span * width))
        buckets[index].append(v)
    return tmin, tmax, buckets


def _render_columns(
    columns: Sequence[Optional[float]],
    tmin: float,
    tmax: float,
    height: int,
    label: str,
) -> str:
    filled = [c for c in columns if c is not None]
    if not filled:
        return f"{label}: (no data)"
    vmax = max(filled)
    vmin = min(0.0, min(filled))
    vspan = (vmax - vmin) or 1.0
    lines = [label]
    for row in range(height, 0, -1):
        threshold = vmin + vspan * (row - 0.5) / height
        if row == height:
            ylabel = f"{vmax:>{_Y_LABEL_WIDTH}.4g} ┤"
        elif row == 1:
            ylabel = f"{vmin:>{_Y_LABEL_WIDTH}.4g} ┤"
        elif row == (height + 1) // 2:
            ylabel = f"{vmin + vspan / 2.0:>{_Y_LABEL_WIDTH}.4g} ┤"
        else:
            ylabel = " " * _Y_LABEL_WIDTH + " │"
        cells = [
            " " if c is None else ("█" if c >= threshold else " ") for c in columns
        ]
        lines.append(ylabel + "".join(cells))
    lines.append(" " * _Y_LABEL_WIDTH + " └" + "─" * len(columns))
    left = f"t={tmin:.6g}"
    right = f"t={tmax:.6g}"
    padding = max(1, len(columns) - len(left) - len(right))
    lines.append(" " * (_Y_LABEL_WIDTH + 2) + left + " " * padding + right)
    return "\n".join(lines)


def ascii_plot(
    times: Sequence[float],
    values: Sequence[float],
    width: int = 60,
    height: int = 10,
    label: str = "",
) -> str:
    """Bar plot of a time series; columns average samples falling in them."""
    if not times:
        return f"{label}: (no data)"
    tmin, tmax, buckets = _bucketize(times, values, width)
    columns = [sum(b) / len(b) if b else None for b in buckets]
    return _render_columns(columns, tmin, tmax, height, label)


def ascii_rate_plot(
    times: Sequence[float],
    weights: Sequence[float],
    width: int = 60,
    height: int = 10,
    label: str = "",
) -> str:
    """Rate plot: per-column sum of ``weights`` divided by the column's span."""
    if not times:
        return f"{label}: (no data)"
    tmin, tmax, buckets = _bucketize(times, weights, width)
    span = ((tmax - tmin) or 1.0) / width
    columns: List[Optional[float]] = [sum(b) / span if b else 0.0 for b in buckets]
    return _render_columns(columns, tmin, tmax, height, label)


# ---------------------------------------------------------------------------
# Summaries
# ---------------------------------------------------------------------------
def event_counts(events: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    counts: Dict[str, int] = {}
    for event in events:
        counts[event["kind"]] = counts.get(event["kind"], 0) + 1
    return [{"kind": kind, "count": counts[kind]} for kind in sorted(counts)]


def job_rows(events: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-priority latency/drop summary from ``job_completed`` events."""
    by_priority: Dict[int, List[Dict[str, Any]]] = {}
    for event in events:
        if event["kind"] != "job_completed":
            continue
        by_priority.setdefault(int(event["priority"]), []).append(event)
    rows: List[Dict[str, Any]] = []
    for priority in sorted(by_priority, reverse=True):
        completed = by_priority[priority]
        responses = [e["response_time"] for e in completed]
        rows.append(
            {
                "priority": priority,
                "jobs": len(completed),
                "mean_response_s": sum(responses) / len(responses),
                "p95_response_s": percentile(responses, 95.0),
                "mean_drop_ratio": sum(e["drop_ratio"] for e in completed) / len(completed),
            }
        )
    return rows


def drop_rows(events: Sequence[Dict[str, Any]]) -> List[Dict[str, Any]]:
    """Per-priority drop-decision summary from ``drop_decision`` events."""
    by_priority: Dict[int, List[Dict[str, Any]]] = {}
    for event in events:
        if event["kind"] != "drop_decision":
            continue
        by_priority.setdefault(int(event["priority"]), []).append(event)
    rows: List[Dict[str, Any]] = []
    for priority in sorted(by_priority, reverse=True):
        decisions = by_priority[priority]
        rows.append(
            {
                "priority": priority,
                "decisions": len(decisions),
                "mean_map_drop_ratio": sum(d["map_drop_ratio"] for d in decisions)
                / len(decisions),
                "dropped_tasks": int(sum(d["dropped_map_tasks"] for d in decisions)),
            }
        )
    return rows


def headline(events: Sequence[Dict[str, Any]]) -> str:
    """One-line run description from ``run_start``/``run_end`` events."""
    parts: List[str] = []
    for event in events:
        if event["kind"] == "run_start":
            extra = [f"policy={event['policy']}"]
            for key in ("dispatcher", "scheduler", "clusters", "budget"):
                if key in event:
                    extra.append(f"{key}={event[key]}")
            parts.append(f"run={event['run']}  " + "  ".join(extra))
    for event in events:
        if event["kind"] == "run_end":
            parts.append(
                f"completed={int(event['completed'])}  duration={event['duration']:.6g}s"
            )
    return "\n".join(parts)


def render_report(
    events: Sequence[Dict[str, Any]],
    width: int = 60,
    height: int = 10,
    title: str = "Telemetry",
) -> str:
    """The full inspector report: headers, tables and time-series plots."""
    if not events:
        return f"{title}: (no events)"
    times = [e["t"] for e in events]
    sections: List[str] = [
        f"{title} — {len(events)} events, sim time {min(times):.6g} .. {max(times):.6g}"
    ]
    head = headline(events)
    if head:
        sections.append(head)
    sections.append("Event counts\n" + format_rows(event_counts(events)))
    jobs = job_rows(events)
    if jobs:
        sections.append("Completed jobs by priority\n" + format_rows(jobs))
    drops = drop_rows(events)
    if drops:
        sections.append("Drop decisions by priority\n" + format_rows(drops))
    sprints = sum(1 for e in events if e["kind"] == "sprint_start")
    denied = sum(1 for e in events if e["kind"] == "sprint_denied")
    sprinted = sum(e["sprinted"] for e in events if e["kind"] == "sprint_end")
    evictions = sum(1 for e in events if e["kind"] == "job_evicted")
    compactions = sum(1 for e in events if e["kind"] == "heap_compaction")
    sections.append(
        f"Sprints: {sprints} started, {denied} denied, {sprinted:.6g} sprinted-seconds"
        f"   Evictions: {evictions}   Heap compactions: {compactions}"
    )
    util_t, util_v = sample_series(events, "utilisation")
    if util_t:
        sections.append(
            ascii_plot(util_t, util_v, width, height,
                       label="Utilisation (mean across sampled sources)")
        )
    depth_t, depth_v = sample_series(events, "queue_depth")
    if depth_t:
        sections.append(
            ascii_plot(depth_t, depth_v, width, height,
                       label="Queue depth (jobs buffered, mean across sampled sources)")
        )
    drop_t, drop_w = event_weight_series(events, "drop_decision", "dropped_map_tasks")
    if drop_t:
        sections.append(
            ascii_rate_plot(drop_t, drop_w, width, height,
                            label="Drop rate (dropped tasks per sim-second)")
        )
    if any(e["kind"] == "span" for e in events):
        from repro.telemetry.spans import spans_from_events
        from repro.telemetry.tracing import span_summary_rows

        spans = spans_from_events(events)
        sections.append(
            "Trace spans by category (render with: repro trace)\n"
            + format_rows(span_summary_rows(spans))
        )
    return "\n\n".join(sections)


def inspect_file(
    path: str, width: int = 60, height: int = 10, validate_only: bool = False
) -> str:
    """Load, validate and render ``path``; the CLI entry point's workhorse.

    ``--validate`` keeps the strict reader (any unknown kind is an error);
    the report path reads leniently so files from newer probe vocabularies
    still render, with a note counting what was skipped.
    """
    if validate_only:
        events = read_events(path)
        return f"{path}: {len(events)} events, all lines valid"
    events, skipped = read_events_lenient(path)
    report = render_report(events, width=width, height=height, title=f"Telemetry {path}")
    if skipped:
        detail = ", ".join(f"{kind} x{count}" for kind, count in sorted(skipped.items()))
        report += (
            f"\n\nskipped {sum(skipped.values())} events of unknown kinds ({detail})"
        )
    return report
