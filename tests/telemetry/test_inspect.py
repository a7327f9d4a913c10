"""Tests for the run inspector's series extraction, plots and report."""

from __future__ import annotations

import json

from repro.telemetry.inspect import (
    ascii_plot,
    ascii_rate_plot,
    event_counts,
    event_weight_series,
    inspect_file,
    job_rows,
    render_report,
    sample_series,
)


def _synthetic_events():
    events = [
        {"t": 0.0, "kind": "run_start", "src": "fleet", "run": "fleet",
         "policy": "drop(0.2)+sprint", "clusters": 2},
    ]
    for i in range(20):
        t = float(i)
        events.append({"t": t, "kind": "sample", "src": "cluster0",
                       "utilisation": 0.5 + 0.02 * i, "queue_depth": float(i % 5)})
        events.append({"t": t, "kind": "sample", "src": "kernel",
                       "processed_events": 10.0 * i, "pending_events": 3.0,
                       "scheduled_events": 10.0 * i + 3.0, "heap_compactions": 0.0,
                       "events_per_simsec": 10.0})
    for i in range(8):
        events.append({"t": float(i), "kind": "job_completed", "src": "dias",
                       "job_id": i, "priority": i % 2, "response_time": 1.0 + i,
                       "queueing_time": 0.5, "execution_time": 0.5 + i,
                       "drop_ratio": 0.2, "sprinted": False})
        events.append({"t": float(i), "kind": "drop_decision", "src": "dias",
                       "job_id": i, "priority": i % 2, "map_drop_ratio": 0.2,
                       "reduce_drop_ratio": 0.0,
                       "kept_map_tasks": 8, "dropped_map_tasks": 2})
    events.append({"t": 20.0, "kind": "run_end", "src": "fleet",
                   "completed": 8, "duration": 20.0})
    return events


def test_sample_series_filters_by_field_and_src():
    events = _synthetic_events()
    times, values = sample_series(events, "utilisation")
    assert len(times) == 20 and values[0] == 0.5
    ktimes, kvalues = sample_series(events, "events_per_simsec", src="kernel")
    assert len(ktimes) == 20 and all(v == 10.0 for v in kvalues)
    assert sample_series(events, "no_such_field") == ([], [])


def test_event_weight_series_counts_and_weights():
    events = _synthetic_events()
    times, ones = event_weight_series(events, "job_completed")
    assert len(times) == 8 and all(w == 1.0 for w in ones)
    _, dropped = event_weight_series(events, "drop_decision", "dropped_map_tasks")
    assert sum(dropped) == 16.0


def test_ascii_plot_renders_label_axes_and_bars():
    times = [float(i) for i in range(50)]
    values = [float(i) for i in range(50)]
    plot = ascii_plot(times, values, width=40, height=6, label="ramp")
    lines = plot.splitlines()
    assert lines[0] == "ramp"
    assert len(lines) == 1 + 6 + 2  # label + height rows + x-axis + t labels
    assert "█" in plot
    assert "t=0" in lines[-1] and "t=49" in lines[-1]


def test_ascii_plot_empty_series():
    assert ascii_plot([], [], label="empty") == "empty: (no data)"
    assert ascii_rate_plot([], [], label="rate") == "rate: (no data)"


def test_event_counts_sorted_by_kind():
    counts = event_counts(_synthetic_events())
    kinds = [row["kind"] for row in counts]
    assert kinds == sorted(kinds)
    as_map = {row["kind"]: row["count"] for row in counts}
    assert as_map["sample"] == 40
    assert as_map["job_completed"] == 8


def test_job_rows_grouped_by_priority_descending():
    rows = job_rows(_synthetic_events())
    assert [row["priority"] for row in rows] == [1, 0]
    assert sum(row["jobs"] for row in rows) == 8
    assert all(row["mean_drop_ratio"] == 0.2 for row in rows)


def test_render_report_contains_all_sections():
    report = render_report(_synthetic_events(), width=40, height=6)
    assert "58 events" in report
    assert "policy=drop(0.2)+sprint" in report
    assert "Event counts" in report
    assert "Completed jobs by priority" in report
    assert "Drop decisions by priority" in report
    assert "Utilisation" in report
    assert "Queue depth" in report
    assert "Drop rate" in report
    # Kernel counters come once per run, so there is no rate to plot, even
    # from a stream that still samples them periodically.
    assert "Kernel event rate" not in report


def test_render_report_empty():
    assert render_report([], title="T") == "T: (no events)"


def test_inspect_file_validate_only_and_render(tmp_path):
    path = tmp_path / "t.jsonl"
    path.write_text(
        "".join(json.dumps(e, sort_keys=True) + "\n" for e in _synthetic_events())
    )
    summary = inspect_file(str(path), validate_only=True)
    assert "58 events" in summary and "valid" in summary
    report = inspect_file(str(path), width=40, height=5)
    assert "Event counts" in report
