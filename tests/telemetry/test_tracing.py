"""Tracing exporters and CLI: Chrome export, byte-identical merges, reports.

The load-bearing guarantee: the exported Chrome trace is a pure function of
the span stream, so a ``repro compare --trace`` run fanned out with
``--jobs N`` must produce *byte-identical* output to the serial run.
"""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.telemetry.spans import build_job_traces, decompose
from repro.telemetry.tracing import (
    chrome_trace_document,
    load_spans,
    read_spans,
    spans_from_chrome,
    validate_chrome_trace,
    write_chrome_trace,
)

COMPARE = ["compare", "--num-jobs", "50", "--seed", "4",
           "--policies", "P", "DA(0/20)"]


def test_compare_trace_serial_and_parallel_are_byte_identical(tmp_path, capsys):
    serial = str(tmp_path / "serial.json")
    parallel = str(tmp_path / "parallel.json")
    assert main([*COMPARE, "--trace", serial]) == 0
    assert main([*COMPARE, "--trace", parallel, "--jobs", "2"]) == 0
    capsys.readouterr()
    serial_bytes = open(serial, "rb").read()
    parallel_bytes = open(parallel, "rb").read()
    assert serial_bytes, "the export must not be empty"
    assert serial_bytes == parallel_bytes


@pytest.mark.parametrize("command", [
    ["fleet", "--clusters", "2", "--num-jobs", "40", "--seed", "1"],
    ["dag", "--num-jobs", "20", "--seed", "2"],
], ids=["fleet", "dag"])
def test_pure_trace_exports_from_memory_what_telemetry_reads_back(
    tmp_path, capsys, command
):
    """A pure ``--trace`` run exports the in-memory Tracer's spans; with
    ``--telemetry`` the export reads the JSONL file back.  Same bytes, and
    the pure run leaves no event file next to its trace."""
    pure = tmp_path / "pure.json"
    read_back = tmp_path / "read_back.json"
    assert main([*command, "--trace", str(pure)]) == 0
    assert main([*command, "--trace", str(read_back),
                 "--telemetry", str(tmp_path / "events.jsonl")]) == 0
    capsys.readouterr()
    assert pure.read_bytes(), "the export must not be empty"
    assert pure.read_bytes() == read_back.read_bytes()
    assert sorted(path.name for path in tmp_path.iterdir()) == [
        "events.jsonl", "pure.json", "read_back.json"
    ]


def test_chrome_export_round_trips_spans(tmp_path, capsys):
    trace_path = str(tmp_path / "trace.json")
    events_path = str(tmp_path / "events.jsonl")
    assert main(["fleet", "--clusters", "2", "--num-jobs", "40", "--seed", "1",
                 "--telemetry", events_path, "--trace", trace_path]) == 0
    capsys.readouterr()
    spans = read_spans(events_path)
    assert spans
    document = chrome_trace_document(spans)
    assert spans_from_chrome(document) == spans
    # And through the file: load_spans dispatches on the envelope.
    assert load_spans(trace_path) == spans


def test_validate_chrome_trace_accepts_export_and_rejects_corruption(tmp_path, capsys):
    trace_path = str(tmp_path / "trace.json")
    assert main(["dag", "--num-jobs", "20", "--seed", "2",
                 "--trace", trace_path]) == 0
    capsys.readouterr()
    count = validate_chrome_trace(trace_path)
    assert count > 0
    document = json.load(open(trace_path))
    spans = [e for e in document["traceEvents"] if e["ph"] != "M"]
    assert count == len(spans)
    del spans[0]["args"]["span_id"]
    with pytest.raises(ValueError, match="span_id"):
        validate_chrome_trace(document)
    with pytest.raises(ValueError, match="traceEvents"):
        validate_chrome_trace({"events": []})


def test_fleet_trace_decomposition_closes(tmp_path, capsys):
    trace_path = str(tmp_path / "fleet-trace.json")
    assert main(["fleet", "--clusters", "3", "--num-jobs", "60", "--seed", "0",
                 "--trace", trace_path]) == 0
    capsys.readouterr()
    traces = build_job_traces(load_spans(trace_path))
    assert traces
    routed = 0
    for trace in traces:
        parts = decompose(trace)
        assert abs(parts["residual"]) < 1e-6
        routed += len(trace.by_cat("route"))
    assert routed == len(traces), "every fleet job carries a routing annotation"


def test_trace_report_renders_and_focuses(tmp_path, capsys):
    trace_path = str(tmp_path / "trace.json")
    assert main(["dag", "--num-jobs", "20", "--seed", "2",
                 "--trace", trace_path]) == 0
    capsys.readouterr()
    assert main(["trace", trace_path]) == 0
    output = capsys.readouterr().out
    assert "Latency decomposition" in output
    assert "Span summary by category" in output
    assert "Critical path: observed vs PERT prediction" in output
    assert "Waterfall" in output

    focus_job = build_job_traces(load_spans(trace_path))[0].job_id
    assert main(["trace", trace_path, "--focus-job", str(focus_job)]) == 0
    assert f"Waterfall — job {focus_job}" in capsys.readouterr().out

    assert main(["trace", trace_path, "--validate"]) == 0
    assert "valid Chrome-trace document" in capsys.readouterr().out


def test_trace_report_unknown_focus_job_fails_cleanly(tmp_path, capsys):
    trace_path = str(tmp_path / "trace.json")
    assert main(["dag", "--num-jobs", "10", "--seed", "0",
                 "--trace", trace_path]) == 0
    capsys.readouterr()
    assert main(["trace", trace_path, "--focus-job", "987654"]) == 1
    assert "no spans for job 987654" in capsys.readouterr().err


def test_trace_flag_rejects_replicated_runs(capsys):
    assert main(["fleet", "--num-jobs", "10", "--replications", "2",
                 "--trace", "t.json"]) == 1
    assert "cannot be combined with --replications" in capsys.readouterr().err


def test_inspect_summarises_spans_and_skips_unknown_kinds(tmp_path, capsys):
    events_path = str(tmp_path / "events.jsonl")
    trace_path = str(tmp_path / "trace.json")
    assert main(["fleet", "--clusters", "2", "--num-jobs", "30", "--seed", "3",
                 "--telemetry", events_path, "--trace", trace_path]) == 0
    with open(events_path, "a") as handle:
        handle.write(json.dumps({"t": 0.0, "kind": "mystery_probe", "src": "x"}))
        handle.write("\n")
    capsys.readouterr()
    assert main(["inspect", events_path]) == 0
    output = capsys.readouterr().out
    assert "Trace spans by category" in output
    assert "skipped 1 events of unknown kinds (mystery_probe x1)" in output
