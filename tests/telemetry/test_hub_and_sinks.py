"""Tests for the telemetry probe bus and its sinks."""

from __future__ import annotations

import json

import pytest

from repro.telemetry import (
    NULL_HUB,
    CallbackSink,
    JsonLinesSink,
    RingBufferSink,
    TelemetryHub,
    Tracer,
    merge_parts,
    part_path,
    seed_part_path,
)


def test_hub_disabled_without_sinks():
    hub = TelemetryHub()
    assert not hub.enabled
    hub.emit("job_admitted", 1.0, src="dias", job_id=1, priority=0)
    assert hub.events_emitted == 0


def test_hub_enables_on_first_sink_and_fans_out():
    hub = TelemetryHub()
    seen = []
    hub.add_sink(CallbackSink(seen.append))
    ring = hub.add_sink(RingBufferSink(capacity=8))
    assert hub.enabled
    hub.emit("job_admitted", 2.5, src="dias", job_id=7, priority=1)
    assert hub.events_emitted == 1
    assert seen == [{"t": 2.5, "kind": "job_admitted", "src": "dias",
                     "job_id": 7, "priority": 1}]
    assert list(ring.events) == seen


def test_remove_last_sink_disables_hub():
    hub = TelemetryHub()
    sink = hub.add_sink(RingBufferSink())
    hub.remove_sink(sink)
    assert not hub.enabled


def test_null_hub_refuses_sinks():
    with pytest.raises(RuntimeError):
        NULL_HUB.add_sink(RingBufferSink())
    assert not NULL_HUB.enabled


def test_invalid_sample_interval_rejected():
    with pytest.raises(ValueError):
        TelemetryHub(sample_interval=0.0)
    with pytest.raises(ValueError):
        TelemetryHub(sample_interval=-1.0)


def test_jsonl_sink_writes_canonical_lines(tmp_path):
    path = tmp_path / "t.jsonl"
    hub = TelemetryHub()
    sink = hub.add_sink(JsonLinesSink(str(path)))
    hub.emit("sample", 1.0, src="kernel", b=2.0, a=1.0)
    hub.close()
    assert sink.events_written == 1
    line = path.read_text().strip()
    # Canonical encoding: sorted keys, no whitespace.
    assert line == json.dumps(json.loads(line), sort_keys=True,
                              separators=(",", ":"))


def test_ring_buffer_bounded():
    ring = RingBufferSink(capacity=3)
    for i in range(10):
        ring.write({"t": float(i), "kind": "sample", "src": "x"})
    assert len(ring) == 3
    assert [e["t"] for e in ring.events] == [7.0, 8.0, 9.0]


def test_merge_parts_preserves_order_and_cleans_up(tmp_path):
    base = str(tmp_path / "out.jsonl")
    parts = [part_path(base, f"u{i}") for i in range(3)]
    for i, part in enumerate(parts):
        with open(part, "w") as handle:
            handle.write(f'{{"t":{i}.0}}\n')
    count = merge_parts(base, parts)
    assert count == 3
    lines = open(base).read().splitlines()
    assert lines == ['{"t":0.0}', '{"t":1.0}', '{"t":2.0}']
    import os
    assert not any(os.path.exists(part) for part in parts)


def test_seed_part_path_unique_per_seed():
    assert seed_part_path("x.jsonl", 0) != seed_part_path("x.jsonl", 1000)


def _publish_span(hub, span_id, **extra):
    hub.span(float(span_id), "dias", span_id, 0, "job", "job", 0.5, span_id, **extra)


def test_tracer_and_dict_sinks_each_get_every_span_once():
    hub = TelemetryHub(tracing=True)
    ring = hub.add_sink(RingBufferSink())
    tracer = hub.add_sink(Tracer())
    seen = []
    hub.add_sink(CallbackSink(seen.append))
    hub.emit("run_start", 0.0, src="dias", run="x", policy="P")
    _publish_span(hub, 1, priority=0)
    assert hub.events_emitted == tracer.events_seen == len(ring) == len(seen) == 2
    assert seen == ring.events
    assert seen[1] == {"priority": 0, "t": 1.0, "kind": "span", "src": "dias",
                       "span_id": 1, "parent_id": 0, "name": "job", "cat": "job",
                       "start": 0.5, "job_id": 1}
    [record] = tracer.spans
    assert (record.run, record.span_id, record.end, record.extras) == (1, 1, 1.0, {"priority": 0})
    # The event dict is a copy: the record's extras hold no base field.
    assert seen[1] is not record.extras


def test_removed_tracer_stops_getting_spans_and_dict_sinks_stay_complete():
    hub = TelemetryHub(tracing=True)
    tracer = hub.add_sink(Tracer())
    ring = hub.add_sink(RingBufferSink())
    _publish_span(hub, 1)
    hub.remove_sink(tracer)
    assert hub.enabled
    _publish_span(hub, 2, outcome="completed")
    assert [record.span_id for record in tracer.spans] == [1]
    assert tracer.events_seen == 1
    assert [event["span_id"] for event in ring.events] == [1, 2]
    assert ring.events[1] == {"outcome": "completed", "t": 2.0, "kind": "span",
                              "src": "dias", "span_id": 2, "parent_id": 0,
                              "name": "job", "cat": "job", "start": 0.5, "job_id": 2}
    hub.remove_sink(ring)
    assert not hub.enabled


def test_close_empties_every_sink_list():
    hub = TelemetryHub(tracing=True)
    hub.add_sink(Tracer())
    hub.add_sink(RingBufferSink())
    hub.close()
    assert not hub.enabled
    assert hub.sinks == []
    assert hub._writes == hub._span_writes == hub._span_event_writes == []
    _publish_span(hub, 1)
    assert hub.events_emitted == 0


def test_tracer_only_hub_still_gets_non_span_events():
    hub = TelemetryHub(tracing=True)
    tracer = hub.add_sink(Tracer())
    hub.emit("run_start", 0.0, src="dias", run="a", policy="P")
    _publish_span(hub, 1)
    hub.emit("run_start", 5.0, src="dias", run="b", policy="P")
    _publish_span(hub, 2)
    assert tracer.events_seen == hub.events_emitted == 4
    assert [record.run for record in tracer.spans] == [1, 2]
