"""Live telemetry: probe bus, periodic samplers, sinks and the run inspector.

The telemetry layer gives long fleet/DAG runs continuous, streaming
visibility — utilization, per-class queue depths, drop/sprint decisions,
DVFS transitions, kernel counters — while they are in flight, in the style
of monotasks' ``plot_continuous_monitor``:

* :class:`~repro.telemetry.hub.TelemetryHub` is the probe bus the kernel,
  the executions, the controllers, the fault injector and the shared
  sprint-budget arbiter publish typed events to.  It is **zero-cost when
  disabled**: every probe site guards on the hub's ``enabled`` flag before
  building the event payload, and a hub with no sinks is disabled.
  :meth:`~repro.telemetry.hub.TelemetryHub.span` is the one definition of a
  causal ``span`` event.
* :class:`~repro.telemetry.lifecycle.LifecycleProbe` reports the controller's
  state machine: :class:`~repro.core.dias.DiASSimulation` (and the DAG
  controller that subclasses it) and
  :class:`~repro.fleet.simulation.FleetSimulation` make one probe call per
  transition — admitted, routed, dispatched, evicted, completed, fault
  restart, sprint on/off/denied — and the probe publishes its event and owns
  the job, queue-wait, attempt and sprint spans.  The executions emit their
  own wave, stage, task and fault spans; the kernel emits its run span.
* :mod:`~repro.telemetry.sinks` holds the pluggable outputs: a JSON-lines
  file writer, a bounded in-memory ring buffer, and a callback sink, plus
  the deterministic part-file merge used by parallel runs.
* :class:`~repro.telemetry.sampler.PeriodicSampler` snapshots simulation
  state at a configurable *simulated-time* interval.  Samples contain no
  wall-clock quantities, so telemetry streams are byte-identical across
  reruns of the same seed.  Ticks come from the kernel's clock watch, not
  from events, and the kernel's counters are published once per run (see
  the module docstring).
* :mod:`~repro.telemetry.schema` defines the event schema and validates
  recorded streams; :mod:`~repro.telemetry.inspect` renders summary tables
  and ASCII time-series plots (``repro inspect telemetry.jsonl``).
"""

from repro.telemetry.hub import NULL_HUB, TelemetryHub
from repro.telemetry.lifecycle import LifecycleProbe
from repro.telemetry.sampler import PeriodicSampler, kernel_sample_source
from repro.telemetry.sinks import (
    CallbackSink,
    JsonLinesSink,
    RingBufferSink,
    merge_parts,
    part_path,
    seed_part_path,
)
from repro.telemetry.spans import (
    JobTrace,
    SpanRecord,
    build_job_traces,
    spans_from_events,
)
from repro.telemetry.tracing import (
    Tracer,
    load_spans,
    read_spans,
    render_trace_report,
    validate_chrome_trace,
    write_chrome_trace,
)

__all__ = [
    "NULL_HUB",
    "TelemetryHub",
    "LifecycleProbe",
    "PeriodicSampler",
    "kernel_sample_source",
    "CallbackSink",
    "JsonLinesSink",
    "RingBufferSink",
    "merge_parts",
    "part_path",
    "seed_part_path",
    "JobTrace",
    "SpanRecord",
    "build_job_traces",
    "spans_from_events",
    "Tracer",
    "load_spans",
    "read_spans",
    "render_trace_report",
    "validate_chrome_trace",
    "write_chrome_trace",
]
