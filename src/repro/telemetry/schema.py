"""Telemetry event schema and JSON-lines validation.

Every event is a flat JSON object with three base fields — ``t`` (simulated
time, number), ``kind`` (event type) and ``src`` (emitting component, e.g.
``"fleet"``, ``"cluster3"``, ``"kernel"``, ``"dag"``) — plus kind-specific
required fields listed in :data:`KIND_FIELDS`.  Extra fields are allowed
(``sample`` events in particular carry per-class queue-depth columns whose
names depend on the workload), so the schema stays forward compatible while
still catching malformed producers.

:func:`validate_event` checks one decoded object; :func:`validate_file`
validates a whole JSONL stream and reports the offending line on failure.
The CI bench-smoke job runs ``repro inspect --validate`` over a short fleet
run's telemetry to keep producers and schema from drifting apart.

Migration notes
---------------
* **Kernel samples once per run.**  ``sample`` events with ``src ==
  "kernel"`` (``processed_events``, ``pending_events``,
  ``scheduled_events``, ``heap_compactions``, ``events_per_simsec``) used to
  come at every sampler tick.  Since MapReduce attempts, like DAG ones, can
  run privately with one kernel event per attempt, those counters track how
  the engine is built rather than the simulated system, so the controllers
  now publish one such row per run, at its end, right before ``run_end``;
  its ``events_per_simsec`` covers the whole run.  Every other event is
  unchanged, line for line.  A reader that plotted the kernel rows over time
  should read the one row instead; ``repro inspect`` no longer draws the
  kernel event-rate plot.  The event kinds and fields are unchanged, so
  older streams still validate.
* **Sample ticks are not kernel events.**  The periodic sampler used to
  schedule each tick on the kernel's heap (or account it as a virtual
  event), so the end-of-run ``kernel`` row and the kernel ``run`` span's
  ``events`` counted ticks.  Ticks now come from the kernel's clock watch
  and count in neither: ``processed_events``, ``scheduled_events`` and
  ``events_per_simsec`` fall by the number of ticks.  Every other event,
  samples included, is unchanged line for line.
* **``stage_scheduled`` is emitted only while tracing.**  A DAG attempt
  used to emit it at each stage activation under any enabled hub, which
  kept sampled DAG attempts on the per-task path.  A hub that samples
  without tracing now runs them privately, like MapReduce ones: its stream
  loses the ``stage_scheduled`` lines, and its end-of-run ``kernel`` row
  counts one event per attempt instead of one per task.  Every other line
  is unchanged.  Traced streams keep the kind as before.
"""

from __future__ import annotations

import json
from typing import Any, Dict, Iterable, List, Mapping, Tuple

#: Accepted JSON types per declared field type.
_NUMBER = (int, float)
_STRING = (str,)

#: Required kind-specific fields: ``{kind: {field: accepted_types}}``.
KIND_FIELDS: Dict[str, Dict[str, Tuple[type, ...]]] = {
    "run_start": {"run": _STRING, "policy": _STRING},
    "run_end": {"completed": _NUMBER, "duration": _NUMBER},
    "job_admitted": {"job_id": _NUMBER, "priority": _NUMBER},
    "job_routed": {"job_id": _NUMBER, "priority": _NUMBER, "cluster": _NUMBER},
    "drop_decision": {
        "job_id": _NUMBER,
        "priority": _NUMBER,
        "map_drop_ratio": _NUMBER,
        "reduce_drop_ratio": _NUMBER,
        "kept_map_tasks": _NUMBER,
        "dropped_map_tasks": _NUMBER,
    },
    "job_completed": {
        "job_id": _NUMBER,
        "priority": _NUMBER,
        "response_time": _NUMBER,
        "execution_time": _NUMBER,
        "drop_ratio": _NUMBER,
    },
    "job_evicted": {"job_id": _NUMBER, "priority": _NUMBER, "wasted": _NUMBER},
    "stage_scheduled": {"job_id": _NUMBER, "stage": _NUMBER, "pending_tasks": _NUMBER},
    "sprint_start": {"job_id": _NUMBER},
    "sprint_end": {"job_id": _NUMBER, "sprinted": _NUMBER},
    "sprint_denied": {"job_id": _NUMBER},
    "dvfs_transition": {"speed": _NUMBER, "mode": _STRING},
    "budget_exhausted": {"active_sprinters": _NUMBER, "exhaustions": _NUMBER},
    "heap_compaction": {"before": _NUMBER, "after": _NUMBER, "compactions": _NUMBER},
    # Fault injection & recovery (``repair_at`` is -1 for permanent
    # failures; ``fault.quarantine`` records a dispatcher redirect away
    # from an impaired/probationary cluster).
    "fault.crash": {"worker": _NUMBER, "repair_at": _NUMBER},
    "fault.repair": {"worker": _NUMBER},
    "fault.straggler": {"job_id": _NUMBER, "slot": _NUMBER, "slowdown": _NUMBER},
    "fault.speculate": {"job_id": _NUMBER, "slot": _NUMBER, "copy_slot": _NUMBER},
    "fault.task_fail": {"job_id": _NUMBER, "slot": _NUMBER, "attempt": _NUMBER},
    # ``attempt`` is the failed attempt for a MapReduce job and the next
    # attempt for a DAG job: an old difference, kept because a golden run
    # pins it (see ``Execution._retry_attempt_field``).
    "fault.retry": {
        "job_id": _NUMBER,
        "slot": _NUMBER,
        "attempt": _NUMBER,
        "delay": _NUMBER,
    },
    "fault.job_restart": {"job_id": _NUMBER, "reason": _STRING},
    "fault.quarantine": {"job_id": _NUMBER, "cluster": _NUMBER, "redirected": _NUMBER},
    "fault.checkpoint": {"path": _STRING, "completed": _NUMBER},
    "sample": {},
    # Causal span: ``t`` is the span end, ``start`` the begin; ``parent_id``
    # 0 marks a root.  Extra fields carry per-kind attribution (outcome,
    # sprinted seconds, stage index, predicted critical path, ...).
    "span": {
        "span_id": _NUMBER,
        "parent_id": _NUMBER,
        "name": _STRING,
        "cat": _STRING,
        "start": _NUMBER,
        "job_id": _NUMBER,
    },
}

#: All event kinds a producer may emit.
EVENT_KINDS: Tuple[str, ...] = tuple(sorted(KIND_FIELDS))


def validate_event(event: Mapping[str, Any]) -> None:
    """Validate one decoded event against the schema; raises ``ValueError``."""
    if not isinstance(event, Mapping):
        raise ValueError(f"telemetry events must be JSON objects, got {type(event).__name__}")
    for field, types in (("t", _NUMBER), ("kind", _STRING), ("src", _STRING)):
        if field not in event:
            raise ValueError(f"missing base field {field!r}")
        if not isinstance(event[field], types) or isinstance(event[field], bool):
            raise ValueError(
                f"base field {field!r} has wrong type {type(event[field]).__name__}"
            )
    kind = event["kind"]
    required = KIND_FIELDS.get(kind)
    if required is None:
        raise ValueError(f"unknown event kind {kind!r}; known kinds: {', '.join(EVENT_KINDS)}")
    for field, types in required.items():
        if field not in event:
            raise ValueError(f"{kind!r} event is missing required field {field!r}")
        if not isinstance(event[field], types) or isinstance(event[field], bool):
            raise ValueError(
                f"{kind!r} field {field!r} has wrong type {type(event[field]).__name__}"
            )


def parse_line(line: str, line_number: int = 0) -> Dict[str, Any]:
    """Decode and validate one JSONL line; errors carry the line number."""
    try:
        event = json.loads(line)
    except json.JSONDecodeError as error:
        raise ValueError(f"line {line_number}: invalid JSON ({error})") from error
    try:
        validate_event(event)
    except ValueError as error:
        raise ValueError(f"line {line_number}: {error}") from error
    return event


def iter_events(lines: Iterable[str]) -> Iterable[Dict[str, Any]]:
    """Yield validated events from an iterable of JSONL lines."""
    for number, line in enumerate(lines, start=1):
        stripped = line.strip()
        if not stripped:
            continue
        yield parse_line(stripped, number)


def read_events(path: str) -> List[Dict[str, Any]]:
    """Read and validate a whole telemetry JSONL file."""
    with open(path, "r", encoding="utf-8") as handle:
        return list(iter_events(handle))


def validate_file(path: str) -> int:
    """Validate ``path`` line by line; returns the number of events."""
    return len(read_events(path))


def read_events_lenient(path: str) -> Tuple[List[Dict[str, Any]], Dict[str, int]]:
    """Read a JSONL file, skipping events of *unknown kind* with a count.

    Returns ``(events, skipped)`` where ``skipped`` maps each unrecognised
    kind to the number of lines it occurred on.  Unknown kinds are expected
    when an older reader meets a newer producer (forward compatibility);
    anything else — invalid JSON, missing base fields, wrong field types on a
    known kind — still raises, because that indicates a broken producer, not
    a vocabulary gap.
    """
    events: List[Dict[str, Any]] = []
    skipped: Dict[str, int] = {}
    with open(path, "r", encoding="utf-8") as handle:
        for number, line in enumerate(handle, start=1):
            stripped = line.strip()
            if not stripped:
                continue
            try:
                event = json.loads(stripped)
            except json.JSONDecodeError as error:
                raise ValueError(f"line {number}: invalid JSON ({error})") from error
            kind = event.get("kind") if isinstance(event, Mapping) else None
            if isinstance(kind, str) and kind not in KIND_FIELDS:
                skipped[kind] = skipped.get(kind, 0) + 1
                continue
            try:
                validate_event(event)
            except ValueError as error:
                raise ValueError(f"line {number}: {error}") from error
            events.append(event)
    return events, skipped
