"""On-disk trace formats: parsing, writing, and parallel ingestion.

Three formats are supported, all line-oriented so they stream:

``cluster-csv``
    A Google/Alibaba-style cluster job table: one CSV row per job with a
    uniform task profile (``job_id, arrival_time, priority, size_mb,
    num_tasks, task_time, num_reduce_tasks, reduce_time, shuffle_time``).
    An optional first line ``# repro-trace {json}`` carries trace metadata;
    files without it (external adapters) are accepted with a minimal header.

``cluster-jsonl``
    One JSON object per job with full per-stage task durations::

        {"id": 0, "t": 1.5, "p": 2, "mb": 473.0,
         "stages": [{"m": [2.1, ...], "r": [4.0, ...], "s": 3.0}]}

``dag-jsonl``
    A TPC-H-style stage-DAG trace: per job an ``n×n`` 0/1 adjacency matrix
    (``adj[i][j] = 1`` iff stage *i* depends on stage *j*) plus per-stage
    first-wave/rest-wave task durations (``fw`` holds the first
    ``wave_width`` durations, ``rw`` the rest — the split used by
    TPC-H DAG loaders; short external stage records are cycled to fill
    ``n`` tasks)::

        {"id": 0, "t": 1.5, "p": 2, "mb": 400.0,
         "adj": [[0, 0], [1, 0]],
         "stages": [{"n": 20, "fw": [...], "rw": [...], "r": [...],
                     "s": 2.0, "d": true}]}

Both JSONL formats require a first-line header
``{"repro_trace": {"format": ..., "version": 1, "jobs": N, ...}}``.

:func:`iter_trace` streams :class:`~repro.traces.schema.TraceJob` records in
file order; with ``jobs > 1`` the *parsing* fans out over a process pool in
fixed-size line chunks whose results are consumed strictly in submission
order, so parallel ingestion is byte-identical to serial.
"""

from __future__ import annotations

import json
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Dict, Iterable, Iterator, List, Optional, TextIO, Tuple

from repro.traces.schema import (
    TraceFormatError,
    TraceJob,
    TraceStage,
    check_task_count,
)

CLUSTER_CSV = "cluster-csv"
CLUSTER_JSONL = "cluster-jsonl"
DAG_JSONL = "dag-jsonl"

#: All supported trace formats (``repro list`` prints these).
TRACE_FORMATS = (CLUSTER_CSV, CLUSTER_JSONL, DAG_JSONL)

#: Formats replayable into the fleet (linear jobs) vs the DAG layer.
CLUSTER_FORMATS = (CLUSTER_CSV, CLUSTER_JSONL)

#: Default first-wave width for ``dag-jsonl`` (tasks per ``fw`` list).
DEFAULT_WAVE_WIDTH = 20

CSV_COLUMNS = (
    "job_id",
    "arrival_time",
    "priority",
    "size_mb",
    "num_tasks",
    "task_time",
    "num_reduce_tasks",
    "reduce_time",
    "shuffle_time",
)
CSV_META_PREFIX = "# repro-trace "
JSONL_META_KEY = "repro_trace"

#: Lines per chunk handed to one parser worker under ``jobs > 1``.
CHUNK_LINES = 2048


@dataclass
class TraceMeta:
    """Trace-file metadata (the header line).

    ``classes`` maps each priority to descriptive floats — at minimum its
    traffic ``share`` (used to seat the priority-partitioned dispatcher
    without scanning the file), plus optional replay-profile hints
    (``setup_time_full``, ``setup_time_min``, ``mean_size_mb``,
    ``max_accuracy_loss``, ``shuffle_time``).
    """

    format: str
    version: int = 1
    jobs: Optional[int] = None
    classes: Dict[int, Dict[str, float]] = field(default_factory=dict)
    wave_width: int = DEFAULT_WAVE_WIDTH
    generator: str = ""

    def __post_init__(self) -> None:
        if self.format not in TRACE_FORMATS:
            raise TraceFormatError(
                f"unknown trace format {self.format!r}; expected one of {', '.join(TRACE_FORMATS)}"
            )
        if self.wave_width < 1:
            raise TraceFormatError("wave_width must be at least 1")

    def class_shares(self) -> Dict[int, float]:
        """Per-priority traffic shares, if the header declares them."""
        return {
            priority: float(info["share"])
            for priority, info in self.classes.items()
            if "share" in info
        }

    def to_json(self) -> Dict:
        payload: Dict = {"format": self.format, "version": self.version}
        if self.jobs is not None:
            payload["jobs"] = self.jobs
        if self.format == DAG_JSONL:
            payload["wave"] = self.wave_width
        if self.classes:
            payload["classes"] = {
                str(priority): dict(info) for priority, info in sorted(self.classes.items())
            }
        if self.generator:
            payload["generator"] = self.generator
        return payload

    @classmethod
    def from_json(cls, payload: Dict) -> "TraceMeta":
        if not isinstance(payload, dict) or "format" not in payload:
            raise TraceFormatError("trace header must be an object with a 'format' key")
        classes: Dict[int, Dict[str, float]] = {}
        for key, info in (payload.get("classes") or {}).items():
            classes[int(key)] = {str(k): float(v) for k, v in info.items()}
        jobs = payload.get("jobs")
        return cls(
            format=str(payload["format"]),
            version=int(payload.get("version", 1)),
            jobs=None if jobs is None else int(jobs),
            classes=classes,
            wave_width=int(payload.get("wave", DEFAULT_WAVE_WIDTH)),
            generator=str(payload.get("generator", "")),
        )


# ---------------------------------------------------------------------------
# Per-line parsing (module-level so process-pool workers can pickle it)
# ---------------------------------------------------------------------------
#: What a malformed header or record raises while it is decoded: a missing
#: key, a wrong type, a bad number, an integer field holding an infinite
#: float (``1e400``), or JSON nested deeper than the recursion limit.
_MALFORMED = (
    AttributeError, KeyError, TypeError, ValueError, OverflowError, RecursionError,
)


def parse_trace_line(
    fmt: str, wave_width: int, lineno: int, line: str
) -> Optional[TraceJob]:
    """Parse one body line into a :class:`TraceJob` (``None`` for blanks)."""
    text = line.strip()
    if not text:
        return None
    try:
        if fmt == CLUSTER_CSV:
            return _parse_csv_row(text)
        if fmt == CLUSTER_JSONL:
            return _parse_cluster_object(json.loads(text))
        if fmt == DAG_JSONL:
            return _parse_dag_object(json.loads(text), wave_width)
    except TraceFormatError as err:
        raise TraceFormatError(f"line {lineno}: {err}") from None
    except _MALFORMED as err:
        raise TraceFormatError(f"line {lineno}: malformed {fmt} record: {err}") from None
    raise TraceFormatError(f"unknown trace format {fmt!r}")


def _parse_csv_row(text: str) -> TraceJob:
    fields = text.split(",")
    if len(fields) != len(CSV_COLUMNS):
        raise TraceFormatError(
            f"expected {len(CSV_COLUMNS)} comma-separated fields, got {len(fields)}"
        )
    job_id = int(fields[0])
    arrival = float(fields[1])
    priority = int(fields[2])
    size_mb = float(fields[3])
    num_tasks = int(fields[4])
    task_time = float(fields[5])
    num_reduce = int(fields[6])
    reduce_time = float(fields[7])
    shuffle_time = float(fields[8])
    if num_tasks < 1:
        raise TraceFormatError(f"job {job_id}: num_tasks must be at least 1")
    if num_reduce < 0:
        raise TraceFormatError(f"job {job_id}: num_reduce_tasks must be non-negative")
    check_task_count(f"job {job_id}: num_tasks", num_tasks)
    check_task_count(f"job {job_id}: num_reduce_tasks", num_reduce)
    stage = TraceStage(
        index=0,
        map_durations=(task_time,) * num_tasks,
        reduce_durations=(reduce_time,) * num_reduce,
        shuffle_time=shuffle_time,
    )
    return TraceJob(
        job_id=job_id,
        arrival_time=arrival,
        priority=priority,
        size_mb=size_mb,
        stages=(stage,),
        kind="linear",
    )


def _parse_cluster_object(obj: Dict) -> TraceJob:
    stages = tuple(
        TraceStage(
            index=index,
            map_durations=tuple(float(t) for t in raw["m"]),
            reduce_durations=tuple(float(t) for t in raw.get("r", ())),
            shuffle_time=float(raw.get("s", 0.0)),
            droppable=bool(raw.get("d", True)),
        )
        for index, raw in enumerate(obj["stages"])
    )
    return TraceJob(
        job_id=int(obj["id"]),
        arrival_time=float(obj["t"]),
        priority=int(obj["p"]),
        size_mb=float(obj["mb"]),
        stages=stages,
        kind="linear",
    )


def _parse_dag_object(obj: Dict, wave_width: int) -> TraceJob:
    raw_stages = obj["stages"]
    adjacency = obj["adj"]
    n = len(raw_stages)
    if len(adjacency) != n or any(len(row) != n for row in adjacency):
        raise TraceFormatError(
            f"job {obj.get('id')}: adjacency matrix must be {n}x{n} to match the stages"
        )
    stages: List[TraceStage] = []
    for index, raw in enumerate(raw_stages):
        num_tasks = int(raw["n"])
        if num_tasks < 1:
            raise TraceFormatError(f"stage {index}: task count must be at least 1")
        check_task_count(f"stage {index}: task count", num_tasks)
        durations = [float(t) for t in raw.get("fw", ())]
        durations += [float(t) for t in raw.get("rw", ())]
        if not durations:
            raise TraceFormatError(f"stage {index}: no task durations given")
        if len(durations) > num_tasks:
            raise TraceFormatError(
                f"stage {index}: {len(durations)} durations exceed the task count {num_tasks}"
            )
        if len(durations) < num_tasks:
            # Short external stage records: cycle the recorded durations.
            durations = [durations[i % len(durations)] for i in range(num_tasks)]
        row = adjacency[index]
        if any(cell not in (0, 1) for cell in row):
            raise TraceFormatError(f"stage {index}: adjacency entries must be 0 or 1")
        parents = tuple(j for j, cell in enumerate(row) if cell)
        stages.append(
            TraceStage(
                index=index,
                map_durations=tuple(durations),
                reduce_durations=tuple(float(t) for t in raw.get("r", ())),
                shuffle_time=float(raw.get("s", 0.0)),
                droppable=bool(raw.get("d", True)),
                parents=parents,
            )
        )
    return TraceJob(
        job_id=int(obj["id"]),
        arrival_time=float(obj["t"]),
        priority=int(obj["p"]),
        size_mb=float(obj["mb"]),
        stages=tuple(stages),
        kind="dag",
    )


def _parse_chunk(payload: Tuple[str, int, int, List[str]]) -> List[Tuple[int, TraceJob]]:
    """Worker entry point: parse one chunk of body lines."""
    fmt, wave_width, start_lineno, lines = payload
    records: List[Tuple[int, TraceJob]] = []
    for offset, line in enumerate(lines):
        job = parse_trace_line(fmt, wave_width, start_lineno + offset, line)
        if job is not None:
            records.append((start_lineno + offset, job))
    return records


# ---------------------------------------------------------------------------
# Writing
# ---------------------------------------------------------------------------
def format_trace_line(fmt: str, wave_width: int, job: TraceJob) -> str:
    """Serialise one :class:`TraceJob` as a body line (lossless round-trip)."""
    if fmt == CLUSTER_CSV:
        return _format_csv_row(job)
    if fmt == CLUSTER_JSONL:
        if job.kind != "linear":
            raise TraceFormatError(f"job {job.job_id}: {fmt} stores linear jobs only")
        return json.dumps(_cluster_object(job), separators=(",", ":"))
    if fmt == DAG_JSONL:
        if job.kind != "dag":
            raise TraceFormatError(f"job {job.job_id}: {fmt} stores DAG jobs only")
        return json.dumps(_dag_object(job, wave_width), separators=(",", ":"))
    raise TraceFormatError(f"unknown trace format {fmt!r}")


def _format_csv_row(job: TraceJob) -> str:
    if job.kind != "linear" or len(job.stages) != 1:
        raise TraceFormatError(
            f"job {job.job_id}: {CLUSTER_CSV} stores single-stage linear jobs only "
            f"(use {CLUSTER_JSONL} for multi-stage jobs)"
        )
    stage = job.stages[0]
    maps = set(stage.map_durations)
    reduces = set(stage.reduce_durations)
    if len(maps) > 1 or len(reduces) > 1:
        raise TraceFormatError(
            f"job {job.job_id}: {CLUSTER_CSV} stores uniform task profiles only "
            f"(use {CLUSTER_JSONL} for per-task durations)"
        )
    task_time = stage.map_durations[0]
    reduce_time = next(iter(reduces), 0.0)
    values = (
        str(job.job_id),
        repr(float(job.arrival_time)),
        str(job.priority),
        repr(float(job.size_mb)),
        str(len(stage.map_durations)),
        repr(float(task_time)),
        str(len(stage.reduce_durations)),
        repr(float(reduce_time)),
        repr(float(stage.shuffle_time)),
    )
    return ",".join(values)


def _cluster_object(job: TraceJob) -> Dict:
    stages = []
    for stage in job.stages:
        raw: Dict = {"m": list(stage.map_durations)}
        if stage.reduce_durations:
            raw["r"] = list(stage.reduce_durations)
        if stage.shuffle_time:
            raw["s"] = stage.shuffle_time
        if not stage.droppable:
            raw["d"] = False
        stages.append(raw)
    return {
        "id": job.job_id,
        "t": job.arrival_time,
        "p": job.priority,
        "mb": job.size_mb,
        "stages": stages,
    }


def _dag_object(job: TraceJob, wave_width: int) -> Dict:
    n = len(job.stages)
    adjacency = []
    stages = []
    for stage in job.stages:
        row = [0] * n
        for parent in stage.parents:
            row[parent] = 1
        adjacency.append(row)
        raw: Dict = {
            "n": len(stage.map_durations),
            "fw": list(stage.map_durations[:wave_width]),
        }
        rest = list(stage.map_durations[wave_width:])
        if rest:
            raw["rw"] = rest
        if stage.reduce_durations:
            raw["r"] = list(stage.reduce_durations)
        if stage.shuffle_time:
            raw["s"] = stage.shuffle_time
        if not stage.droppable:
            raw["d"] = False
        stages.append(raw)
    return {
        "id": job.job_id,
        "t": job.arrival_time,
        "p": job.priority,
        "mb": job.size_mb,
        "adj": adjacency,
        "stages": stages,
    }


def write_trace(
    path: str,
    records: Iterable[TraceJob],
    meta: TraceMeta,
) -> int:
    """Stream ``records`` to ``path`` in ``meta.format``; returns the count.

    The header line is written first, then one line per record, so the whole
    pipeline (synthesize → write) runs in constant memory.  If ``meta.jobs``
    is set it must match the number of records actually written.
    """
    fmt = meta.format
    count = 0
    with open(path, "w", encoding="utf-8") as handle:
        if fmt == CLUSTER_CSV:
            handle.write(CSV_META_PREFIX + json.dumps(meta.to_json(), separators=(",", ":")) + "\n")
            handle.write(",".join(CSV_COLUMNS) + "\n")
        else:
            handle.write(
                json.dumps({JSONL_META_KEY: meta.to_json()}, separators=(",", ":")) + "\n"
            )
        for job in records:
            handle.write(format_trace_line(fmt, meta.wave_width, job) + "\n")
            count += 1
    if meta.jobs is not None and count != meta.jobs:
        raise TraceFormatError(
            f"{path}: header declares {meta.jobs} jobs but {count} records were written"
        )
    return count


# ---------------------------------------------------------------------------
# Reading
# ---------------------------------------------------------------------------
def _read_header(handle: TextIO, path: str, fmt: Optional[str]) -> Tuple[TraceMeta, int]:
    """Consume the header line(s); returns (meta, number of lines consumed)."""
    first = handle.readline()
    if not first:
        raise TraceFormatError(f"{path}: the trace file is empty")
    text = first.strip()
    consumed = 1

    if text.startswith(CSV_META_PREFIX):
        meta = _meta_from_json(path, _load_header_json(path, text[len(CSV_META_PREFIX):]))
        _check_declared_format(path, meta, fmt, expected=CLUSTER_CSV)
        _expect_csv_columns(path, handle.readline(), lineno=2)
        return meta, consumed + 1

    if text.startswith("{"):
        payload = _load_header_json(path, text)
        if JSONL_META_KEY not in payload:
            raise TraceFormatError(
                f"{path}: first line must be a trace header "
                f'({{"{JSONL_META_KEY}": {{"format": ...}}}}); found a bare JSON object'
            )
        meta = _meta_from_json(path, payload[JSONL_META_KEY])
        if meta.format == CLUSTER_CSV:
            raise TraceFormatError(
                f"{path}: header declares {CLUSTER_CSV} but the file is JSONL"
            )
        _check_declared_format(path, meta, fmt)
        return meta, consumed

    if text.startswith(CSV_COLUMNS[0] + ","):
        # Headerless CSV (external adapter output): minimal metadata.
        _expect_csv_columns(path, first, lineno=1)
        if fmt is not None and fmt != CLUSTER_CSV:
            raise TraceFormatError(f"{path}: expected a {fmt} trace but found {CLUSTER_CSV}")
        return TraceMeta(format=CLUSTER_CSV), consumed

    raise TraceFormatError(
        f"{path}: unrecognised trace file (expected one of {', '.join(TRACE_FORMATS)}; "
        f"see the README 'Trace replay' section for the format specs)"
    )


def _load_header_json(path: str, text: str) -> Dict:
    try:
        payload = json.loads(text)
    except _MALFORMED as err:
        raise TraceFormatError(f"{path}: malformed trace header: {err}") from None
    if not isinstance(payload, dict):
        raise TraceFormatError(f"{path}: trace header must be a JSON object")
    return payload


def _meta_from_json(path: str, payload: Dict) -> TraceMeta:
    try:
        return TraceMeta.from_json(payload)
    except TraceFormatError as err:
        raise TraceFormatError(f"{path}: {err}") from None
    except _MALFORMED as err:
        raise TraceFormatError(f"{path}: malformed trace header: {err}") from None


def _check_declared_format(
    path: str, meta: TraceMeta, fmt: Optional[str], expected: Optional[str] = None
) -> None:
    if expected is not None and meta.format != expected:
        raise TraceFormatError(
            f"{path}: header declares {meta.format} but the file layout is {expected}"
        )
    if fmt is not None and meta.format != fmt:
        raise TraceFormatError(f"{path}: expected a {fmt} trace but found {meta.format}")


def _expect_csv_columns(path: str, line: str, lineno: int) -> None:
    expected = ",".join(CSV_COLUMNS)
    if line.strip() != expected:
        raise TraceFormatError(
            f"{path}: line {lineno}: expected the CSV column header '{expected}'"
        )


def read_trace_meta(path: str, fmt: Optional[str] = None) -> TraceMeta:
    """Read (and validate) just the trace header — the fail-fast entry point."""
    if not os.path.exists(path):
        raise TraceFormatError(f"{path}: no such trace file")
    with open(path, "r", encoding="utf-8") as handle:
        meta, _ = _read_header(handle, path, fmt)
    return meta


def iter_trace(
    path: str,
    fmt: Optional[str] = None,
    jobs: int = 1,
    chunk_lines: int = CHUNK_LINES,
) -> Iterator[TraceJob]:
    """Stream the records of a trace file in order (constant memory).

    ``jobs > 1`` parses fixed-size line chunks on a process pool while the
    main process consumes results strictly in submission order — the yielded
    sequence is byte-identical to a serial parse.  Arrival times must be
    non-decreasing and the record count must match the header's ``jobs``
    declaration; violations raise :class:`TraceFormatError` with the
    offending line number.
    """
    if jobs < 1:
        raise ValueError("jobs must be at least 1")
    if not os.path.exists(path):
        raise TraceFormatError(f"{path}: no such trace file")
    with open(path, "r", encoding="utf-8") as handle:
        meta, consumed = _read_header(handle, path, fmt)
        if jobs == 1:
            producer = _iter_serial(handle, meta, consumed)
        else:
            producer = _iter_parallel(handle, meta, consumed, jobs, chunk_lines)
        count = 0
        last_arrival = float("-inf")
        try:
            for lineno, job in producer:
                if job.arrival_time < last_arrival:
                    raise TraceFormatError(
                        f"{path}: line {lineno}: arrivals out of order "
                        f"(job {job.job_id} at {job.arrival_time} after {last_arrival})"
                    )
                last_arrival = job.arrival_time
                count += 1
                yield job
        except TraceFormatError as err:
            message = str(err)
            raise TraceFormatError(
                message if message.startswith(path) else f"{path}: {message}"
            ) from None
    if meta.jobs is not None and count != meta.jobs:
        raise TraceFormatError(
            f"{path}: header declares {meta.jobs} jobs but the file contains {count}"
        )


def _iter_serial(
    handle: TextIO, meta: TraceMeta, consumed: int
) -> Iterator[Tuple[int, TraceJob]]:
    fmt, wave_width = meta.format, meta.wave_width
    for lineno, line in enumerate(handle, start=consumed + 1):
        job = parse_trace_line(fmt, wave_width, lineno, line)
        if job is not None:
            yield lineno, job


def _iter_parallel(
    handle: TextIO,
    meta: TraceMeta,
    consumed: int,
    jobs: int,
    chunk_lines: int,
) -> Iterator[Tuple[int, TraceJob]]:
    """Chunked parallel parse, results consumed in submission order."""
    from collections import deque

    fmt, wave_width = meta.format, meta.wave_width
    max_in_flight = jobs + 2

    def chunks() -> Iterator[Tuple[str, int, int, List[str]]]:
        start = consumed + 1
        while True:
            lines = []
            for line in handle:
                lines.append(line)
                if len(lines) >= chunk_lines:
                    break
            if not lines:
                return
            yield (fmt, wave_width, start, lines)
            start += len(lines)

    with ProcessPoolExecutor(max_workers=jobs) as pool:
        pending = deque()
        chunk_iter = chunks()
        for payload in chunk_iter:
            pending.append((payload[2], pool.submit(_parse_chunk, payload)))
            if len(pending) >= max_in_flight:
                break
        while pending:
            _, future = pending.popleft()
            yield from future.result()
            for payload in chunk_iter:
                pending.append((payload[2], pool.submit(_parse_chunk, payload)))
                break
