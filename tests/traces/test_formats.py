"""Round-trip, malformed-input, and parallel-ingestion tests for trace files."""

from __future__ import annotations

import json

import pytest

from repro.traces.formats import (
    CLUSTER_CSV,
    CLUSTER_JSONL,
    DAG_JSONL,
    TraceMeta,
    iter_trace,
    read_trace_meta,
    write_trace,
)
from repro.traces.schema import (
    MAX_TASKS_PER_STAGE,
    TraceFormatError,
    TraceJob,
    TraceStage,
)
from repro.traces.synth import compact_profiles
from repro.workloads.traces import google_mix_scenario


def _uniform_job(job_id, arrival, priority=0):
    stage = TraceStage(
        index=0,
        map_durations=(4.0,) * 3,
        reduce_durations=(2.5,) * 2,
        shuffle_time=1.5,
    )
    return TraceJob(
        job_id=job_id,
        arrival_time=arrival,
        priority=priority,
        size_mb=128.0,
        stages=(stage,),
        kind="linear",
    )


def _varied_job(job_id, arrival, priority=1):
    stages = (
        TraceStage(index=0, map_durations=(1.25, 2.5, 0.75), shuffle_time=0.5),
        TraceStage(index=1, map_durations=(3.0,), reduce_durations=(1.0, 2.0)),
    )
    return TraceJob(
        job_id=job_id,
        arrival_time=arrival,
        priority=priority,
        size_mb=473.5,
        stages=stages,
        kind="linear",
    )


def _dag_job(job_id, arrival):
    stages = (
        TraceStage(index=0, map_durations=(2.0, 3.0)),
        TraceStage(index=1, map_durations=(1.0, 1.5, 2.5), parents=(0,)),
        TraceStage(
            index=2,
            map_durations=(4.0,),
            reduce_durations=(0.5,),
            shuffle_time=1.0,
            parents=(0, 1),
        ),
    )
    return TraceJob(
        job_id=job_id,
        arrival_time=arrival,
        priority=2,
        size_mb=640.0,
        stages=stages,
        kind="dag",
    )


def test_cluster_csv_round_trip(tmp_path):
    path = str(tmp_path / "t.csv")
    records = [_uniform_job(i, float(i)) for i in range(5)]
    meta = TraceMeta(format=CLUSTER_CSV, jobs=5)
    assert write_trace(path, records, meta) == 5
    assert read_trace_meta(path).jobs == 5
    assert list(iter_trace(path)) == records


def test_cluster_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "t.jsonl")
    records = [_varied_job(i, 0.5 * i) for i in range(4)]
    meta = TraceMeta(format=CLUSTER_JSONL, jobs=4, classes={1: {"share": 1.0}})
    write_trace(path, records, meta)
    assert read_trace_meta(path).class_shares() == {1: 1.0}
    assert list(iter_trace(path)) == records


def test_dag_jsonl_round_trip(tmp_path):
    path = str(tmp_path / "t.jsonl")
    records = [_dag_job(i, float(i)) for i in range(3)]
    meta = TraceMeta(format=DAG_JSONL, jobs=3, wave_width=2)
    write_trace(path, records, meta)
    parsed = list(iter_trace(path))
    assert parsed == records
    assert parsed[0].stages[2].parents == (0, 1)


def test_parallel_parse_matches_serial(tmp_path):
    path = str(tmp_path / "t.jsonl")
    records = [_varied_job(i, 0.25 * i) for i in range(60)]
    write_trace(path, records, TraceMeta(format=CLUSTER_JSONL, jobs=60))
    serial = list(iter_trace(path, jobs=1))
    parallel = list(iter_trace(path, jobs=2, chunk_lines=7))
    assert parallel == serial


def test_csv_rejects_non_uniform_tasks(tmp_path):
    path = str(tmp_path / "t.csv")
    stage = TraceStage(index=0, map_durations=(1.0, 2.0))
    job = TraceJob(
        job_id=0, arrival_time=0.0, priority=0, size_mb=10.0, stages=(stage,)
    )
    with pytest.raises(TraceFormatError, match="uniform task profiles"):
        write_trace(path, [job], TraceMeta(format=CLUSTER_CSV))
    with pytest.raises(TraceFormatError, match="single-stage linear jobs"):
        write_trace(path, [_varied_job(0, 0.0)], TraceMeta(format=CLUSTER_CSV))


def test_cluster_formats_reject_dag_jobs(tmp_path):
    path = str(tmp_path / "t.jsonl")
    with pytest.raises(TraceFormatError, match="linear jobs only"):
        write_trace(path, [_dag_job(0, 0.0)], TraceMeta(format=CLUSTER_JSONL))


def test_empty_file_is_rejected(tmp_path):
    path = tmp_path / "empty.jsonl"
    path.write_text("")
    with pytest.raises(TraceFormatError, match="empty"):
        read_trace_meta(str(path))


def test_missing_file_is_rejected(tmp_path):
    with pytest.raises(TraceFormatError, match="no such trace file"):
        read_trace_meta(str(tmp_path / "nope.jsonl"))


def test_unrecognised_header_is_rejected(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("hello world\n")
    with pytest.raises(TraceFormatError, match="unrecognised trace file"):
        read_trace_meta(str(path))


def test_bare_json_header_is_rejected(tmp_path):
    path = tmp_path / "bad.jsonl"
    path.write_text('{"id": 0}\n')
    with pytest.raises(TraceFormatError, match="trace header"):
        read_trace_meta(str(path))


def test_format_mismatch_is_rejected(tmp_path):
    path = str(tmp_path / "t.jsonl")
    write_trace(path, [_varied_job(0, 0.0)], TraceMeta(format=CLUSTER_JSONL, jobs=1))
    with pytest.raises(TraceFormatError, match="expected a dag-jsonl trace"):
        read_trace_meta(path, fmt=DAG_JSONL)


def test_headerless_csv_is_accepted(tmp_path):
    path = tmp_path / "external.csv"
    path.write_text(
        "job_id,arrival_time,priority,size_mb,num_tasks,task_time,"
        "num_reduce_tasks,reduce_time,shuffle_time\n"
        "0,0.0,1,100.0,4,2.0,1,3.0,0.5\n"
    )
    meta = read_trace_meta(str(path))
    assert meta.format == CLUSTER_CSV
    assert meta.jobs is None
    (job,) = list(iter_trace(str(path)))
    assert job.priority == 1
    assert job.stages[0].map_durations == (2.0,) * 4


def test_malformed_csv_row_reports_line_number(tmp_path):
    path = str(tmp_path / "t.csv")
    write_trace(path, [_uniform_job(0, 0.0)], TraceMeta(format=CLUSTER_CSV))
    with open(path, "a", encoding="utf-8") as handle:
        handle.write("1,2,3\n")
    with pytest.raises(TraceFormatError, match="line 4"):
        list(iter_trace(path))


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("t", "NaN", "line 3: job 1: arrival time must be finite"),
        ("t", "Infinity", "line 3: job 1: arrival time must be finite"),
        ("mb", "NaN", "line 3: job 1: size_mb must be positive and finite"),
        ("mb", "Infinity", "line 3: job 1: size_mb must be positive and finite"),
    ],
)
def test_non_finite_job_fields_report_the_line(tmp_path, field, value, message):
    path = str(tmp_path / "t.jsonl")
    write_trace(path, [_varied_job(0, 0.0), _varied_job(1, 1.0)],
                TraceMeta(format=CLUSTER_JSONL))
    lines = open(path, encoding="utf-8").read().splitlines()
    record = json.loads(lines[2])
    record[field] = "@"
    lines[2] = json.dumps(record).replace('"@"', value)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError) as excinfo:
        list(iter_trace(path))
    assert str(excinfo.value).endswith(message)


@pytest.mark.parametrize(
    "stage, message",
    [
        ({"m": ["@", 1.0]}, "line 2: stage 0 task durations must be finite"),
        ({"m": [1.0], "r": ["@"]}, "line 2: stage 0 task durations must be finite"),
        ({"m": [1.0], "r": [1.0], "s": "@"}, "line 2: stage 0 shuffle time must be finite"),
    ],
)
@pytest.mark.parametrize("value", ["NaN", "Infinity"])
def test_non_finite_task_times_report_the_line(tmp_path, stage, message, value):
    path = tmp_path / "t.jsonl"
    header = json.dumps({"repro_trace": {"format": CLUSTER_JSONL}})
    body = json.dumps({"id": 0, "t": 0.0, "p": 0, "mb": 100.0, "stages": [stage]})
    path.write_text(header + "\n" + body.replace('"@"', value) + "\n")
    with pytest.raises(TraceFormatError) as excinfo:
        list(iter_trace(str(path)))
    assert str(excinfo.value).endswith(message)


@pytest.mark.parametrize(
    "build",
    [
        lambda: TraceStage(index=0, map_durations=(float("nan"),)),
        lambda: TraceStage(index=0, map_durations=(1.0,), shuffle_time=float("inf")),
        lambda: TraceJob(job_id=0, arrival_time=float("nan"), priority=0, size_mb=1.0,
                         stages=(TraceStage(index=0, map_durations=(1.0,)),)),
    ],
)
def test_records_built_in_code_reject_non_finite_numbers(build):
    with pytest.raises(TraceFormatError, match="must be"):
        build()


def test_out_of_order_arrivals_are_rejected(tmp_path):
    path = str(tmp_path / "t.jsonl")
    records = [_varied_job(0, 5.0), _varied_job(1, 2.0)]
    write_trace(path, records, TraceMeta(format=CLUSTER_JSONL))
    with pytest.raises(TraceFormatError, match="arrivals out of order"):
        list(iter_trace(path))


def test_job_count_mismatch_is_rejected(tmp_path):
    path = str(tmp_path / "t.jsonl")
    write_trace(path, [_varied_job(0, 0.0)], TraceMeta(format=CLUSTER_JSONL))
    lines = open(path, encoding="utf-8").read().splitlines()
    header = json.loads(lines[0])
    header["repro_trace"]["jobs"] = 7
    lines[0] = json.dumps(header)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write("\n".join(lines) + "\n")
    with pytest.raises(TraceFormatError, match="declares 7 jobs"):
        list(iter_trace(path))


def test_dag_adjacency_shape_is_checked(tmp_path):
    path = tmp_path / "t.jsonl"
    header = json.dumps({"repro_trace": {"format": DAG_JSONL, "wave": 2}})
    body = json.dumps(
        {
            "id": 0,
            "t": 0.0,
            "p": 0,
            "mb": 100.0,
            "adj": [[0, 0]],
            "stages": [{"n": 1, "fw": [1.0]}, {"n": 1, "fw": [1.0]}],
        }
    )
    path.write_text(header + "\n" + body + "\n")
    with pytest.raises(TraceFormatError, match="adjacency matrix"):
        list(iter_trace(str(path)))


def test_dag_short_stage_records_cycle(tmp_path):
    path = tmp_path / "t.jsonl"
    header = json.dumps({"repro_trace": {"format": DAG_JSONL, "wave": 2}})
    body = json.dumps(
        {
            "id": 0,
            "t": 0.0,
            "p": 0,
            "mb": 100.0,
            "adj": [[0]],
            "stages": [{"n": 5, "fw": [1.0, 2.0]}],
        }
    )
    path.write_text(header + "\n" + body + "\n")
    (job,) = list(iter_trace(str(path)))
    assert job.stages[0].map_durations == (1.0, 2.0, 1.0, 2.0, 1.0)


# ------------------------------------------------- declared task counts
def _dag_record_file(tmp_path, num_tasks):
    path = tmp_path / "t.jsonl"
    header = json.dumps({"repro_trace": {"format": DAG_JSONL}})
    body = json.dumps({"id": 0, "t": 0.0, "p": 0, "mb": 1.0,
                       "stages": [{"n": num_tasks, "fw": [1.0]}], "adj": [[0]]})
    path.write_text(header + "\n" + body + "\n")
    return str(path), body


def _csv_row_file(tmp_path, num_tasks, num_reduce):
    path = tmp_path / "t.csv"
    path.write_text(
        "job_id,arrival_time,priority,size_mb,num_tasks,task_time,"
        "num_reduce_tasks,reduce_time,shuffle_time\n"
        "0,0.0,1,100.0,4,2.0,1,3.0,0.5\n"
        f"1,1.0,1,100.0,{num_tasks},2.0,{num_reduce},3.0,0.5\n"
    )
    return str(path)


def test_a_short_dag_record_cannot_declare_millions_of_tasks(tmp_path):
    path, body = _dag_record_file(tmp_path, 2_000_000)
    assert len(body) < 100
    with pytest.raises(TraceFormatError) as excinfo:
        list(iter_trace(path))
    assert str(excinfo.value).endswith(
        f"t.jsonl: line 2: stage 0: task count 2000000 exceeds the limit of "
        f"{MAX_TASKS_PER_STAGE} tasks per stage"
    )


@pytest.mark.parametrize(
    "num_tasks, num_reduce, field",
    [(2_000_000, 1, "num_tasks"), (4, MAX_TASKS_PER_STAGE + 1, "num_reduce_tasks")],
)
def test_a_csv_row_cannot_declare_more_tasks_than_the_limit(
    tmp_path, num_tasks, num_reduce, field
):
    path = _csv_row_file(tmp_path, num_tasks, num_reduce)
    with pytest.raises(TraceFormatError, match=f"t.csv: line 3: job 1: {field} "):
        list(iter_trace(path))


def test_task_counts_at_the_limit_parse(tmp_path):
    path, _ = _dag_record_file(tmp_path, MAX_TASKS_PER_STAGE)
    (job,) = list(iter_trace(path))
    assert len(job.stages[0].map_durations) == MAX_TASKS_PER_STAGE
    path = _csv_row_file(tmp_path, MAX_TASKS_PER_STAGE, MAX_TASKS_PER_STAGE)
    _, job = list(iter_trace(path))
    assert len(job.stages[0].map_durations) == MAX_TASKS_PER_STAGE
    assert len(job.stages[0].reduce_durations) == MAX_TASKS_PER_STAGE


def test_synthesis_refuses_jobs_a_replay_would_refuse():
    scenario = google_mix_scenario(num_classes=2)
    compact_profiles(scenario, MAX_TASKS_PER_STAGE)
    with pytest.raises(ValueError, match="at most 100000"):
        compact_profiles(scenario, MAX_TASKS_PER_STAGE + 1)
