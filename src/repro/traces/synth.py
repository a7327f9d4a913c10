"""Deterministic trace synthesis from the existing workload generators.

``repro synth-trace`` emits valid sample traces without external downloads:
the per-class Poisson arrival chains and job factories of
:mod:`repro.workloads` are driven *lazily* — one arrival draw and one job
sample per emitted record, merged across classes by a small heap — so a
million-job trace streams straight to disk in constant memory.

Because every random stream is named per priority class
(``arrivals/priority{p}``, ``size/priority{p}``, ``tasks/priority{p}``, …),
interleaving classes by arrival time consumes each class's streams in
exactly the per-class order the batch generators use: synthesis is
deterministic in ``(scenario, num_jobs, seed)`` alone.
"""

from __future__ import annotations

import heapq
from dataclasses import replace
from typing import Dict, Iterator

from repro.engine.job import JobFactory
from repro.simulation.random_streams import RandomStreams
from repro.traces.formats import (
    CLUSTER_CSV,
    CLUSTER_JSONL,
    DAG_JSONL,
    DEFAULT_WAVE_WIDTH,
    TRACE_FORMATS,
    TraceMeta,
    write_trace,
)
from repro.traces.schema import (
    MAX_TASKS_PER_STAGE,
    TraceFormatError,
    TraceJob,
    TraceStage,
)
from repro.workloads.dag import DagJobFactory
from repro.workloads.jobs import allocate_class_counts


def trace_job_from_job(job) -> TraceJob:
    """Convert an engine :class:`~repro.engine.job.Job` to a trace record."""
    stages = tuple(
        TraceStage(
            index=stage.index,
            map_durations=tuple(stage.map_task_times),
            reduce_durations=tuple(stage.reduce_task_times),
            shuffle_time=stage.shuffle_time,
            droppable=stage.droppable,
        )
        for stage in job.stages
    )
    return TraceJob(
        job_id=job.job_id,
        arrival_time=job.arrival_time,
        priority=job.priority,
        size_mb=job.size_mb,
        stages=stages,
        kind="linear",
    )


def trace_job_from_dag_job(job) -> TraceJob:
    """Convert a :class:`~repro.dag.graph.DagJob` to a trace record."""
    stages = tuple(
        TraceStage(
            index=stage.index,
            map_durations=tuple(stage.map_task_times),
            reduce_durations=tuple(stage.reduce_task_times),
            shuffle_time=stage.shuffle_time,
            droppable=stage.droppable,
            parents=stage.parents,
        )
        for stage in sorted(job.dag.stages, key=lambda s: s.index)
    )
    return TraceJob(
        job_id=job.job_id,
        arrival_time=job.arrival_time,
        priority=job.priority,
        size_mb=job.size_mb,
        stages=stages,
        kind="dag",
    )


def uniformize_trace_job(job: TraceJob) -> TraceJob:
    """Collapse each stage to a uniform task profile (``cluster-csv`` shape).

    The cluster-table CSV format stores one duration per task kind, the way
    Google/Alibaba job tables publish per-job task counts and mean runtimes;
    this replaces every stage's durations with their arithmetic mean.
    """
    stages = tuple(
        TraceStage(
            index=stage.index,
            map_durations=(sum(stage.map_durations) / len(stage.map_durations),)
            * len(stage.map_durations),
            reduce_durations=(
                (sum(stage.reduce_durations) / len(stage.reduce_durations),)
                * len(stage.reduce_durations)
                if stage.reduce_durations
                else ()
            ),
            shuffle_time=stage.shuffle_time,
            droppable=stage.droppable,
            parents=stage.parents,
        )
        for stage in job.stages
    )
    return replace(job, stages=stages)


def _merged_arrivals(scenario, num_jobs: int, streams: RandomStreams, namespace: str = ""):
    """Lazily merge per-class Poisson arrival chains by arrival time.

    Yields ``(arrival_time, priority)`` in non-decreasing time order, drawing
    one exponential gap from ``{namespace}arrivals/priority{p}`` per emitted
    arrival — the same per-class draw sequence as the batch generators, with
    O(num_classes) state.
    """
    rates = scenario.arrival_rates
    counts = allocate_class_counts(rates, num_jobs)
    rngs = {
        priority: streams.stream(f"{namespace}arrivals/priority{priority}")
        for priority in counts
    }
    heap = []
    for priority, count in counts.items():
        if count <= 0:
            continue
        rate = rates[priority]
        first = rngs[priority].exponential(1.0 / rate)
        heap.append((first, priority, count - 1))
    heapq.heapify(heap)
    while heap:
        arrival, priority, remaining = heapq.heappop(heap)
        yield arrival, priority
        if remaining > 0:
            gap = rngs[priority].exponential(1.0 / rates[priority])
            heapq.heappush(heap, (arrival + gap, priority, remaining - 1))


def iter_synthetic_trace(
    scenario, num_jobs: int, seed: int = 0, uniform_tasks: bool = False
) -> Iterator[TraceJob]:
    """Stream ``num_jobs`` linear trace records for a (fleet) scenario.

    ``scenario`` is anything exposing ``profiles`` and ``arrival_rates``
    (:class:`~repro.workloads.scenarios.Scenario` or
    :class:`~repro.workloads.scenarios.FleetScenario`).  Records arrive in
    non-decreasing time order with job ids in arrival order.
    """
    streams = RandomStreams(seed)
    factory = JobFactory(streams)
    profiles = scenario.profiles
    for arrival, priority in _merged_arrivals(scenario, num_jobs, streams):
        job = factory.create_job(profiles[priority], arrival_time=arrival)
        record = trace_job_from_job(job)
        yield uniformize_trace_job(record) if uniform_tasks else record


def iter_synthetic_dag_trace(scenario, num_jobs: int, seed: int = 0) -> Iterator[TraceJob]:
    """Stream ``num_jobs`` DAG trace records for a
    :class:`~repro.workloads.scenarios.DagScenario`."""
    streams = RandomStreams(seed)
    factory = DagJobFactory(streams)
    profiles = scenario.profiles
    topologies = scenario.topologies
    topology_params = getattr(scenario, "topology_params", {}) or {}
    for arrival, priority in _merged_arrivals(
        scenario, num_jobs, streams, namespace="dag/"
    ):
        params = dict(topology_params.get(priority, {}))
        job = factory.create_job(
            profiles[priority], topologies[priority], arrival_time=arrival, **params
        )
        yield trace_job_from_dag_job(job)


def compact_profiles(scenario, tasks_per_job: int):
    """Rebuild a scenario with smaller jobs (fewer tasks) at the same load.

    For million-job synthesis: shrinking ``partitions`` cuts the events per
    job, and re-instantiating the scenario recalibrates the arrival rates so
    the target utilisation is preserved.
    """
    if tasks_per_job < 1:
        raise ValueError("tasks_per_job must be at least 1")
    if tasks_per_job > MAX_TASKS_PER_STAGE:
        # A replay would refuse the trace, so refuse to write it.
        raise ValueError(
            f"tasks_per_job must be at most {MAX_TASKS_PER_STAGE} (the trace limit per stage)"
        )
    profiles = {
        priority: replace(
            profile,
            partitions=tasks_per_job,
            reduce_tasks=max(1, min(profile.reduce_tasks, tasks_per_job // 4)),
        )
        for priority, profile in scenario.profiles.items()
    }
    return type(scenario)(
        **{
            **{
                field: getattr(scenario, field)
                for field in ("name", "description", "class_ratio", "target_utilisation", "num_jobs", "cluster")
            },
            **(
                {
                    "topologies": scenario.topologies,
                    "topology_params": scenario.topology_params,
                }
                if hasattr(scenario, "topologies")
                else {}
            ),
            "profiles": profiles,
        }
    )


def scenario_meta(
    fmt: str,
    scenario,
    num_jobs: int,
    seed: int,
    wave_width: int = DEFAULT_WAVE_WIDTH,
) -> TraceMeta:
    """Trace metadata for a synthesized trace (class shares + replay hints)."""
    counts = allocate_class_counts(scenario.arrival_rates, num_jobs)
    classes: Dict[int, Dict[str, float]] = {}
    for priority, count in counts.items():
        profile = scenario.profiles[priority]
        classes[priority] = {
            "share": count / num_jobs,
            "mean_size_mb": profile.mean_size_mb,
            "setup_time_full": profile.setup_time_full,
            "setup_time_min": profile.setup_time_min,
            "max_accuracy_loss": profile.max_accuracy_loss,
        }
    return TraceMeta(
        format=fmt,
        jobs=num_jobs,
        classes=classes,
        wave_width=wave_width,
        generator=f"repro synth-trace scenario={scenario.name} seed={seed}",
    )


def synthesize_trace(
    path: str,
    scenario,
    num_jobs: int,
    seed: int = 0,
    fmt: str = CLUSTER_JSONL,
    wave_width: int = DEFAULT_WAVE_WIDTH,
    histogram=None,
) -> TraceMeta:
    """Synthesize and write one trace file; returns its metadata.

    ``fmt`` selects the record source: the cluster formats stream linear jobs
    from the scenario's job factory (``cluster-csv`` with uniform per-stage
    task profiles), ``dag-jsonl`` requires a DAG scenario.  Pass a
    :class:`~repro.traces.schema.TraceHistogram` to accumulate bucket counts
    while writing.
    """
    if fmt not in TRACE_FORMATS:
        raise TraceFormatError(
            f"unknown trace format {fmt!r}; expected one of {', '.join(TRACE_FORMATS)}"
        )
    if num_jobs < 1:
        raise ValueError("num_jobs must be at least 1")
    if fmt == DAG_JSONL:
        if not hasattr(scenario, "topologies"):
            raise TraceFormatError(
                f"{fmt} needs a DAG scenario (use a cluster format for linear scenarios)"
            )
        records: Iterator[TraceJob] = iter_synthetic_dag_trace(scenario, num_jobs, seed)
    else:
        if hasattr(scenario, "topologies"):
            raise TraceFormatError(
                f"{fmt} stores linear jobs; use {DAG_JSONL} for DAG scenarios"
            )
        records = iter_synthetic_trace(
            scenario, num_jobs, seed, uniform_tasks=(fmt == CLUSTER_CSV)
        )
    meta = scenario_meta(fmt, scenario, num_jobs, seed, wave_width)
    if histogram is not None:
        def observed(source: Iterator[TraceJob]) -> Iterator[TraceJob]:
            for record in source:
                histogram.add(record)
                yield record

        records = observed(records)
    write_trace(path, records, meta)
    return meta
