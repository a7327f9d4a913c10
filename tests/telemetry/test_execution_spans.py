"""The span shapes both executions emit, checked on the executions directly.

``JobExecution`` traces a MapReduce attempt as wave spans with task spans
under them; ``DagExecution`` traces a DAG attempt as a setup span and stage
spans with task spans under them.  Every group span parents to the attempt
span id the controller passes in (``trace_parent``).  The goldens pin these
streams by hash; the tests here say what the shapes are: unique ids, a task
span before and inside its group, and the outcome of each way an attempt or
a task stops early (eviction, a worker crash, a losing speculative copy, a
transient failure).
"""

from __future__ import annotations

from collections import Counter
from typing import Dict, List

import pytest

from repro.dag.execution import DagExecution
from repro.dag.graph import DagJob, DagStage, StageDAG
from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.execution import JobExecution, build_phases
from repro.engine.job import Job, StageSpec
from repro.engine.profiles import JobClassProfile
from repro.faults.injector import FaultInjector
from repro.faults.spec import parse_fault_spec
from repro.simulation.des import Simulator
from repro.simulation.random_streams import RandomStreams
from repro.telemetry import TelemetryHub, Tracer
from repro.telemetry.spans import EPSILON, SpanRecord
from repro.workloads.scenarios import HIGH

SETUP = 2.0
GROUP_CATS = ("wave", "stage")


def _profile() -> JobClassProfile:
    return JobClassProfile(
        priority=HIGH, name="t", mean_size_mb=100.0, partitions=4,
        reduce_tasks=1, setup_time_full=SETUP, setup_time_min=SETUP,
        shuffle_time=0.0, task_scv=0.0,
    )


def _mapreduce_job() -> Job:
    """Setup, ten maps (three waves on four slots), a shuffle, two reduces."""
    maps = [3.0, 4.0, 5.0, 3.5, 4.5, 6.0, 2.5, 3.0, 5.5, 4.0]
    return Job(
        job_id=7, priority=HIGH, arrival_time=0.0, size_mb=100.0,
        stages=[StageSpec(0, maps, [2.0, 3.0], 1.0)], profile=_profile(),
    )


def _dag_job() -> DagJob:
    """A diamond: 0 -> {1, 2} -> 3, with stage 2 the longer branch."""

    def stage(index, parents, maps):
        return DagStage(
            index=index, map_task_times=list(maps), reduce_task_times=[],
            shuffle_time=0.0, droppable=True, parents=tuple(parents),
        )

    stages = [
        stage(0, (), [2.0, 2.0]),
        stage(1, (0,), [3.0, 3.0, 3.0]),
        stage(2, (0,), [9.0, 9.0, 9.0]),
        stage(3, (1, 2), [1.0]),
    ]
    return DagJob(
        job_id=7, priority=HIGH, arrival_time=0.0, size_mb=100.0,
        dag=StageDAG(stages), profile=_profile(),
    )


class _Run:
    """One traced execution on a fresh kernel and hub."""

    def __init__(self, kind: str, *, workers=2, cores=2, fault_spec=None,
                 **kwargs) -> None:
        self.sim = Simulator()
        self.cluster = Cluster(ClusterConfig(workers=workers, cores_per_worker=cores))
        self.hub = TelemetryHub(tracing=True)
        self.tracer = self.hub.add_sink(Tracer())
        # The controller's attempt span id is allocated before the execution.
        self.attempt_id = self.hub.new_span_id()
        self.injector = None
        if fault_spec is not None:
            self.injector = FaultInjector(
                parse_fault_spec(fault_spec), self.sim, self.cluster,
                RandomStreams(seed=4),
            )
        self.done: List[object] = []
        common = dict(
            on_complete=self.done.append, telemetry=self.hub,
            telemetry_src="t", trace_parent=self.attempt_id, faults=self.injector,
        )
        if kind == "job":
            job = _mapreduce_job()
            self.execution = JobExecution(
                self.sim, self.cluster, job, build_phases(job), **common, **kwargs
            )
        else:
            self.execution = DagExecution(
                self.sim, self.cluster, _dag_job(), **common, **kwargs
            )
        self.execution.start(speed=1.0)

    def at(self, time: float, action) -> None:
        self.sim.schedule_at(time, lambda _sim: action(self.execution), priority=2)

    def run(self) -> List[SpanRecord]:
        self.sim.run()
        return self.tracer.spans


def _groups(spans):
    return [span for span in spans if span.cat in GROUP_CATS]


def _tasks(spans):
    return [span for span in spans if span.cat == "task"]


def _assert_well_formed(spans: List[SpanRecord], attempt_id: int) -> None:
    """Unique ids; groups under the attempt; a task before and inside its
    group; faults are instants under the attempt."""
    ids = [span.span_id for span in spans]
    assert len(ids) == len(set(ids))
    assert attempt_id not in ids
    position: Dict[int, int] = {span.span_id: i for i, span in enumerate(spans)}
    groups = {span.span_id: span for span in _groups(spans)}
    for group in groups.values():
        assert group.parent_id == attempt_id
        assert group.start <= group.end
    for task in _tasks(spans):
        assert task.parent_id in groups, task
        parent = groups[task.parent_id]
        assert position[task.span_id] < position[parent.span_id]
        assert parent.start - EPSILON <= task.start <= task.end
        assert task.end <= parent.end + EPSILON
        assert task.extras["stage"] == parent.extras["stage"]
    for fault in (span for span in spans if span.cat == "fault"):
        assert fault.parent_id == attempt_id
        assert fault.start == fault.end


def _outcomes(spans) -> Dict[str, int]:
    """Task span count per outcome."""
    return dict(Counter(span.extras["outcome"] for span in _tasks(spans)))


KINDS = pytest.mark.parametrize("kind", ["job", "dag"])


@KINDS
def test_a_completed_attempt_nests_every_task_in_its_group(kind):
    run = _Run(kind)
    spans = run.run()
    assert run.done == [run.execution]
    _assert_well_formed(spans, run.attempt_id)
    assert _outcomes(spans) == {"completed": len(_tasks(spans))}
    groups = _groups(spans)
    assert all(span.extras["outcome"] == "completed" for span in groups)
    if kind == "job":
        assert [span.name for span in groups] == ["setup", "map", "shuffle", "reduce"]
        assert [span.extras["tasks"] for span in groups] == [1, 10, 1, 2]
        assert len(_tasks(spans)) == 14
    else:
        assert [(span.name, span.extras["stage"]) for span in groups] == [
            ("setup", -1), ("stage", 0), ("stage", 1), ("stage", 2), ("stage", 3),
        ]
        assert [span.extras["parents"] for span in groups] == ["", "", "0", "0", "1,2"]
        # The DAG setup runs no task span of its own.
        assert len(_tasks(spans)) == 9
        assert {task.extras["stage"] for task in _tasks(spans)} == {0, 1, 2, 3}


def test_evicting_mid_wave_evicts_the_wave_and_its_tasks():
    run = _Run("job")
    evict_at = SETUP + 4.2  # maps of the first wave are in flight
    run.at(evict_at, lambda execution: execution.evict())
    spans = run.run()
    assert not run.done
    _assert_well_formed(spans, run.attempt_id)
    evicted = [span for span in spans if span.extras.get("outcome") == "evicted"]
    # The in-flight tasks first, then their wave, all at the eviction.
    assert [span.cat for span in evicted] == ["task"] * 4 + ["wave"]
    assert evicted == spans[-5:]
    assert all(span.end == evict_at for span in evicted)
    wave = evicted[-1]
    assert (wave.name, wave.extras["tasks"]) == ("map", 10)
    assert all(task.parent_id == wave.span_id for task in evicted[:-1])


def test_evicting_during_the_dag_setup_evicts_only_the_setup_span():
    run = _Run("dag")
    run.at(SETUP / 2, lambda execution: execution.evict())
    spans = run.run()
    assert [(span.cat, span.name, span.extras["outcome"]) for span in spans] == [
        ("stage", "setup", "evicted")
    ]
    setup = spans[0]
    assert (setup.start, setup.end) == (0.0, SETUP / 2)
    assert setup.parent_id == run.attempt_id
    assert setup.extras["stage"] == -1


def test_evicting_with_stages_open_closes_them_in_position_order():
    # critical_path_first keeps the longer stage 2 ahead of stage 1 in its
    # frontier; the evicted stage spans still come in topological position.
    run = _Run("dag", workers=1, cores=4, scheduler="critical_path_first")
    evict_at = SETUP + 2.0 + 1.5
    run.at(evict_at, lambda execution: execution.evict())
    spans = run.run()
    _assert_well_formed(spans, run.attempt_id)
    evicted = [span for span in spans if span.extras.get("outcome") == "evicted"]
    tasks = [span for span in evicted if span.cat == "task"]
    stages = [span for span in evicted if span.cat == "stage"]
    assert evicted == tasks + stages
    assert evicted == spans[-len(evicted):]
    assert len(tasks) == 4
    assert {task.extras["stage"] for task in tasks} == {1, 2}
    assert [stage.extras["stage"] for stage in stages] == [1, 2]
    assert all(span.end == evict_at for span in evicted)


@KINDS
def test_a_worker_crash_crashes_its_tasks_and_marks_one_fault(kind):
    run = _Run(kind)
    crash_at = SETUP + 2.1  # both workers busy with tasks
    run.at(crash_at, lambda execution: execution.on_worker_crash(0))
    run.at(crash_at + 5.0, lambda execution: execution.on_worker_repair(0))
    spans = run.run()
    assert run.done == [run.execution]
    _assert_well_formed(spans, run.attempt_id)
    crashed = [s for s in _tasks(spans) if s.extras["outcome"] == "crashed"]
    assert len(crashed) == 2
    assert {span.extras["slot"] for span in crashed} == set(
        run.cluster.worker_slots(0)
    )
    assert all(span.end == crash_at for span in crashed)
    faults = [span for span in spans if span.cat == "fault"]
    assert [(f.name, f.start, f.extras["slot"]) for f in faults] == [
        ("crash", crash_at, -1)
    ]


def test_a_losing_speculative_copy_is_cancelled():
    run = _Run(
        "job", workers=2, cores=4,
        fault_spec="stragglers:p=0.4,slowdown=5,speculate=1.2",
    )
    spans = run.run()
    assert run.done == [run.execution]
    _assert_well_formed(spans, run.attempt_id)
    speculations = run.injector.count("speculations")
    assert speculations > 0
    assert _outcomes(spans).get("cancelled", 0) == speculations
    marks = [span for span in spans if span.cat == "fault"]
    assert [span.name for span in marks] == ["speculate"] * speculations


@KINDS
def test_a_failed_task_reads_failed_and_marks_a_retry(kind):
    run = _Run(
        kind, fault_spec="taskfail:p=0.3,retries=8,backoff=0.5,jitter=0",
        on_give_up=lambda _execution: pytest.fail("no task may exhaust retries"),
    )
    spans = run.run()
    assert run.done == [run.execution]
    _assert_well_formed(spans, run.attempt_id)
    failures = run.injector.count("task_failures")
    assert failures > 0
    assert _outcomes(spans).get("failed", 0) == failures
    marks = [span for span in spans if span.cat == "fault"]
    assert [span.name for span in marks] == ["retry"] * run.injector.count("retries")
    assert len(marks) == failures


def test_a_stage_emptied_by_dropping_gives_a_zero_length_span():
    run = _Run("dag", kept_map_indices={1: []})
    spans = run.run()
    assert run.done == [run.execution]
    _assert_well_formed(spans, run.attempt_id)
    (emptied,) = [span for span in spans if span.extras.get("stage") == 1
                  and span.cat == "stage"]
    assert emptied.start == emptied.end
    assert emptied.extras["outcome"] == "completed"
    assert not [task for task in _tasks(spans) if task.extras["stage"] == 1]
