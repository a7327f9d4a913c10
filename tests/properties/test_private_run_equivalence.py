"""A privately run attempt is indistinguishable from a per-task one.

With no fault injector, no tracing and no decision hook,
:class:`~repro.dag.execution.DagExecution` and
:class:`~repro.engine.execution.JobExecution` run an attempt to its end at
``start`` and give the kernel one event, at the end (see
:mod:`repro.engine.execution`).  A speed change replays that run up to the
current instant and hands the tasks still in flight to the kernel.  Each
random case here runs the same attempt twice: privately and per task.  A DAG
attempt runs privately under the null hub and per task under a tracing hub,
for every built-in scheduler; a MapReduce attempt runs privately under a
sampling hub and per task under a tracing one.  A sampling hub observes
neither kind of attempt.  Speed changes and an eviction land at random
instants, many of them exactly on task ends or phase boundaries, at
priorities 0, 1 and 2, or between two calls of ``sim.run``.  Both runs must
agree on the completion and sprinted times, on what ``evict`` returns, and,
right after every speed change, on the tasks in flight and on what is still
to run.  An undisturbed attempt must also leave every stage's pending tasks,
in-flight count, done flag, ready order and undispatched work, and the
free-slot list, as the per-task run leaves them.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

import pytest
from hypothesis import given, settings, strategies as st

from test_pick_equivalence import _PROFILE, _cases

from repro.dag.execution import DagExecution
from repro.dag.graph import DagJob, DagStage, StageDAG
from repro.dag.schedulers import STAGE_SCHEDULERS
from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.execution import ExecutionPhase, JobExecution, build_phases
from repro.engine.job import Job, StageSpec
from repro.simulation.des import Simulator
from repro.telemetry import NULL_HUB, CallbackSink, TelemetryHub

_NO_SETUP = replace(_PROFILE, setup_time_full=0.0, setup_time_min=0.0)


def _sampling_hub() -> TelemetryHub:
    hub = TelemetryHub(sample_interval=1.0)
    hub.add_sink(CallbackSink(lambda event: None))
    return hub


def _tracing_hub(events: List[dict]) -> TelemetryHub:
    hub = TelemetryHub(tracing=True)
    hub.add_sink(CallbackSink(events.append))
    return hub


def _execution(sim, job, scheduler, kept_maps, kept_reduces, hub, done):
    return DagExecution(
        sim,
        Cluster(ClusterConfig(workers=3, cores_per_worker=2)),
        job,
        scheduler=scheduler,
        on_complete=done.append,
        kept_map_indices=kept_maps,
        kept_reduce_indices=kept_reduces,
        telemetry=hub,
    )


def _task_ends(job, scheduler, kept_maps, kept_reduces, start: float) -> List[float]:
    """End times of every task of an undisturbed attempt started at ``start``."""
    events: List[dict] = []
    sim = Simulator()
    execution = _execution(
        sim, job, scheduler, kept_maps, kept_reduces, _tracing_hub(events), []
    )
    sim.schedule_at(start, lambda _sim: execution.start())
    sim.run()
    return sorted({event["t"] for event in events if event.get("cat") == "task"})


def _snapshot(execution: DagExecution):
    return (
        [
            (slot, -1 if active.stage_run is None else active.stage_run.index,
             active.event.time)
            for slot, active in execution._active.items()
        ],
        list(execution._free_slots),
    )


def _set_speed(execution: DagExecution, speed: float):
    """Change the speed; the in-flight tasks and free slots if it changed."""
    before = execution.speed
    execution.set_speed(speed)
    if execution.running and execution.speed != before:
        return _snapshot(execution)
    return None


def _run(job, scheduler, kept_maps, kept_reduces, hub, plan):
    """Start at ``plan['start']``, apply the timed actions, run to the end."""
    sim = Simulator()
    done: List[DagExecution] = []
    execution = _execution(sim, job, scheduler, kept_maps, kept_reduces, hub, done)
    log: list = []

    def act(kind):
        def _callback(_sim):
            if kind == "evict":
                log.append(("evict", execution.evict() if execution.running else None))
                return
            log.append((kind, _set_speed(execution, plan["speed"] if kind == "fast" else 1.0)))

        return _callback

    # Scheduled before the attempt starts, so a priority-1 action sorts
    # before every task event that ends at the same instant.  An action
    # without a priority runs between two calls of ``sim.run``.
    paused = []
    for time, priority, kind in plan["actions"]:
        if priority is None:
            paused.append((time, kind))
        else:
            sim.schedule_at(time, act(kind), priority=priority)

    def start(_sim):
        execution.start()
        if plan["sprint_at_start"]:
            log.append(("start", _set_speed(execution, plan["speed"])))

    sim.schedule_at(plan["start"], start, priority=plan["start_priority"])
    for time, kind in sorted(paused):
        sim.run(until=time)
        act(kind)(sim)
    sim.run()
    return (
        [e is execution for e in done],
        execution.completion_time,
        execution.sprinted_time,
        log,
    )


@st.composite
def _plans(draw):
    job, kept_maps, kept_reduces, window, speed = draw(_cases())
    profile = _NO_SETUP if draw(st.booleans()) else _PROFILE
    job = DagJob(job.job_id, job.priority, job.arrival_time, job.size_mb, job.dag, profile)
    start = draw(st.sampled_from([0.0, 1.0]))
    plan = {
        "start": start,
        "start_priority": draw(st.sampled_from([0, 1, 2])),
        "sprint_at_start": draw(st.booleans()),
        "speed": speed,
    }
    #: Each action's time: an index into the task ends of the undisturbed
    #: attempt (so it lands exactly on one), or an offset from the start.
    timing = st.one_of(
        st.tuples(st.just("end"), st.integers(0, 200)),
        st.tuples(st.just("at"), st.sampled_from(list(window) + [0.0, 2.25, 5.0])),
    )
    # "fast" is listed twice so that most cases materialise a private run.
    actions = draw(
        st.lists(
            st.tuples(timing, st.sampled_from([0, 1, 2, None]),
                      st.sampled_from(["fast", "slow", "fast", "evict"])),
            max_size=4,
        )
    )
    return job, kept_maps, kept_reduces, plan, actions


@given(case=_plans())
@settings(max_examples=80, deadline=None)
def test_private_run_matches_the_per_task_path(case):
    job, kept_maps, kept_reduces, plan, actions = case
    for name in STAGE_SCHEDULERS:
        ends = _task_ends(job, name, kept_maps, kept_reduces, plan["start"])
        timed = []
        for (how, value), priority, kind in actions:
            if how == "end":
                time = ends[value % len(ends)] if ends else plan["start"]
            else:
                time = plan["start"] + value
            timed.append((time, priority, kind))
        timed_plan = dict(plan, actions=timed)
        args = (job, name, kept_maps, kept_reduces)
        private = _run(*args, NULL_HUB, timed_plan)
        per_task = _run(*args, _tracing_hub([]), timed_plan)
        assert private == per_task, name


def _end_state(job, scheduler, kept_maps, kept_reduces, hub):
    """Every stage's state and the free slots after an undisturbed attempt."""
    sim = Simulator()
    done: List[DagExecution] = []
    execution = _execution(sim, job, scheduler, kept_maps, kept_reduces, hub, done)
    execution.start()
    sim.run()
    runs = [execution.stage_run(stage.index) for stage in job.dag]
    stages = [
        (run.index, run.pending, run.active, run.done, run.ready_seq, run.remaining_work())
        for run in runs
    ]
    return done == [execution], execution.completion_time, stages, execution._free_slots


@given(case=_plans())
@settings(max_examples=80, deadline=None)
def test_private_run_leaves_every_stage_as_the_per_task_run_does(case):
    job, kept_maps, kept_reduces, _plan, _actions = case
    for name in STAGE_SCHEDULERS:
        args = (job, name, kept_maps, kept_reduces)
        assert _end_state(*args, NULL_HUB) == _end_state(*args, _tracing_hub([])), name


def test_only_unobserved_attempts_run_privately():
    stages = [DagStage(0, [1.0, 2.0], [0.5], 0.5), DagStage(1, [1.0], [], 0.0, parents=(0,))]
    job = DagJob(0, 0, 0.0, 100.0, StageDAG(stages), _PROFILE)
    outcomes = {}
    for label, hub, hook in (
        ("null hub", NULL_HUB, None),
        ("sampling hub", _sampling_hub(), None),
        ("tracing hub", _tracing_hub([]), None),
        ("decision hook", NULL_HUB, lambda point: 0),
    ):
        sim = Simulator()
        execution = DagExecution(
            sim, Cluster(ClusterConfig(workers=3, cores_per_worker=2)), job,
            telemetry=hub, decision_hook=hook,
        )
        execution.start()
        outcomes[label] = execution._end_event is not None
        sim.run()
        assert execution.completed, label
    assert outcomes == {
        "null hub": True,
        "sampling hub": True,
        "tracing hub": False,
        "decision hook": False,
    }


# --------------------------------------------------------------- MapReduce
#: Task times: dyadic values tie often; 0.1 and 0.3 round.
_TIMES = st.sampled_from([0.5, 1.0, 1.0, 1.5, 2.0, 0.75, 0.1, 0.3])
_MR_CLUSTER = ClusterConfig(workers=2, cores_per_worker=2)  # C = 4 slots


@st.composite
def _mapreduce_jobs(draw):
    """A MapReduce job and its kept tasks.

    Setup may take no time; phases may hold one task, at most ``C`` tasks or
    more; a stage may drop all its maps or all its reduces.
    """
    setup = draw(st.sampled_from([0.0, 0.0, 1.0, 0.25]))
    profile = replace(_PROFILE, setup_time_full=setup, setup_time_min=setup)
    stages, kept_maps, kept_reduces = [], {}, {}
    for index in range(draw(st.integers(1, 2))):
        maps = draw(st.lists(_TIMES, min_size=1, max_size=9))
        reduces = draw(st.lists(_TIMES, max_size=6))
        shuffle = draw(st.sampled_from([0.0, 0.5, 0.1]))
        stages.append(StageSpec(index, maps, reduces, shuffle))
        kept_maps[index] = draw(st.sampled_from([
            range(len(maps)), range(len(maps) - 1), range(0), range(1),
        ]))
        kept_reduces[index] = draw(st.sampled_from([range(len(reduces)), range(0)]))
    job = Job(0, 0, 0.0, 100.0, stages, profile)
    return job, build_phases(
        job, kept_map_indices=kept_maps, kept_reduce_indices=kept_reduces
    )


def _job_execution(sim, job, phases, hub, done) -> JobExecution:
    return JobExecution(
        sim, Cluster(_MR_CLUSTER), job, phases, on_complete=done.append, telemetry=hub
    )


def _mapreduce_instants(job, phases, start: float) -> List[float]:
    """Task ends and phase boundaries of an undisturbed attempt."""
    events: List[dict] = []
    sim = Simulator()
    execution = _job_execution(sim, job, phases, _tracing_hub(events), [])
    sim.schedule_at(start, lambda _sim: execution.start())
    sim.run()
    return sorted({e["t"] for e in events if e.get("cat") in ("task", "wave")})


def _mapreduce_snapshot(execution: JobExecution):
    phase = execution.current_phase
    return (
        sorted(active.event.time for active in execution._active.values()),
        list(execution._pending),
        None if phase is None else (phase.name, phase.stage_index),
    )


def _run_mapreduce(job, phases, hub, plan):
    """Start at ``plan['start']``, apply the timed actions, run to the end."""
    sim = Simulator()
    done: List[JobExecution] = []
    execution = _job_execution(sim, job, phases, hub, done)
    log: list = []

    def set_speed(speed):
        before = execution.speed
        execution.set_speed(speed)
        if execution.running and execution.speed != before:
            return _mapreduce_snapshot(execution)
        return None

    def act(kind):
        def _callback(_sim):
            if kind == "evict":
                log.append(("evict", execution.evict() if execution.running else None))
                return
            log.append((kind, set_speed(plan["speed"] if kind == "fast" else 1.0)))

        return _callback

    # As in the DAG test: scheduled before the attempt starts, so a
    # priority-1 action sorts before every task that ends at its instant.
    paused = []
    for time, priority, kind in plan["actions"]:
        if priority is None:
            paused.append((time, kind))
        else:
            sim.schedule_at(time, act(kind), priority=priority)

    def start(_sim):
        execution.start()
        if plan["sprint_at_start"]:
            log.append(("start", set_speed(plan["speed"])))

    sim.schedule_at(plan["start"], start, priority=plan["start_priority"])
    for time, kind in sorted(paused):
        sim.run(until=time)
        act(kind)(sim)
    sim.run()
    return (
        [e is execution for e in done],
        execution.completion_time,
        execution.sprinted_time,
        log,
    )


@st.composite
def _mapreduce_plans(draw):
    job, phases = draw(_mapreduce_jobs())
    plan = {
        "start": draw(st.sampled_from([0.0, 1.0])),
        "start_priority": draw(st.sampled_from([0, 1, 2])),
        "sprint_at_start": draw(st.booleans()),
        "speed": draw(st.sampled_from([2.0, 1.5, 3.0, 1.25])),
    }
    timing = st.one_of(
        st.tuples(st.just("end"), st.integers(0, 200)),
        st.tuples(st.just("at"), st.sampled_from([0.0, 0.05, 0.6, 1.3, 2.25, 5.0])),
    )
    actions = draw(
        st.lists(
            st.tuples(timing, st.sampled_from([0, 1, 2, None]),
                      st.sampled_from(["fast", "slow", "fast", "evict"])),
            max_size=4,
        )
    )
    return job, phases, plan, actions


@given(case=_mapreduce_plans())
@settings(max_examples=300, deadline=None)
def test_private_mapreduce_run_matches_the_per_task_path(case):
    job, phases, plan, actions = case
    instants = _mapreduce_instants(job, phases, plan["start"])
    timed = []
    for (how, value), priority, kind in actions:
        if how == "end":
            time = instants[value % len(instants)]
        else:
            time = plan["start"] + value
        timed.append((time, priority, kind))
    timed_plan = dict(plan, actions=timed)
    private = _run_mapreduce(job, phases, _sampling_hub(), timed_plan)
    per_task = _run_mapreduce(job, phases, _tracing_hub([]), timed_plan)
    assert private == per_task


def test_only_untraced_fault_free_mapreduce_attempts_run_privately():
    from repro.faults.injector import FaultInjector
    from repro.faults.spec import parse_fault_spec
    from repro.simulation.random_streams import RandomStreams

    job = Job(0, 0, 0.0, 100.0, [StageSpec(0, [1.0, 2.0], [0.5], 0.5)], _PROFILE)
    outcomes = {}
    for label, hub, faults in (
        ("null hub", NULL_HUB, False),
        ("sampling hub", _sampling_hub(), False),
        ("tracing hub", _tracing_hub([]), False),
        ("fault injector", NULL_HUB, True),
    ):
        sim = Simulator()
        cluster = Cluster(_MR_CLUSTER)
        injector = (
            FaultInjector(parse_fault_spec("stragglers:p=0"), sim, cluster, RandomStreams(1))
            if faults else None
        )
        execution = JobExecution(
            sim, cluster, job, build_phases(job), on_complete=lambda _e: None,
            telemetry=hub, faults=injector,
        )
        execution.start()
        outcomes[label] = execution._end_event is not None
        sim.run()
        assert execution.completed, label
    assert outcomes == {
        "null hub": True,
        "sampling hub": True,
        "tracing hub": False,
        "fault injector": False,
    }


def test_an_attempt_with_no_task_ends_inside_start():
    job = Job(0, 0, 0.0, 100.0, [StageSpec(0, [1.0], [], 0.0)], _PROFILE)
    for hub in (NULL_HUB, _tracing_hub([])):
        done: List[JobExecution] = []
        execution = _job_execution(
            Simulator(), job, [ExecutionPhase("map", 0, [])], hub, done
        )
        execution.start()
        assert done == [execution] and execution.completion_time == 0.0


@pytest.mark.parametrize("old_speed", [1.0, 3.0])
def test_known_gap_a_late_priority_one_speed_change_at_a_task_end(old_speed):
    """The carried-over gap, pinned: a priority-1 event scheduled after the
    first dispatch calls ``set_speed`` at an instant where tasks end.

    The per-task path has already run the tasks that end then (their events
    sort first), so the next task is in flight at the old speed and is
    rescaled.  The private path takes the call to sort before those tasks,
    so they are still in flight, with no time left, and the next task
    starts at the new speed.  The snapshots differ; the completion times
    agree when the old speed is 1.0, and can differ by rounding otherwise.
    No controller schedules such an event.
    """
    job = Job(0, 0, 0.0, 100.0, [StageSpec(0, [0.1] * 5, [], 0.0)], _PROFILE)
    phases = [ExecutionPhase("map", 0, [0.1] * 5)]
    outcomes = {}
    for label, hub in (("private", _sampling_hub()), ("per-task", _tracing_hub([]))):
        sim = Simulator()
        execution = _job_execution(sim, job, phases, hub, [])
        snapshot = []

        def change(_sim, execution=execution, snapshot=snapshot):
            execution.set_speed(2.0)
            snapshot.append(_mapreduce_snapshot(execution))

        def start(_sim, execution=execution):
            execution.start(speed=old_speed)
            sim.schedule_at(0.1 / old_speed, change, priority=1)

        sim.schedule_at(0.0, start)
        sim.run()
        outcomes[label] = (execution.completion_time, snapshot[0])
    first_end = 0.1 / old_speed
    assert outcomes["private"][1] == ([first_end] * 4, [0.1], ("map", 0))
    assert outcomes["per-task"][1] == (
        [first_end + (0.1 / old_speed) * old_speed / 2.0], [], ("map", 0)
    )
    private_end, per_task_end = outcomes["private"][0], outcomes["per-task"][0]
    assert private_end == first_end + 0.1 / 2.0
    assert per_task_end == first_end + (0.1 / old_speed) * old_speed / 2.0
    if old_speed == 1.0:
        assert private_end == per_task_end
