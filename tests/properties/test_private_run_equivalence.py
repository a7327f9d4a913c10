"""A privately run DAG attempt is indistinguishable from a per-task one.

With no fault injector, telemetry off and no decision hook,
:class:`~repro.dag.execution.DagExecution` runs an attempt to its end on a
private heap at ``start`` and gives the kernel one event, at the end.  A
speed change replays that run up to the current instant and hands the tasks
still in flight to the kernel.  Each random case here runs the same attempt
twice for every built-in scheduler: privately (the null hub) and per task
(an enabled hub whose sink discards every event).  Speed changes and an
eviction land at random instants, many of them exactly on task ends, at
priorities 0, 1 and 2, or between two calls of ``sim.run``.  Both runs must
agree on the completion and sprinted times, on what ``evict`` returns, and,
right after every speed change, on the in-flight tasks (slot, stage, end
time) and the free slots.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from hypothesis import given, settings, strategies as st

from test_pick_equivalence import _PROFILE, _cases

from repro.dag.execution import DagExecution
from repro.dag.graph import DagJob, DagStage, StageDAG
from repro.dag.schedulers import STAGE_SCHEDULERS
from repro.engine.cluster import Cluster, ClusterConfig
from repro.simulation.des import Simulator
from repro.telemetry import NULL_HUB, CallbackSink, TelemetryHub

_NO_SETUP = replace(_PROFILE, setup_time_full=0.0, setup_time_min=0.0)


def _discarding_hub() -> TelemetryHub:
    hub = TelemetryHub()
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
        per_task = _run(*args, _discarding_hub(), timed_plan)
        assert private == per_task, name


def test_only_unobserved_attempts_run_privately():
    stages = [DagStage(0, [1.0, 2.0], [0.5], 0.5), DagStage(1, [1.0], [], 0.0, parents=(0,))]
    job = DagJob(0, 0, 0.0, 100.0, StageDAG(stages), _PROFILE)
    outcomes = {}
    for label, hub, hook in (
        ("null hub", NULL_HUB, None),
        ("enabled hub", _discarding_hub(), None),
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
    assert outcomes == {"null hub": True, "enabled hub": False, "decision hook": False}
