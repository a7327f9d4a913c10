"""Ordered-frontier picks equal scan picks.

:class:`~repro.dag.execution.DagExecution` has two ways to choose the stage a
free slot serves.  When the scheduler's sort key is fixed once a stage is
ready (``fifo``, ``critical_path_first``) and no decision hook is set, it
keeps the frontier sorted by that key and takes the first stage that can
take a task.  Otherwise it builds the list of dispatchable stages and calls
``select``.  A scheduler that hides its key forces the second path, so each
random case runs both and demands the same per-task dispatch log (dispatch
time, slot, stage), the same telemetry stream and the same completion and
sprint times, for every built-in scheduler, with faults on and off.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.dag.execution import DagExecution
from repro.dag.graph import DagJob, DagStage, StageDAG
from repro.dag.schedulers import STAGE_SCHEDULERS, StageScheduler, make_stage_scheduler
from repro.engine.cluster import Cluster, ClusterConfig
from repro.engine.profiles import JobClassProfile
from repro.faults.injector import FaultInjector
from repro.faults.spec import parse_fault_spec
from repro.simulation.des import Simulator
from repro.simulation.random_streams import RandomStreams
from repro.telemetry import CallbackSink, TelemetryHub
from repro.workloads.dag import chain_topology, fork_join_topology, layered_topology

_FAULTS = "crash:mttf=20,repair=3;stragglers:p=0.2,slowdown=3;taskfail:p=0.1,retries=2"

_PROFILE = JobClassProfile(
    priority=0,
    name="prop",
    mean_size_mb=100.0,
    size_cv=0.0,
    partitions=4,
    reduce_tasks=1,
    map_time_per_100mb=10.0,
    reduce_time=1.0,
    setup_time_full=1.0,
    setup_time_min=0.5,
    shuffle_time=0.5,
    task_scv=0.0,
    max_accuracy_loss=0.5,
)

#: Few distinct durations, so tasks of different stages finish together.
_DURATIONS = st.sampled_from([0.5, 1.0, 1.5, 2.0])


class _ScanOnly(StageScheduler):
    """Delegates ``select`` but hides the key, which forces the scan path."""

    def __init__(self, inner: StageScheduler) -> None:
        self.inner = inner
        self.name = inner.name

    def select(self, ready):
        return self.inner.select(ready)


@st.composite
def _topologies(draw):
    kind = draw(st.sampled_from(["layered", "fork_join", "chain"]))
    if kind == "chain":
        return chain_topology(draw(st.integers(1, 5)))
    if kind == "fork_join":
        return fork_join_topology(draw(st.integers(1, 4)), draw(st.integers(1, 3)))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))
    return layered_topology(
        rng,
        num_layers=draw(st.integers(1, 4)),
        min_width=1,
        max_width=draw(st.integers(1, 4)),
        max_parents=draw(st.integers(1, 3)),
    )


def _kept(draw, counts: Dict[int, int]) -> Optional[Dict[int, List[int]]]:
    """A random drop plan: kept indices for some stages, possibly none kept."""
    plan = {}
    for index, count in counts.items():
        if draw(st.booleans()):
            plan[index] = sorted(
                draw(st.sets(st.integers(0, count - 1), max_size=count)) if count else []
            )
    return plan or None


@st.composite
def _cases(draw):
    spec = draw(_topologies())
    stages = [
        DagStage(
            index=index,
            map_task_times=draw(st.lists(_DURATIONS, min_size=1, max_size=8)),
            reduce_task_times=draw(st.lists(_DURATIONS, max_size=3)),
            shuffle_time=draw(st.sampled_from([0.0, 0.5])),
            parents=parents,
        )
        for index, parents in spec
    ]
    job = DagJob(0, 0, 0.0, 100.0, StageDAG(stages), _PROFILE)
    kept_maps = _kept(draw, {s.index: s.num_map_tasks for s in stages})
    kept_reduces = _kept(draw, {s.index: s.num_reduce_tasks for s in stages})
    start = draw(st.sampled_from([0.0, 0.5, 1.0, 2.5, 4.0, 7.0]))
    window = (start, start + draw(st.sampled_from([0.0, 1.0, 3.0, 10.0])))
    speed = draw(st.sampled_from([1.5, 2.0]))
    return job, kept_maps, kept_reduces, window, speed


def _run(job: DagJob, scheduler: StageScheduler, kept_maps, kept_reduces,
         window: Sequence[float], speed: float, faults: bool):
    sim = Simulator()
    cluster = Cluster(ClusterConfig(workers=3, cores_per_worker=2))
    events: List[dict] = []
    hub = TelemetryHub(tracing=True)
    hub.add_sink(CallbackSink(events.append))
    injector = None
    if faults:
        injector = FaultInjector(
            parse_fault_spec(_FAULTS), sim, cluster, RandomStreams(seed=11)
        )
    done = []

    def complete(execution):
        done.append(execution)
        if injector is not None:
            injector.stop()

    execution = DagExecution(
        sim,
        cluster,
        job,
        scheduler=scheduler,
        on_complete=complete,
        kept_map_indices=kept_maps,
        kept_reduce_indices=kept_reduces,
        telemetry=hub,
        faults=injector,
    )
    if injector is not None:
        injector.on_crash = execution.on_worker_crash
        injector.on_repair = execution.on_worker_repair
        injector.start()
    sim.schedule_at(window[0], lambda _sim: execution.set_speed(speed))
    sim.schedule_at(window[1], lambda _sim: execution.set_speed(1.0))
    execution.start()
    sim.run()
    assert done == [execution]
    dispatches = sorted(
        (event["start"], event["slot"], event["stage"])
        for event in events
        if event.get("name") == "task"
    )
    return dispatches, events, execution.completion_time, execution.sprinted_time


@given(case=_cases(), faults=st.booleans())
@settings(max_examples=60, deadline=None)
def test_ordered_frontier_picks_what_a_scan_picks(case, faults):
    job, kept_maps, kept_reduces, window, speed = case
    for name in STAGE_SCHEDULERS:
        scheduler = make_stage_scheduler(name)
        args = (kept_maps, kept_reduces, window, speed, faults)
        ordered = _run(job, scheduler, *args)
        scanned = _run(job, _ScanOnly(scheduler), *args)
        assert ordered[0] == scanned[0], name
        assert ordered[1] == scanned[1], name
        assert ordered[2:] == scanned[2:], name


def test_only_static_key_schedulers_without_a_hook_order_the_frontier():
    sim, cluster = Simulator(), Cluster(ClusterConfig(workers=1, cores_per_worker=2))
    job = DagJob(0, 0, 0.0, 100.0, StageDAG([DagStage(0, [1.0], [], 0.0)]), _PROFILE)
    ordered = {
        name: DagExecution(sim, cluster, job, scheduler=name)._ordered
        for name in STAGE_SCHEDULERS
    }
    assert ordered == {
        "fifo": True,
        "critical_path_first": True,
        "shortest_remaining_work": False,
        "widest_first": False,
    }
    hooked = DagExecution(sim, cluster, job, scheduler="fifo", decision_hook=lambda p: 0)
    assert not hooked._ordered
    scan = DagExecution(sim, cluster, job, scheduler=_ScanOnly(make_stage_scheduler("fifo")))
    assert not scan._ordered
