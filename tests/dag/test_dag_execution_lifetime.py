"""Finished DAG executions are freed by reference counting alone.

Each ``DagExecution`` caches one completion callback per slot, and each
callback refers back to its execution.  That reference cycle must be broken
when the execution completes or is evicted; otherwise every finished
execution (with its stage runs and task records) stays on the heap until the
cyclic garbage collector happens to run.  These runs disable the collector,
so any execution still reachable afterwards is held by a cycle.  The same
holds for a finished controller that has no sprinter or fault injector (their
callbacks are bound to it): nothing else may refer back to it.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.policies import SchedulingPolicy
from repro.dag.simulation import DagSimulation
from repro.env.agents import BuiltinAgent
from repro.experiments.figures import limited_sprint_config
from repro.workloads.scenarios import HIGH, LOW, dag_layered_scenario


class _WatchingHook:
    """Delegate to the built-in scheduler; keep a weakref to each execution."""

    def __init__(self) -> None:
        self.agent = BuiltinAgent()
        self.seen = weakref.WeakSet()
        self.refs = []

    def __call__(self, point) -> int:
        execution = point.context
        if execution not in self.seen:
            self.seen.add(execution)
            self.refs.append(weakref.ref(execution))
        return self.agent.act(point)


CASES = {
    "DA": dict(policy=SchedulingPolicy.differential_approximation({HIGH: 0.0, LOW: 0.2})),
    "P": dict(policy=SchedulingPolicy.preemptive_priority()),
    "DiAS": dict(
        policy=SchedulingPolicy.dias({HIGH: 0.0, LOW: 0.2}, limited_sprint_config())
    ),
    "DA+faults": dict(
        policy=SchedulingPolicy.differential_approximation({HIGH: 0.0, LOW: 0.2}),
        faults="crash:mttf=300,repair=40;taskfail:p=0.1,retries=1,backoff=0.5",
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_finished_executions_are_freed_without_the_cycle_collector(case):
    scenario = dag_layered_scenario(num_jobs=30)
    hook = _WatchingHook()
    simulation = DagSimulation(
        jobs=scenario.generate_trace(seed=4),
        scheduler="critical_path_first",
        cluster=scenario.cluster,
        seed=4,
        decision_hook=hook,
        **CASES[case],
    )
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = simulation.run()
        alive = [ref for ref in hook.refs if ref() is not None]
    finally:
        if was_enabled:
            gc.enable()
    assert result.completed_jobs == 30
    # One execution per attempt: every job once, plus one per restart.
    assert len(hook.refs) >= 30 + result.evictions
    if case == "P":
        assert result.evictions > 0
    if case == "DiAS":
        assert result.sprinted_seconds > 0.0
    assert alive == []


@pytest.mark.parametrize("case", ["DA", "P"])
def test_a_finished_controller_is_freed_without_the_cycle_collector(case):
    scenario = dag_layered_scenario(num_jobs=10)
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        simulation = DagSimulation(
            jobs=scenario.generate_trace(seed=4),
            cluster=scenario.cluster,
            seed=4,
            **CASES[case],
        )
        assert simulation.run().completed_jobs == 10
        ref = weakref.ref(simulation)
        del simulation
        alive = ref() is not None
    finally:
        if was_enabled:
            gc.enable()
    assert not alive
