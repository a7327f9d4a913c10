"""Finished MapReduce executions are freed by reference counting alone.

Each ``JobExecution`` caches one completion callback per slot, and each
callback refers back to its execution.  That reference cycle must be broken
when the execution completes or is evicted; otherwise every finished
execution (with its phases and task records) stays on the heap until the
cyclic garbage collector happens to run.  These runs disable the collector,
so any execution still reachable afterwards is held by a cycle.
"""

from __future__ import annotations

import gc
import weakref

import pytest

from repro.core.config import SprintConfig
from repro.core.dias import DiASSimulation
from repro.core.policies import SchedulingPolicy
from repro.workloads.scenarios import HIGH, LOW, reference_two_priority_scenario


class _WatchedSimulation(DiASSimulation):
    """Keeps a weak reference to every execution it starts."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self.refs = []

    def _make_execution(self, *args, **kwargs):
        execution = super()._make_execution(*args, **kwargs)
        self.refs.append(weakref.ref(execution))
        return execution


_SPRINT = SprintConfig.limited_sprinting(
    budget_seconds=200.0, timeout=5.0, replenish_seconds_per_hour=0.0
)

CASES = {
    "P": dict(policy=SchedulingPolicy.preemptive_priority()),
    "DiAS": dict(policy=SchedulingPolicy.dias({HIGH: 0.0, LOW: 0.2}, _SPRINT)),
    "P+faults": dict(
        policy=SchedulingPolicy.preemptive_priority(),
        faults=(
            "crash:mttf=400,repair=40;stragglers:p=0.1,slowdown=3,speculate=1.5;"
            "taskfail:p=0.1,retries=1,backoff=0.5"
        ),
    ),
}


@pytest.mark.parametrize("case", sorted(CASES))
def test_finished_executions_are_freed_without_the_cycle_collector(case):
    scenario = reference_two_priority_scenario(num_jobs=40)
    simulation = _WatchedSimulation(
        jobs=scenario.generate_trace(seed=4),
        cluster=scenario.cluster,
        seed=4,
        **CASES[case],
    )
    was_enabled = gc.isenabled()
    gc.collect()
    gc.disable()
    try:
        result = simulation.run()
        alive = [ref for ref in simulation.refs if ref() is not None]
    finally:
        if was_enabled:
            gc.enable()
    assert result.completed_jobs == 40
    # One execution per attempt: every job once, plus one per restart.
    assert len(simulation.refs) >= 40 + result.evictions
    if case.startswith("P"):
        assert result.evictions > 0
    if case == "DiAS":
        assert result.sprinted_seconds > 0.0
    if case == "P+faults":
        counts = result.fault_counts
        assert counts["crashes"] > 0 and counts["task_failures"] > 0
    assert alive == []
