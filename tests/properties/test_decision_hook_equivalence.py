"""Decision-hook behaviour preservation.

The decision-point refactor (``decision_hook`` on :class:`DagSimulation` /
:class:`FleetSimulation`) promises that re-expressing every built-in stage
scheduler and fleet dispatcher as an agent behind the hook protocol changes
*nothing*: per-job records, summaries, parallel replication metrics, and
streamed telemetry must stay byte-identical to the hookless direct path.
These tests are the proof the learned-policy layer leans on — if the hook
path drifted, training rewards would silently diverge from the simulations
the rest of the repo reports.

The hook also observes every stage decision's candidate list, which is how
the last section checks that :class:`DagExecution` scanning only its ready
frontier offers exactly the candidates, in exactly the order, of a scan of
every stage — so scheduler tie-breaks and hook indices cannot drift.
"""

from __future__ import annotations

import pytest

from repro.core.policies import SchedulingPolicy
from repro.dag.execution import DagExecution
from repro.dag.schedulers import STAGE_SCHEDULERS
from repro.dag.simulation import DagSimulation, replicate_dag
from repro.env import AgentDecisionHook, BuiltinAgent, SchedulerAgent
from repro.experiments.figures import limited_sprint_config
from repro.fleet.dispatcher import ROUTERS
from repro.fleet.simulation import FleetSimulation, replicate_fleet
from repro.simulation.des import Simulator
from repro.telemetry.hub import TelemetryHub
from repro.telemetry.sinks import JsonLinesSink
from repro.workloads import scenarios as scenario_module

SEED = 3


def _policy() -> SchedulingPolicy:
    return SchedulingPolicy.differential_approximation({2: 0.0, 0: 0.2})


def _dag_run(scheduler, hook=None, telemetry_path=None, policy=None, **options):
    scenario = scenario_module.dag_layered_scenario(num_jobs=6)
    hub = None
    if telemetry_path is not None:
        hub = TelemetryHub(sample_interval=5.0, tracing=True)
        hub.add_sink(JsonLinesSink(str(telemetry_path)))
    simulation = DagSimulation(
        policy=policy or _policy(),
        jobs=scenario.generate_trace(seed=SEED),
        scheduler=scheduler,
        cluster=scenario.cluster,
        seed=SEED,
        decision_hook=hook,
        **options,
        **({} if hub is None else {"telemetry": hub}),
    )
    result = simulation.run()
    if hub is not None:
        hub.close()
    return result


def _fleet_run(dispatcher, hook=None, telemetry_path=None):
    scenario = scenario_module.fleet_two_priority_scenario(
        num_clusters=3, num_jobs_per_cluster=15
    )
    hub = None
    if telemetry_path is not None:
        hub = TelemetryHub(sample_interval=5.0, tracing=True)
        hub.add_sink(JsonLinesSink(str(telemetry_path)))
    simulation = FleetSimulation(
        policy=_policy(),
        jobs=scenario.generate_trace(seed=SEED),
        clusters=scenario.make_clusters(),
        dispatcher=dispatcher,
        seed=SEED,
        decision_hook=hook,
        **({} if hub is None else {"telemetry": hub}),
    )
    result = simulation.run()
    if hub is not None:
        hub.close()
    return result


def _samples(metrics):
    return {name: metric.samples for name, metric in metrics.items()}


# ------------------------------------------------- built-ins through the hook
@pytest.mark.parametrize("scheduler", STAGE_SCHEDULERS)
def test_every_stage_scheduler_is_identical_through_the_hook(scheduler):
    direct = _dag_run(scheduler)
    hooked = _dag_run(scheduler, hook=AgentDecisionHook(BuiltinAgent()))
    assert hooked.metrics.records == direct.metrics.records
    assert hooked.total_energy_joules == direct.total_energy_joules


@pytest.mark.parametrize("dispatcher", ROUTERS)
def test_every_dispatcher_is_identical_through_the_hook(dispatcher):
    direct = _fleet_run(dispatcher)
    hooked = _fleet_run(dispatcher, hook=AgentDecisionHook(BuiltinAgent()))
    assert hooked.records() == direct.records()
    assert list(hooked.dispatch_counts) == list(direct.dispatch_counts)
    assert hooked.summary() == direct.summary()


@pytest.mark.parametrize("scheduler", STAGE_SCHEDULERS)
def test_scheduler_agent_matches_direct_named_scheduler(scheduler):
    """SchedulerAgent(name) on a fifo-configured sim == direct scheduler=name."""
    direct = _dag_run(scheduler)
    hooked = _dag_run("fifo", hook=AgentDecisionHook(SchedulerAgent(scheduler)))
    assert hooked.metrics.records == direct.metrics.records


# ------------------------------------------------ hooked replication parallel
def test_replicate_dag_with_hook_serial_equals_parallel():
    scenario = scenario_module.dag_layered_scenario(num_jobs=5)
    hook = AgentDecisionHook(BuiltinAgent())
    direct = replicate_dag(scenario, _policy(), 3, scheduler="fifo", jobs=1)
    serial = replicate_dag(
        scenario, _policy(), 3, scheduler="fifo", jobs=1, decision_hook=hook
    )
    parallel = replicate_dag(
        scenario, _policy(), 3, scheduler="fifo", jobs=2, decision_hook=hook
    )
    assert _samples(serial) == _samples(parallel)
    assert _samples(serial) == _samples(direct)


def test_replicate_fleet_with_hook_serial_equals_parallel():
    scenario = scenario_module.fleet_two_priority_scenario(
        num_clusters=2, num_jobs_per_cluster=10
    )
    hook = AgentDecisionHook(BuiltinAgent())
    direct = replicate_fleet(scenario, _policy(), 3, dispatcher="jsq", jobs=1)
    serial = replicate_fleet(
        scenario, _policy(), 3, dispatcher="jsq", jobs=1, decision_hook=hook
    )
    parallel = replicate_fleet(
        scenario, _policy(), 3, dispatcher="jsq", jobs=2, decision_hook=hook
    )
    assert _samples(serial) == _samples(parallel)
    assert _samples(serial) == _samples(direct)


# --------------------------------------------------- telemetry byte-identity
def test_hooked_dag_run_streams_byte_identical_telemetry(tmp_path):
    direct_path = tmp_path / "direct.jsonl"
    hooked_path = tmp_path / "hooked.jsonl"
    _dag_run("critical_path_first", telemetry_path=direct_path)
    _dag_run(
        "critical_path_first",
        hook=AgentDecisionHook(BuiltinAgent()),
        telemetry_path=hooked_path,
    )
    assert hooked_path.read_bytes() == direct_path.read_bytes()


def test_hooked_fleet_run_streams_byte_identical_telemetry(tmp_path):
    direct_path = tmp_path / "direct.jsonl"
    hooked_path = tmp_path / "hooked.jsonl"
    _fleet_run("least_work_left", telemetry_path=direct_path)
    _fleet_run(
        "least_work_left",
        hook=AgentDecisionHook(BuiltinAgent()),
        telemetry_path=hooked_path,
    )
    assert hooked_path.read_bytes() == direct_path.read_bytes()


# ----------------------------------------------------------- hook validation
def test_out_of_range_stage_choice_is_rejected():
    with pytest.raises(ValueError, match="invalid stage index"):
        _dag_run("fifo", hook=lambda point: point.num_actions)


def test_out_of_range_route_choice_is_rejected():
    with pytest.raises(ValueError, match="invalid cluster"):
        _fleet_run("round_robin", hook=lambda point: -1)


# ------------------------------------------ frontier scan == full stage scan
class _FullScanCheck:
    """Delegating hook that checks each stage decision's candidate list.

    The candidates must be exactly the stages a scan of the whole job finds
    dispatchable, in the job's stage order.
    """

    def __init__(self, inner):
        self.inner = inner
        self.decisions = 0

    def __call__(self, point):
        execution = point.context
        full_scan = [
            execution.stage_run(s.index)
            for s in point.job.dag
            if execution.stage_run(s.index).dispatchable
        ]
        assert list(point.candidates) == full_scan
        self.decisions += 1
        return self.inner(point)


#: name -> (DagSimulation options, check that the run reached that path)
FRONTIER_CASES = {
    "approximation": ({}, lambda result: True),
    "faults": (
        # Crashes requeue lost tasks; with one retry, some tasks exhaust it
        # and the controller restarts their job.
        {"faults": "crash:mttf=300,repair=40;taskfail:p=0.1,retries=1,backoff=0.5"},
        lambda result: result.fault_counts["crashes"] > 0
        and result.fault_counts["retries"] > 0
        and result.fault_counts["job_restarts"] > 0,
    ),
    "sprinting": (
        {"policy": SchedulingPolicy.dias({2: 0.0, 0: 0.2}, limited_sprint_config())},
        lambda result: result.sprinted_seconds > 0,
    ),
}


@pytest.mark.parametrize("case", sorted(FRONTIER_CASES))
@pytest.mark.parametrize("scheduler", STAGE_SCHEDULERS)
def test_frontier_candidates_equal_a_full_stage_scan(scheduler, case):
    options, reached = FRONTIER_CASES[case]
    check = _FullScanCheck(AgentDecisionHook(BuiltinAgent()))
    hooked = _dag_run(scheduler, hook=check, **options)
    assert check.decisions > 0
    assert reached(hooked)
    assert hooked.metrics.records == _dag_run(scheduler, **options).metrics.records


@pytest.mark.parametrize("scheduler", STAGE_SCHEDULERS)
def test_frontier_admits_stages_readied_through_emptied_parents(scheduler):
    # No drop ratio below 1 empties a stage (⌈n(1 − θ)⌉ keeps a task), so
    # empty every other stage with children through an explicit plan.  An
    # emptied stage completes on activation and readies its children in
    # cascade; those children must still reach the frontier.
    scenario = scenario_module.dag_layered_scenario(num_jobs=6)
    emptied_total = 0
    for job in scenario.generate_trace(seed=SEED):
        emptied = {
            stage.index: []
            for stage in job.dag
            if stage.index % 2 == 1 and job.dag.children(stage.index)
        }
        emptied_total += len(emptied)
        sim = Simulator()
        done = []
        check = _FullScanCheck(AgentDecisionHook(BuiltinAgent()))
        execution = DagExecution(
            sim,
            scenario.cluster,
            job,
            scheduler=scheduler,
            on_complete=done.append,
            kept_map_indices=emptied,
            kept_reduce_indices=emptied,
            decision_hook=check,
        )
        execution.start()
        sim.run()
        assert done == [execution]
        assert check.decisions > 0
    assert emptied_total > 0
