"""Golden runs: SHA-256 digests of the controller's observable output.

Each run below drives the DiAS controller (standalone, DAG or fleet) and
hashes what it leaves behind: the telemetry JSONL (samples and spans) where
telemetry is on, the Chrome-trace export where there is one, and a result
summary (the CLI report, or every headline number of the result object with
floats written exactly).  Most runs stream telemetry; the ``unobserved`` ones
run with it off, because an unobserved DAG attempt takes a different path
through :class:`~repro.dag.execution.DagExecution`.  A refactor of the controller, the executions or
the arrival path must leave every digest unchanged.  A change that alters a
digest on purpose must say why in ``CHANGES.md`` and update :data:`GOLDEN`;
``python tests/integration/test_golden_runs.py`` prints the current digests.

Crash rates stay mild under ``recovery=restart``: at a high crash rate every
DAG attempt is restarted before it can finish and the run never ends.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import tempfile
from typing import Callable, Dict

import pytest

from repro.cli import main
from repro.core.config import SprintConfig
from repro.core.dias import DiASSimulation
from repro.core.policies import SchedulingPolicy
from repro.dag.simulation import DagSimulation
from repro.fleet.simulation import FleetSimulation
from repro.telemetry import NULL_HUB, JsonLinesSink, TelemetryHub
from repro.workloads.scenarios import (
    HIGH,
    LOW,
    dag_layered_scenario,
    fleet_two_priority_scenario,
    reference_two_priority_scenario,
)

_DAG_FAULTS = (
    "crash:mttf=3000,repair=60;stragglers:p=0.1,slowdown=3,speculate=1.5;"
    "taskfail:p=0.05,retries=2"
)
#: MapReduce fault path: speculative copies, task retries and crash requeues
#: all occur (271, 190 and 197 events).
_MAPREDUCE_FAULTS = (
    "crash:mttf=400,repair=40;stragglers:p=0.1,slowdown=3,speculate=1.5;"
    "taskfail:p=0.05,retries=2"
)

#: name -> CLI arguments; ``{telemetry}``/``{trace}`` become output paths.
CLI_RUNS: Dict[str, list] = {
    "dag-cpfirst-traced-sampled": [
        "dag", "--scheduler", "critical_path_first", "--num-jobs", "40",
        "--seed", "3", "--telemetry-interval", "20",
        "--telemetry", "{telemetry}", "--trace", "{trace}",
    ],
    "dag-srw-traced-sampled": [
        "dag", "--scheduler", "shortest_remaining_work", "--num-jobs", "40",
        "--seed", "8", "--telemetry-interval", "20",
        "--telemetry", "{telemetry}", "--trace", "{trace}",
    ],
    "dag-widest-traced-sampled": [
        "dag", "--scheduler", "widest_first", "--num-jobs", "40",
        "--seed", "9", "--telemetry-interval", "20",
        "--telemetry", "{telemetry}", "--trace", "{trace}",
    ],
    "dag-slack-faults": [
        "dag", "--slack-biased", "--num-jobs", "40", "--seed", "4",
        "--faults", _DAG_FAULTS, "--telemetry-interval", "20",
        "--telemetry", "{telemetry}", "--trace", "{trace}",
    ],
    "dag-P-restart": [
        "dag", "--policy", "P", "--num-jobs", "30", "--seed", "5",
        "--faults", "crash:mttf=20000,repair=60,recovery=restart",
        "--telemetry-interval", "20",
        "--telemetry", "{telemetry}", "--trace", "{trace}",
    ],
    "compare-traced": [
        "compare", "--scenario", "reference", "--policies", "P", "NP",
        "DA(0/20)", "--num-jobs", "40", "--seed", "2",
        "--telemetry", "{telemetry}", "--trace", "{trace}",
    ],
    "compare-faults-traced": [
        "compare", "--scenario", "reference", "--policies", "P", "DA(0/20)",
        "--num-jobs", "40", "--seed", "6", "--faults", _MAPREDUCE_FAULTS,
        "--telemetry", "{telemetry}", "--trace", "{trace}",
    ],
    "fleet-jsq-sampled": [
        "fleet", "--clusters", "3", "--router", "jsq", "--num-jobs", "60",
        "--seed", "1", "--telemetry-interval", "10",
        "--telemetry", "{telemetry}",
    ],
    "fleet-least-work-left": [
        "fleet", "--clusters", "3", "--router", "least_work_left",
        "--num-jobs", "60", "--seed", "2", "--telemetry-interval", "10",
        "--telemetry", "{telemetry}",
    ],
    # No telemetry and no trace; preemption evicts two attempts.
    "dag-P-unobserved": [
        "dag", "--policy", "P", "--num-jobs", "40", "--seed", "5",
    ],
}


def _digest(*parts: bytes) -> str:
    sha = hashlib.sha256()
    for part in parts:
        sha.update(len(part).to_bytes(8, "big"))
        sha.update(part)
    return sha.hexdigest()


def _read(path: str) -> bytes:
    with open(path, "rb") as handle:
        return handle.read()


def _cli_digest(name: str, workdir: str) -> str:
    telemetry = os.path.join(workdir, f"{name}.jsonl")
    trace = os.path.join(workdir, f"{name}.trace.json")
    argv = [arg.format(telemetry=telemetry, trace=trace) for arg in CLI_RUNS[name]]
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    assert code == 0, out.getvalue()
    stdout = out.getvalue().replace(workdir, "<dir>").encode()
    parts = [stdout]
    for path in (telemetry, trace):
        if os.path.exists(path):
            parts.append(_read(path))
    return _digest(*parts)


def _summary(result) -> bytes:
    """Every headline number of a result, floats written exactly."""
    if hasattr(result, "cluster_results"):
        return json.dumps(
            {
                "fleet": result.summary(),
                "dispatch": result.dispatch_counts,
                "faults": result.fault_counts,
                "clusters": [json.loads(_summary(r)) for r in result.cluster_results],
            },
            sort_keys=True,
        ).encode()
    fields = {
        "policy": result.policy_name,
        "completed": result.completed_jobs,
        "duration": result.duration,
        "energy": [
            result.total_energy_joules,
            result.idle_energy_joules,
            result.busy_energy_joules,
            result.sprint_energy_joules,
        ],
        "sprinted": result.sprinted_seconds,
        "evictions": result.evictions,
        "faults": result.fault_counts,
        "classes": {
            str(p): [
                result.mean_response_time(p),
                result.tail_response_time(p),
                result.mean_queueing_time(p),
                result.mean_execution_time(p),
                result.mean_accuracy_loss(p),
            ]
            for p in result.priorities()
        },
    }
    if hasattr(result, "dag_rows"):
        fields["dag"] = [
            result.scheduler_name,
            result.cp_stretch_sum,
            result.cp_stretch_count,
            result.dag_rows,
        ]
    return json.dumps(fields, sort_keys=True).encode()


def _api_digest(build: Callable[[TelemetryHub], object], workdir: str, name: str) -> str:
    path = os.path.join(workdir, f"{name}.jsonl")
    hub = TelemetryHub(sample_interval=15.0, tracing=True)
    hub.add_sink(JsonLinesSink(path))
    result = build(hub).run()
    hub.close()
    return _digest(_summary(result), _read(path))


def _sprinting_policy() -> SchedulingPolicy:
    """Sprint after 5 s from a 200 s budget that never refills: some
    sprints run out of budget mid-job and later ones are denied."""
    sprint = SprintConfig.limited_sprinting(
        budget_seconds=200.0, timeout=5.0, replenish_seconds_per_hour=0.0
    )
    return SchedulingPolicy.dias({HIGH: 0.0, LOW: 0.2}, sprint)


def _dag_sprinting(hub: TelemetryHub) -> DagSimulation:
    scenario = dag_layered_scenario(num_jobs=40)
    return DagSimulation(
        policy=_sprinting_policy(),
        jobs=scenario.generate_trace(seed=6),
        scheduler="critical_path_first",
        cluster=scenario.cluster,
        seed=6,
        telemetry=hub,
    )


def _dag_job_source(hub: TelemetryHub) -> DagSimulation:
    scenario = dag_layered_scenario(num_jobs=40)
    return DagSimulation(
        policy=SchedulingPolicy.preemptive_priority(),
        job_source=iter(scenario.generate_trace(seed=7)),
        scheduler="fifo",
        cluster=scenario.cluster,
        seed=7,
        telemetry=hub,
        streaming_metrics=True,
    )


def _dias_sprinting(hub: TelemetryHub) -> DiASSimulation:
    scenario = reference_two_priority_scenario(num_jobs=60)
    return DiASSimulation(
        policy=_sprinting_policy(),
        jobs=scenario.generate_trace(seed=8),
        cluster=scenario.cluster,
        seed=8,
        telemetry=hub,
        faults="stragglers:p=0.1,slowdown=3;taskfail:p=0.05,retries=1",
    )


def _fleet_faults(hub: TelemetryHub) -> FleetSimulation:
    """Shared sprint budget, quarantine redirects and fault restarts."""
    scenario = fleet_two_priority_scenario(num_clusters=3, num_jobs_per_cluster=20)
    return FleetSimulation(
        policy=_sprinting_policy(),
        jobs=scenario.generate_trace(seed=4),
        clusters=scenario.make_clusters(),
        dispatcher="jsq",
        sprint_budget="shared",
        seed=4,
        telemetry=hub,
        faults="crash:mttf=1500,repair=60;taskfail:p=0.05,retries=1",
    )


API_RUNS: Dict[str, Callable[[TelemetryHub], object]] = {
    "dag-sprinting-api": _dag_sprinting,
    "dag-job-source-api": _dag_job_source,
    "dias-sprinting-api": _dias_sprinting,
    "fleet-faults-api": _fleet_faults,
}

#: The same builders with telemetry off: only the result summary is hashed.
UNOBSERVED_API_RUNS: Dict[str, Callable[[TelemetryHub], object]] = {
    "dag-sprinting-unobserved": _dag_sprinting,
    "dag-job-source-unobserved": _dag_job_source,
}

#: Digests recorded before the DAG controller became a DiAS subclass; the
#: ``dag-srw`` and ``dag-widest`` runs before the stage schedulers got sort keys;
#: ``compare-faults-traced`` before the executions shared one lifecycle base;
#: the ``unobserved`` runs before unobserved DAG attempts left the per-task path.
GOLDEN: Dict[str, str] = {
    "dag-cpfirst-traced-sampled": "4a266be1d8140b26a5a428fb8ae69cb123073fab14be091e8aba0a8e180753b1",
    "dag-srw-traced-sampled": "85d1e47f3789178268bc03a02cf5ef8e95202b6fc8e63b5d935743a3cab52be0",
    "dag-widest-traced-sampled": "1a7355cd81c78b72345490ee347340961c378a136661d6f896d0b86cf92de0dd",
    "dag-slack-faults": "53c0ef9151afb0a9cb91e4ef558326cba2859ca3255bfd818af28da29e8524fb",
    "dag-P-restart": "84181cffdd5bc9c7a7ae8c7e1a0a6d94da6a2392c150d330e215325ea5d8ad7d",
    "compare-traced": "d690a37f2192fc7bd00e04695a91d868233322739e05b7bb016d25cc3c552cdc",
    "compare-faults-traced": "6000f0e0a33dd2aea1baa07a0a469acc0423d2747eb468262d123e1fb6440080",
    "fleet-jsq-sampled": "8db87773b43936f5e216a9d329a03e4cc0df7d1283e9e11cca8de7e79a3bebef",
    "fleet-least-work-left": "09eed86d3437807906d7c3caafac002eb33fff241513dc060987263554192f56",
    "dag-sprinting-api": "41455588e8eaa6b4b77a780178cf4a05f16cf134c2cf444bfe2aee88c489a842",
    "dag-job-source-api": "b60b2f676c80ab6f1dc98c2512fc7bd4e2e65d48bb1a85a5d5caa08381da7f58",
    "dias-sprinting-api": "744128f6d1078d40d573113cf245ed02c5c74c44cd98b0d993ed77b246a66186",
    "fleet-faults-api": "fa392b571f6e727e7d179050ce939cca96f2c0c362aa4884ad45f88ddd58e09a",
    "dag-P-unobserved": "70d47f4fe8835585912bd5d15a3046bc91faf48e2c729e2904de06142dc9f303",
    "dag-sprinting-unobserved": "e68247e1433cc77dd34720bc9cd05ac8a64f39090b65bea58f00be5c02d3060e",
    "dag-job-source-unobserved": "22e75951b1ccb1cf7b1d11dbd4f8a889211d242dec42978d847b95d2e813e6cd",
}


def current_digest(name: str, workdir: str) -> str:
    if name in CLI_RUNS:
        return _cli_digest(name, workdir)
    if name in UNOBSERVED_API_RUNS:
        return _digest(_summary(UNOBSERVED_API_RUNS[name](NULL_HUB).run()))
    return _api_digest(API_RUNS[name], workdir, name)


ALL_RUNS = list(CLI_RUNS) + list(API_RUNS) + list(UNOBSERVED_API_RUNS)


@pytest.mark.parametrize("name", ALL_RUNS)
def test_golden_run_digest_is_unchanged(name, tmp_path):
    assert current_digest(name, str(tmp_path)) == GOLDEN[name]


if __name__ == "__main__":  # pragma: no cover - digest recording helper
    with tempfile.TemporaryDirectory() as workdir:
        for run in ALL_RUNS:
            print(f'    "{run}": "{current_digest(run, workdir)}",')
