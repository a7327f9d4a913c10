"""Golden runs: SHA-256 digests of the controller's observable output.

Each run below drives the DiAS controller (standalone, DAG or fleet) and
hashes what it leaves behind: the telemetry JSONL (samples and spans) where
telemetry is on, the Chrome-trace export where there is one, and a result
summary (the CLI report, or every headline number of the result object with
floats written exactly).  Most runs stream telemetry; the ``unobserved`` ones
run with it off, because an unobserved attempt, DAG or MapReduce, takes a
different path through its execution.  A refactor of the controller, the
executions or the arrival path must leave every digest unchanged.  A change that alters a
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
from typing import Callable, Dict, Optional

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

#: name -> CLI arguments; ``{telemetry}``/``{trace}``/``{replay}`` become paths.
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
    # MapReduce attempts with no telemetry and no trace; ``P`` evicts.
    "compare-unobserved": [
        "compare", "--scenario", "reference", "--policies", "P", "NP",
        "DA(0/20)", "--num-jobs", "60",
    ],
    # Streaming ingest of the trace that CLI_INPUTS synthesizes.
    "fleet-replay": [
        "fleet", "--replay", "{replay}", "--clusters", "2",
        "--telemetry", "{telemetry}", "--telemetry-interval", "50",
    ],
}

#: name -> CLI arguments run first, to write the ``{replay}`` input of a run.
CLI_INPUTS: Dict[str, list] = {
    "fleet-replay": [
        "synth-trace", "--out", "{replay}", "--mix", "google", "--num-jobs", "300",
        "--tasks-per-job", "4", "--seed", "7",
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
    # The replay input is named relative to ``workdir``: the report prints
    # and underlines it, so its length must not depend on the directory.
    paths = {"telemetry": telemetry, "trace": trace, "replay": f"{name}.input.jsonl"}
    out = io.StringIO()
    cwd = os.getcwd()
    os.chdir(workdir)
    try:
        with contextlib.redirect_stdout(out):
            if name in CLI_INPUTS:
                assert main([arg.format(**paths) for arg in CLI_INPUTS[name]]) == 0
                out.truncate(0)
                out.seek(0)
            code = main([arg.format(**paths) for arg in CLI_RUNS[name]])
    finally:
        os.chdir(cwd)
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


def _dias_sprinting(
    hub: TelemetryHub,
    faults: Optional[str] = "stragglers:p=0.1,slowdown=3;taskfail:p=0.05,retries=1",
) -> DiASSimulation:
    scenario = reference_two_priority_scenario(num_jobs=60)
    return DiASSimulation(
        policy=_sprinting_policy(),
        jobs=scenario.generate_trace(seed=8),
        cluster=scenario.cluster,
        seed=8,
        telemetry=hub,
        faults=faults,
    )


def _dias_sprinting_no_faults(hub: TelemetryHub) -> DiASSimulation:
    """Sprints start, run out of budget and are denied in the middle of a
    phase, so an in-flight speed change meets every kind of attempt."""
    return _dias_sprinting(hub, faults=None)


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


def _fleet_shared_streaming(hub: TelemetryHub) -> FleetSimulation:
    """Shared sprint budget and fleet-wide streaming metrics, no faults."""
    scenario = fleet_two_priority_scenario(num_clusters=3, num_jobs_per_cluster=20)
    return FleetSimulation(
        policy=_sprinting_policy(),
        jobs=scenario.generate_trace(seed=4),
        clusters=scenario.make_clusters(),
        dispatcher="jsq",
        sprint_budget="shared",
        seed=4,
        telemetry=hub,
        streaming_metrics=True,
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
    "dias-sprinting-unobserved": _dias_sprinting_no_faults,
    "fleet-shared-streaming-unobserved": _fleet_shared_streaming,
}

#: The runs that write telemetry were re-recorded when sample ticks stopped
#: being kernel events, which only moved the kernel's end-of-run counters and
#: the kernel ``run`` span's event count; ``golden_stream_diff.py`` checks
#: such a change against the parent tree.
#: The ``dag-*-unobserved`` runs were recorded before unobserved DAG attempts
#: left the per-task path, and the other ``unobserved`` runs before MapReduce
#: attempts did.
GOLDEN: Dict[str, str] = {
    "dag-cpfirst-traced-sampled": "2ba37bf5575e5091f0b2ad9e10b2b992b9480dc4da299b67dd99dcfdd584ca85",
    "dag-srw-traced-sampled": "823b7ded84946779d7d75ab792c934656827de71138a0d0975ed37cde9bef34b",
    "dag-widest-traced-sampled": "cd8fea5befa480f7d45a95c88d9c7b8fc8c50d0f85a6932807d1030df5f5f87c",
    "dag-slack-faults": "eb6eb743c2baf1e27294cbb90f298b9c61ff13d8e820225eae2cb7754074a1d9",
    "dag-P-restart": "858c60464338763b0281a28171528f6bff153c37f6c3141651942def582434b2",
    "compare-traced": "c4656f246c86f583660cda38d203e972614b2d25c45f26ee42566f37a3331aa6",
    "compare-faults-traced": "d4939deaa3cd3d22314945f72f3920a6dbf9e6dee29305ec2fbc3b35b39cfcca",
    "fleet-jsq-sampled": "483bd9d0ce4cc3c4d77cfbe3cb17fcb3b4241126d03398bcc57149aea9cd30b2",
    "fleet-least-work-left": "fba6df443a22d652396c9dfd9ae808caeb3e5966753a6fa9432e6733ff836ac3",
    "dag-sprinting-api": "9fcea69612d1707750e11f89c380d6200ef2a9e832c50b4cc3ee77e17697818f",
    "dag-job-source-api": "239ecf9e3d590d77d6dadba844da531a6690266a898e016098f8f8ebed1fe014",
    "dias-sprinting-api": "b41c4272869bbe26828ad8243407e18a8b4c83b4189b29469284409eef014692",
    "fleet-faults-api": "90a657be033f7195944cf0f1923f88e4ae9f164d37c2283e3775d3bfbb4c4726",
    "dag-P-unobserved": "70d47f4fe8835585912bd5d15a3046bc91faf48e2c729e2904de06142dc9f303",
    "dag-sprinting-unobserved": "e68247e1433cc77dd34720bc9cd05ac8a64f39090b65bea58f00be5c02d3060e",
    "dag-job-source-unobserved": "22e75951b1ccb1cf7b1d11dbd4f8a889211d242dec42978d847b95d2e813e6cd",
    "compare-unobserved": "69633d66154c74d969c503d3a1a7b38b72a0bfb3fb61e0218f79fb79dafe4041",
    "fleet-replay": "aeeeb9dddbc03a8544e5c02d180172164c652a2c1a0f57304b94745358ad7e8a",
    "dias-sprinting-unobserved": "57630748a151bc0f10eb17835243fc2dd5eef474108b1786b4a845db90a975be",
    "fleet-shared-streaming-unobserved": "5c3ae7e42663ae5a91d336d17501b3aed7a78600c57f5a25751fdcd831601deb",
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
