"""The five workloads of the benchmark of record, one per CLI surface.

Each workload drives the simulator only through its public API, in four
timed phases (see :class:`Phases`):

``import``  import the ``repro`` modules the surface needs;
``gen``     generate the seeded inputs (outside every end-to-end metric);
``build``   construct the simulation objects;
``run``     ``run()`` plus building the summary the CLI prints — the only
            phase the profiler sees, and the one ``jobs_per_s`` divides by.

A workload returns an :class:`Outcome`: the job counts, the simulated outputs
that feed the correctness digest, and the conservation-law violations found
(empty on a correct run).  Host times and kernel event counts are kept out of
the outputs on purpose, so a change that schedules fewer events with the
same results keeps the same digest.
"""

from __future__ import annotations

import cProfile
import hashlib
import heapq
import json
import os
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Callable, Dict, Iterator, List, Mapping, Optional

#: Seed whose digests are committed in ``expected.json``.
DEFAULT_SEED = 0

#: Tolerance of the latency-decomposition closure check (seconds).
CLOSURE_EPSILON = 1e-6


@dataclass
class Outcome:
    """What one cycle of a workload produced."""

    attempted: int
    completed: int
    outputs: Dict
    problems: List[str]
    #: Per-layer counts read from public objects (names in :data:`COUNTERS`;
    #: the rest come from cProfile).
    counters: Dict[str, int] = field(default_factory=dict)


#: Per-layer counts a workload reads from public objects.  A workload that
#: cannot reach one (the kernels inside ``env.learn.train``) leaves it at 0.
COUNTERS = (
    "simulation.des.events_processed",
    "simulation.des.events_scheduled",
    "simulation.des.heap_compactions",
    "traces.jobs_ingested",
    "telemetry.spans",
    "env.decisions",
)


def _kernel_counters(*simulations) -> Dict[str, int]:
    """Event counts of the simulators behind the given simulations' ``.sim``."""
    return {
        "simulation.des.events_processed": sum(s.sim.processed_events for s in simulations),
        "simulation.des.events_scheduled": sum(s.sim.scheduled_events for s in simulations),
        "simulation.des.heap_compactions": sum(s.sim.heap_compactions for s in simulations),
    }


#: Seconds :func:`calibrate` takes on the reference host (a 2-vCPU container,
#: CPython 3.11, uncontended).  Normalised times are seconds of that host.
REFERENCE_CALIBRATION_S = 0.1


class _Event:
    __slots__ = ("time", "key", "value")

    def __init__(self, time: float, key: int, value: int) -> None:
        self.time = time
        self.key = key
        self.value = value


def calibrate(events: int = 100_000) -> float:
    """Host seconds of a fixed pure-Python event loop (heap, slotted objects, dict).

    It does the kind of work the simulator does but runs none of its code, so
    no change under ``src/`` can move it.  On a shared host whose speed drifts
    with its neighbours' load, its ratio to :data:`REFERENCE_CALIBRATION_S`
    is how much slower the host runs right now.
    """
    start = time.perf_counter()
    heap: list = []
    totals: Dict[int, list] = {}
    now = 0.0
    x = 12345
    for seq in range(events):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        heapq.heappush(heap, (now + (x % 1000) / 100.0, seq, _Event(now, seq % 64, x)))
        if len(heap) > 200:
            now, _, event = heapq.heappop(heap)
            total = totals.get(event.key)
            if total is None:
                total = totals[event.key] = [0, 0.0]
            total[0] += 1
            total[1] += event.value * 0.5
    return time.perf_counter() - start


class Phases:
    """Times the phases of one cycle; profiles the ``run`` phase on demand.

    The host is calibrated right before and right after the ``run`` phase,
    outside its timer (see :func:`calibrate`), unless ``calibrated`` is off.
    """

    def __init__(self, profile: bool = False, calibrated: bool = True) -> None:
        self.seconds: Dict[str, float] = {}
        self.import_done_at: Optional[float] = None
        self.calibrated = calibrated
        self.calibration_s: List[float] = []
        self.profiler = cProfile.Profile() if profile else None

    @contextmanager
    def __call__(self, name: str) -> Iterator[None]:
        profiler = self.profiler if name == "run" else None
        calibrating = name == "run" and self.calibrated
        if calibrating:
            self.calibration_s.append(calibrate())
        start = time.perf_counter()
        if profiler is not None:
            profiler.enable()
        try:
            yield
        finally:
            if profiler is not None:
                profiler.disable()
            self.seconds[name] = self.seconds.get(name, 0.0) + time.perf_counter() - start
            if name == "import":
                self.import_done_at = time.time()
            elif calibrating:
                self.calibration_s.append(calibrate())


def digest(outputs: Mapping) -> str:
    """SHA-256 of the outputs; JSON writes floats with ``repr``."""
    text = json.dumps(outputs, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def _da_policy(ratios: Dict[int, float]):
    from repro.core.policies import SchedulingPolicy

    return SchedulingPolicy.differential_approximation(ratios)


def _graduated_ratios(priorities) -> Dict[int, float]:
    """0 % dropping for the highest class up to 20 % for the lowest (the CLI default)."""
    ordered = sorted(priorities, reverse=True)
    if len(ordered) == 1:
        return {ordered[0]: 0.0}
    step = 0.2 / (len(ordered) - 1)
    return {p: round(i * step, 3) for i, p in enumerate(ordered)}


def _result_outputs(result) -> Dict:
    """Digest inputs shared by fleet, DAG and single-cluster results."""
    classes = []
    for priority in sorted(result.priorities(), reverse=True):
        metrics = result.class_metrics(priority)
        response = metrics.response_time
        classes.append([
            priority, metrics.job_count, response.mean, response.p50,
            response.p95, response.p99, metrics.accuracy_loss_mean,
        ])
    return {
        "classes": classes,
        "energy_j": result.total_energy_joules,
        "duration_s": result.duration,
        "evictions": result.evictions,
        "waste": result.resource_waste,
        "sprinted_s": result.sprinted_seconds,
    }


def _count_problems(label: str, completed: int, attempted: int, classes) -> List[str]:
    problems = []
    if completed != attempted:
        problems.append(f"{label}: completed {completed} of {attempted} jobs")
    counted = sum(row[1] for row in classes)
    if counted != attempted:
        problems.append(f"{label}: class counts sum to {counted}, not {attempted}")
    return problems


def _fleet_report(result) -> None:
    """The rows ``repro fleet`` prints (built inside the timed region)."""
    result.class_rows()
    result.cluster_rows()
    result.summary()


# ---------------------------------------------------------------------------
# fleet-jsq: `repro fleet --clusters 4 --router jsq` on a batch trace
# ---------------------------------------------------------------------------
def fleet_jsq(seed: int, size: Mapping, phases: Phases, inputs: Mapping) -> Outcome:
    with phases("import"):
        from repro.fleet.simulation import FleetSimulation
        from repro.workloads.scenarios import fleet_two_priority_scenario
    with phases("gen"):
        scenario = fleet_two_priority_scenario(
            num_clusters=size["clusters"], num_jobs_per_cluster=size["jobs_per_cluster"]
        )
        trace = scenario.generate_trace(seed=seed)
    with phases("build"):
        simulation = FleetSimulation(
            policy=_da_policy(_graduated_ratios(scenario.priorities)),
            jobs=trace,
            clusters=scenario.make_clusters(),
            dispatcher="jsq",
            seed=seed,
        )
    with phases("run"):
        result = simulation.run()
        _fleet_report(result)
    outputs = _result_outputs(result)
    outputs["dispatch_counts"] = list(result.dispatch_counts)
    attempted = len(trace)
    problems = _count_problems("fleet", result.completed_jobs, attempted, outputs["classes"])
    if sum(result.dispatch_counts) != attempted:
        problems.append(
            f"fleet: dispatch counts sum to {sum(result.dispatch_counts)}, "
            f"not the {attempted} jobs routed"
        )
    return Outcome(attempted, result.completed_jobs, outputs, problems,
                   counters=_kernel_counters(simulation))


# ---------------------------------------------------------------------------
# dag-cpfirst: `repro dag --scheduler critical_path_first`
# ---------------------------------------------------------------------------
def dag_cpfirst(seed: int, size: Mapping, phases: Phases, inputs: Mapping) -> Outcome:
    with phases("import"):
        from repro.dag.simulation import DagSimulation
        from repro.workloads.scenarios import HIGH, LOW, dag_layered_scenario
    with phases("gen"):
        scenario = dag_layered_scenario(num_jobs=size["jobs"])
        trace = scenario.generate_trace(seed=seed)
    with phases("build"):
        simulation = DagSimulation(
            policy=_da_policy({HIGH: 0.0, LOW: 0.2}),
            jobs=trace,
            scheduler="critical_path_first",
            cluster=scenario.cluster,
            seed=seed,
        )
    with phases("run"):
        result = simulation.run()
        # The summary rows `repro dag` prints.
        for priority in result.priorities():
            result.class_metrics(priority)
            result.mean_makespan(priority)
        result.mean_makespan()
        result.mean_critical_path_stretch()
        result.mean_response_time()
        result.tail_response_time()
    outputs = _result_outputs(result)
    outputs["mean_makespan_s"] = result.mean_makespan()
    outputs["mean_cp_stretch"] = result.mean_critical_path_stretch()
    attempted = len(trace)
    problems = _count_problems("dag", result.completed_jobs, attempted, outputs["classes"])
    return Outcome(attempted, result.completed_jobs, outputs, problems,
                   counters=_kernel_counters(simulation))


# ---------------------------------------------------------------------------
# replay-stream: `repro synth-trace --mix google` + `repro fleet --replay`
# ---------------------------------------------------------------------------
def prepare_replay(seed: int, size: Mapping, workdir: str) -> Dict[str, str]:
    """Synthesize the replayed trace once per invocation (the ``gen`` phase)."""
    from repro.traces import synthesize_trace
    from repro.traces.synth import compact_profiles
    from repro.workloads.traces import google_mix_scenario

    path = os.path.join(workdir, f"replay-seed{seed}-{size['jobs']}x{size['tasks']}.jsonl")
    scenario = compact_profiles(google_mix_scenario(num_classes=3), size["tasks"])
    synthesize_trace(path, scenario, size["jobs"], seed=seed)
    return {"trace": path}


def replay_stream(seed: int, size: Mapping, phases: Phases, inputs: Mapping) -> Outcome:
    with phases("import"):
        from repro.fleet.simulation import FleetSimulation
        from repro.traces.replay import ReplaySource
    with phases("build"):
        source = ReplaySource(inputs["trace"], mode="fleet")
        shares = source.class_shares()
        simulation = FleetSimulation(
            policy=_da_policy(_graduated_ratios(shares)),
            jobs=(),
            num_clusters=size["clusters"],
            dispatcher="jsq",
            seed=seed,
            job_source=source,
            streaming_metrics=True,
            traffic_shares=shares,
        )
    with phases("run"):
        result = simulation.run()
        _fleet_report(result)
    outputs = _result_outputs(result)
    outputs["dispatch_counts"] = list(result.dispatch_counts)
    attempted = size["jobs"]
    ingested = source.jobs_ingested
    problems = _count_problems("replay", result.completed_jobs, attempted, outputs["classes"])
    if not ingested == source.expected_jobs == attempted:
        problems.append(
            f"replay: ingested {ingested} jobs, header declares "
            f"{source.expected_jobs}, trace was written with {attempted}"
        )
    if sum(result.dispatch_counts) != ingested:
        problems.append(
            f"replay: dispatch counts sum to {sum(result.dispatch_counts)}, "
            f"not the {ingested} jobs ingested"
        )
    return Outcome(attempted, result.completed_jobs, outputs, problems,
                   counters={**_kernel_counters(simulation), "traces.jobs_ingested": ingested})


# ---------------------------------------------------------------------------
# fig11-traced: `repro figure 11` (P, DiAS(0/10), DiAS(0/20)) with span tracing
# ---------------------------------------------------------------------------
def fig11_traced(seed: int, size: Mapping, phases: Phases, inputs: Mapping) -> Outcome:
    with phases("import"):
        from repro.core.dias import DiASSimulation
        from repro.engine.cluster import Cluster
        from repro.experiments.figures import dias_policies, limited_sprint_config
        from repro.experiments.harness import PolicyComparison
        from repro.telemetry import TelemetryHub, Tracer
        from repro.telemetry.spans import check_trace, decompose
        from repro.workloads.scenarios import triangle_count_scenario
    with phases("gen"):
        scenario = triangle_count_scenario(size["jobs"])
        trace = scenario.generate_trace(seed=seed)
    with phases("build"):
        template = scenario.cluster
        runs = []
        for policy in dias_policies(limited_sprint_config()):
            hub = TelemetryHub(tracing=True)
            tracer = hub.add_sink(Tracer())
            cluster = Cluster(
                config=template.config, dvfs=template.dvfs, power_model=template.power_model
            )
            simulation = DiASSimulation(
                policy=policy, jobs=trace, cluster=cluster, seed=seed, telemetry=hub
            )
            runs.append((policy.name, simulation, tracer))
    with phases("run"):
        results = {name: simulation.run() for name, simulation, _ in runs}
        PolicyComparison(
            scenario_name=scenario.name,
            baseline_name="P",
            results=results,
            priorities=scenario.priorities,
        ).to_rows()
    outputs: Dict[str, Dict] = {}
    problems: List[str] = []
    spans = completed = 0
    for name, _, tracer in runs:
        result = results[name]
        outputs[name] = _result_outputs(result)
        completed += result.completed_jobs
        problems += _count_problems(name, result.completed_jobs, len(trace),
                                    outputs[name]["classes"])
        spans += len(tracer.spans)
        traces = tracer.traces()
        if len(traces) != len(trace):
            problems.append(f"{name}: {len(traces)} job traces for {len(trace)} jobs")
        for job_trace in traces:
            problems += [f"{name}: {p}" for p in check_trace(job_trace)]
            residual = decompose(job_trace)["residual"]
            if abs(residual) > CLOSURE_EPSILON:
                problems.append(
                    f"{name}: job {job_trace.job_id} decomposition misses "
                    f"its response time by {residual!r}"
                )
    kernels = _kernel_counters(*(simulation for _, simulation, _ in runs))
    return Outcome(len(runs) * len(trace), completed, outputs, problems,
                   counters={**kernels, "telemetry.spans": spans})


# ---------------------------------------------------------------------------
# learn-sched: `repro learn --env scheduling --agent linucb`
# ---------------------------------------------------------------------------
def learn_sched(seed: int, size: Mapping, phases: Phases, inputs: Mapping) -> Outcome:
    with phases("import"):
        from repro.env import EnvSpec, LinUCBAgent, train
        from repro.workloads.scenarios import HIGH, LOW
    with phases("build"):
        spec = EnvSpec(
            "scheduling", _da_policy({HIGH: 0.0, LOW: 0.2}),
            scenario="layered", num_jobs=size["jobs"],
        )
        agent = LinUCBAgent(seed=seed)
    with phases("run"):
        history = train(spec, agent, episodes=size["episodes"], base_seed=seed)
    attempted = size["episodes"] * size["jobs"]
    completed = int(sum(row["completed_jobs"] for row in history))
    problems = []
    if completed != attempted:
        problems.append(f"learn: completed {completed} of {attempted} jobs")
    if len(history) != size["episodes"]:
        problems.append(f"learn: {len(history)} history rows for {size['episodes']} episodes")
    decisions = int(sum(row["decisions"] for row in history))
    if decisions <= 0:
        problems.append("learn: the agent made no decisions")
    return Outcome(attempted, completed, {"history": history}, problems,
                   counters={"env.decisions": decisions})


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    run: Callable[[int, Mapping, Phases, Mapping], Outcome]
    #: Benchmark size and the tiny size the smoke test uses.
    size: Mapping
    tiny: Mapping
    #: Jobs one cycle attempts at a size (a crashed child fails them all).
    jobs: Callable[[Mapping], int]
    #: Once-per-invocation input generation: (seed, size, workdir) -> inputs.
    prepare: Optional[Callable[[int, Mapping, str], Dict[str, str]]] = None


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            "fleet-jsq",
            "repro fleet surface: per-task execution and the kernel dominate; DAG code never runs",
            fleet_jsq,
            size={"clusters": 4, "jobs_per_cluster": 400},
            tiny={"clusters": 2, "jobs_per_cluster": 15},
            jobs=lambda s: s["clusters"] * s["jobs_per_cluster"],
        ),
        Workload(
            "dag-cpfirst",
            "repro dag surface: DAG slot filling dominates; engine execution and fleet are bypassed",
            dag_cpfirst,
            size={"jobs": 200},
            tiny={"jobs": 8},
            jobs=lambda s: s["jobs"],
        ),
        Workload(
            "replay-stream",
            "fleet --replay surface: tiny jobs, so per-job ingest, streaming metrics and routing dominate",
            replay_stream,
            size={"jobs": 3000, "tasks": 4, "clusters": 2},
            tiny={"jobs": 60, "tasks": 4, "clusters": 2},
            jobs=lambda s: s["jobs"],
            prepare=prepare_replay,
        ),
        Workload(
            "fig11-traced",
            "compare surface: the only eviction, sprint, set_speed and span-tracing workload",
            fig11_traced,
            size={"jobs": 100},
            tiny={"jobs": 10},
            jobs=lambda s: 3 * s["jobs"],
        ),
        Workload(
            "learn-sched",
            "repro learn surface: the DAG layer through the decision hook with env features and numpy",
            learn_sched,
            size={"jobs": 30, "episodes": 2},
            tiny={"jobs": 4, "episodes": 2},
            jobs=lambda s: s["jobs"] * s["episodes"],
        ),
    )
}
