"""Multi-cluster DiAS simulation on one shared DES kernel.

A :class:`FleetSimulation` embeds ``N`` independent
:class:`~repro.core.dias.DiASSimulation` controllers — each with its own
cluster, priority buffers, dropper, sprinter and energy meter — in a single
:class:`~repro.simulation.des.Simulator`.  Arriving jobs are routed to one
cluster by a pluggable :class:`~repro.fleet.dispatcher.Dispatcher`, and the
sprint budget can either stay per-cluster or be pooled fleet-wide through a
:class:`~repro.fleet.budget.SharedSprintBudget`.

Because every controller draws its randomness from the same
:class:`~repro.simulation.random_streams.RandomStreams` root under a
``fleet/cluster<i>/`` namespace, a fleet run is fully deterministic for a
given seed, independent of the routing policy being compared.
"""

from __future__ import annotations

import math
from operator import itemgetter
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Union

from repro.core.dias import DiASSimulation, DropRatioDecision
from repro.core.policies import SchedulingPolicy
from repro.engine.cluster import Cluster
from repro.engine.job import Job
from repro.faults.checkpoint import arrived_count
from repro.faults.spec import FaultSpec, parse_fault_spec
from repro.fleet.budget import SharedSprintBudget, build_budget_arbiter
from repro.fleet.dispatcher import Dispatcher, make_dispatcher
from repro.fleet.result import FleetResult
from repro.models.accuracy import AccuracyModel
from repro.simulation.decisions import ROUTE, DecisionHook, DecisionPoint
from repro.simulation.des import ArrivalPump, Simulator
from repro.simulation.metrics import JobRecord, MetricsCollector
from repro.simulation.random_streams import RandomStreams
from repro.telemetry import (
    NULL_HUB,
    LifecycleProbe,
    PeriodicSampler,
    TelemetryHub,
    kernel_sample_source,
)
from repro.telemetry.sampler import emit_sample

#: Sort key of held ``(cluster index, record)`` pairs.
_cluster_index = itemgetter(0)


class FleetSimulation:
    """Runs one scheduling policy on a fleet of clusters behind a dispatcher.

    Parameters
    ----------
    policy:
        The DiAS scheduling policy every cluster runs.
    jobs:
        The fleet-wide job trace (arrival-time ordered or not; it is sorted).
    job_source:
        Alternative to ``jobs``: a lazy, arrival-ordered iterable (e.g. a
        :class:`~repro.traces.replay.ReplaySource`) pulled one job at a time
        as the simulation advances — the whole trace is never materialised.
        Mutually exclusive with ``jobs`` and with checkpointing; pair it with
        ``streaming_metrics=True`` for constant-memory million-job replays.
    streaming_metrics:
        Collect metrics online (:class:`MetricsCollector` with
        ``streaming=True``, per cluster and fleet-wide) instead of retaining
        per-job records.
    traffic_shares:
        Per-priority traffic shares for dispatcher construction when the
        trace cannot be pre-scanned (streaming sources); typically the trace
        header's class shares.
    num_clusters:
        Fleet size; ignored when explicit ``clusters`` are given.
    dispatcher:
        A :class:`Dispatcher` instance or a router name understood by
        :func:`~repro.fleet.dispatcher.make_dispatcher` (``random``,
        ``round_robin``, ``jsq``, ``least_work_left``,
        ``priority_partitioned``).
    power_of_d:
        Optional JSQ(d) sample size when ``dispatcher`` is the name ``jsq``.
    clusters:
        Optional explicit cluster substrates, one per fleet member.
    sprint_budget:
        ``per-cluster`` (default), ``shared`` or ``none`` — see
        :func:`~repro.fleet.budget.build_budget_arbiter`.
    shared_budget_seconds:
        Optional override of the shared pool size (``sprint_budget="shared"``).
    """

    def __init__(
        self,
        policy: SchedulingPolicy,
        jobs: Sequence[Job],
        num_clusters: int = 2,
        dispatcher: Union[Dispatcher, str] = "round_robin",
        power_of_d: Optional[int] = None,
        clusters: Optional[Sequence[Cluster]] = None,
        accuracy_model: Optional[AccuracyModel] = None,
        streams: Optional[RandomStreams] = None,
        seed: int = 0,
        sprint_budget: str = "per-cluster",
        shared_budget_seconds: Optional[float] = None,
        drop_ratio_provider: Optional[
            Callable[[Job, float, MetricsCollector], DropRatioDecision]
        ] = None,
        telemetry: TelemetryHub = NULL_HUB,
        faults: Union[str, FaultSpec, None] = None,
        checkpoint_every: Optional[float] = None,
        checkpoint_path: Optional[str] = None,
        job_source: Optional[Iterable[Job]] = None,
        streaming_metrics: bool = False,
        traffic_shares: Optional[Dict[int, float]] = None,
        decision_hook: Optional[DecisionHook] = None,
    ) -> None:
        if job_source is not None:
            if jobs:
                raise ValueError("pass either jobs or job_source, not both")
            if checkpoint_every is not None or checkpoint_path is not None:
                raise ValueError(
                    "checkpointing needs the full trace up front; it is not "
                    "supported with a streaming job_source"
                )
        elif not jobs:
            raise ValueError("the fleet job trace must not be empty")
        if (checkpoint_every is None) != (checkpoint_path is None):
            raise ValueError(
                "checkpoint_every and checkpoint_path must be given together"
            )
        if checkpoint_every is not None and checkpoint_every <= 0:
            raise ValueError(
                f"checkpoint_every must be positive simulated seconds, got {checkpoint_every!r}"
            )
        if clusters is not None:
            clusters = list(clusters)
            num_clusters = len(clusters)
        if num_clusters < 1:
            raise ValueError("a fleet needs at least one cluster")

        self.policy = policy
        self.jobs = sorted(jobs, key=lambda j: j.arrival_time)
        self.job_source = job_source
        # Completions that drain the fleet: the trace length, or unknown
        # (infinite) until a streaming source runs dry.
        self._drain_target: float = math.inf if job_source is not None else len(self.jobs)
        self.streams = streams or RandomStreams(seed)
        #: Optional external agent consulted at every routing decision;
        #: ``None`` keeps the built-in dispatcher path untouched.  Not
        #: embedded in checkpoint configs (hooks are attached per process).
        self._decision_hook = decision_hook
        self.telemetry = telemetry
        self.sim = Simulator(telemetry=telemetry)
        self.probe = LifecycleProbe(telemetry, "fleet", self.sim)
        self.budget_mode = sprint_budget
        self.fault_spec = parse_fault_spec(faults)
        # Graceful degradation only matters when servers actually crash.
        self._quarantine = (
            self.fault_spec is not None and self.fault_spec.crash is not None
        )
        self.checkpoint_every = checkpoint_every
        self.checkpoint_path = checkpoint_path
        #: Optional run configuration embedded in every snapshot so a fresh
        #: process can rebuild an identical simulation from the file alone.
        self.checkpoint_config: Optional[dict] = None
        self._next_checkpoint_at: Optional[float] = checkpoint_every
        self._checkpoint_armed = False
        #: Jobs handed to a controller so far (drives the quiescence check).
        self._routed = 0
        #: Set by checkpoint restore: the snapshot's simulated time.
        self._resume_time: Optional[float] = None
        self.quarantine_redirects = 0

        if isinstance(dispatcher, str):
            # Traffic shares drive the balanced priority partition: classes
            # with more jobs in the trace receive more clusters.  A streaming
            # source cannot be pre-scanned, so its shares come from the trace
            # header via ``traffic_shares``.
            traffic: dict = {}
            if self.job_source is not None:
                traffic = {
                    int(p): float(s) for p, s in (traffic_shares or {}).items()
                }
            else:
                for job in self.jobs:
                    traffic[job.priority] = traffic.get(job.priority, 0) + 1
            dispatcher = make_dispatcher(
                dispatcher,
                rng=self.streams.stream("fleet/dispatcher"),
                power_of_d=power_of_d,
                priorities=sorted(traffic, reverse=True),
                priority_weights={p: float(c) for p, c in traffic.items()},
                num_clusters=num_clusters,
            )
        self.dispatcher = dispatcher

        #: Fleet-wide online collector fed by every controller as jobs finish
        #: (``None`` in batch mode, where FleetResult re-aggregates records).
        self.shared_metrics: Optional[MetricsCollector] = (
            MetricsCollector(streaming=True) if streaming_metrics else None
        )
        self.controllers: List[DiASSimulation] = []
        for index in range(num_clusters):
            cluster = clusters[index] if clusters is not None else Cluster()
            self.controllers.append(
                DiASSimulation(
                    policy=policy,
                    jobs=(),
                    cluster=cluster,
                    accuracy_model=accuracy_model,
                    streams=self.streams,
                    simulator=self.sim,
                    stream_namespace=f"fleet/cluster{index}/",
                    drop_ratio_provider=drop_ratio_provider,
                    telemetry=telemetry,
                    metrics=MetricsCollector(streaming=True) if streaming_metrics else None,
                    faults=self.fault_spec,
                )
            )
        #: ``(cluster index, record)`` of the jobs that finished at the
        #: current instant, fed to :attr:`shared_metrics` in cluster order
        #: once the clock moves (see :meth:`_hold_record`).
        self._held_records: List[tuple] = []
        if self.shared_metrics is not None:
            for index, controller in enumerate(self.controllers):
                controller.on_job_record = self._record_holder(index)

        sprinters = [c.sprinter for c in self.controllers if c.sprinter is not None]
        self.budget_pool: Optional[SharedSprintBudget] = build_budget_arbiter(
            sprint_budget, self.sim, sprinters, shared_budget_seconds
        )
        if self.budget_pool is not None:
            self.budget_pool.telemetry = telemetry

        self.dispatch_counts = [0] * num_clusters
        self._ran = False

    # -------------------------------------------------------------- topology
    @property
    def num_clusters(self) -> int:
        return len(self.controllers)

    # --------------------------------------------------------------- running
    def run(self, until: Optional[float] = None) -> FleetResult:
        """Route and process the whole trace; aggregate per-cluster results."""
        if self._ran:
            raise RuntimeError("a FleetSimulation can only be run once")
        self._ran = True
        cutoff = self._resume_time
        if self.job_source is not None:
            ArrivalPump(
                self.sim, self.job_source, self._route, self._source_exhausted
            ).start()
        else:
            for job in self.jobs:
                if cutoff is not None and job.arrival_time <= cutoff:
                    continue
                self.sim.schedule_at(
                    job.arrival_time, self._make_routing_callback(job), priority=0
                )
        if cutoff is None:
            # A restore already re-scheduled the pending crash/repair
            # transitions; a fresh run starts every injector here.
            for controller in self.controllers:
                if controller.faults is not None:
                    controller.faults.start()
        completion_hooks: List[Callable[[], None]] = []
        telemetry = self.telemetry
        kernel = None
        if telemetry.enabled:
            telemetry.emit(
                "run_start",
                self.sim.now,
                src="fleet",
                run="fleet",
                policy=self.policy.name,
                dispatcher=self.dispatcher.name,
                clusters=self.num_clusters,
                budget=self.budget_mode,
            )
            if telemetry.sample_interval is not None:
                sources = [(c.telemetry_src, c.telemetry_rows) for c in self.controllers]
                sources.append(("fleet", self._telemetry_rows))
                kernel = kernel_sample_source(self.sim)
                PeriodicSampler(
                    self.sim,
                    telemetry,
                    telemetry.sample_interval,
                    sources=sources,
                    should_continue=lambda: not self._drained(),
                ).start()
        if self.fault_spec is not None and self.fault_spec.crash is not None:
            # Cancel every injector's open-ended crash/repair renewal process
            # once the fleet workload has drained, so the heap can empty.
            def _stop_injectors_when_drained() -> None:
                if self._drained():
                    for controller in self.controllers:
                        controller.faults.stop()

            completion_hooks.append(_stop_injectors_when_drained)
        if self.checkpoint_every is not None:
            completion_hooks.append(self._maybe_checkpoint)
        if completion_hooks:
            if len(completion_hooks) == 1:
                hook = completion_hooks[0]
            else:
                def hook() -> None:
                    for one in completion_hooks:
                        one()

            for controller in self.controllers:
                controller.on_job_complete = hook
        if cutoff is not None and self._completed_jobs() >= len(self.jobs):
            # Resumed from a snapshot taken after the workload drained: no
            # completion event will ever fire the drain hooks, so stop the
            # injectors here or the crash/repair renewal process keeps the
            # event heap non-empty forever.
            for controller in self.controllers:
                if controller.faults is not None:
                    controller.faults.stop()
        self.sim.run(until=until)
        if telemetry.enabled:
            if kernel is not None:
                # The kernel's totals, once per run (see the sampler module).
                emit_sample(telemetry, self.sim.now, "kernel", kernel())
            telemetry.emit(
                "run_end",
                self.sim.now,
                src="fleet",
                completed=self._completed_jobs(),
                duration=self.sim.now,
            )
        results = [controller.finalize() for controller in self.controllers]
        if self.shared_metrics is not None:
            self._flush_records()
            self.shared_metrics.set_observation_time(self.sim.now)
        return FleetResult(
            policy_name=self.policy.name,
            dispatcher_name=self.dispatcher.name,
            cluster_results=results,
            duration=self.sim.now,
            dispatch_counts=list(self.dispatch_counts),
            budget_mode=self.budget_mode,
            shared_metrics=self.shared_metrics,
        )

    # --------------------------------------------------------------- metrics
    def _record_holder(self, index: int) -> Callable[[JobRecord], None]:
        def hold(record: JobRecord) -> None:
            self._hold_record(index, record)

        return hold

    def _hold_record(self, index: int, record: JobRecord) -> None:
        """Queue a finished job's record for the fleet-wide collector.

        Jobs on different clusters that finish at the same instant complete
        in kernel-sequence order, which depends on how many events each
        attempt used.  A streaming collector is order-sensitive (its P²
        quantiles), so records of one instant go in by cluster index, and
        in completion order within a cluster.  The collector is read only
        after the run, which flushes the last instant.
        """
        held = self._held_records
        if held and held[0][1].completion_time != record.completion_time:
            self._flush_records()
        held.append((index, record))

    def _flush_records(self) -> None:
        held = self._held_records
        if len(held) > 1:
            held.sort(key=_cluster_index)
        record_job = self.shared_metrics.record_job
        for _index, record in held:
            record_job(record)
        held.clear()

    # ------------------------------------------------------------- telemetry
    def _completed_jobs(self) -> int:
        return sum(c.completed_jobs for c in self.controllers)

    def _drained(self) -> bool:
        """End-of-workload: every job of the trace has completed."""
        return self._completed_jobs() >= self._drain_target

    def _source_exhausted(self, total: int) -> None:
        self._drain_target = total

    def fault_counters(self) -> dict:
        """Fleet-wide fault/recovery counters summed over all injectors."""
        totals: dict = {}
        for controller in self.controllers:
            if controller.faults is None:
                continue
            for name, value in controller.faults.counters.items():
                totals[name] = totals.get(name, 0) + value
        if self._quarantine:
            totals["quarantine_redirects"] = self.quarantine_redirects
        return totals

    # ------------------------------------------------------------ checkpoint
    def _quiescent(self) -> bool:
        """True when no job is buffered, running, or routed-but-unfinished.

        The routed-vs-arrived comparison also rejects the edge where an
        arrival event at exactly the current timestamp is still in the heap:
        it would count as arrived but not yet as routed.
        """
        if self._completed_jobs() != self._routed:
            return False
        return arrived_count(self.jobs, self.sim.now) == self._routed

    def _maybe_checkpoint(self) -> None:
        """Arm a snapshot at the first quiescent point past each mark.

        The write itself is deferred to a zero-delay priority-4 event: this
        completion hook runs *inside* the completing controller's event,
        before the controller has settled (its energy meter only flips to
        idle after the hook returns), so snapshotting here would capture
        mid-event state and break bitwise resume.  The deferred event is
        observation-only — it mutates no simulation state — so checkpointed
        runs stay bitwise-identical to unchecked ones.
        """
        now = self.sim.now
        if self._next_checkpoint_at is None or now < self._next_checkpoint_at:
            return
        if self._checkpoint_armed or not self._quiescent():
            return
        self._checkpoint_armed = True
        self.sim.schedule(0.0, self._write_checkpoint, priority=4)

    def _write_checkpoint(self, _sim: Simulator) -> None:
        self._checkpoint_armed = False
        now = self.sim.now
        if self._next_checkpoint_at is None or now < self._next_checkpoint_at:
            return
        if not self._quiescent():
            # A same-timestamp event broke quiescence between the hook and
            # this snapshot; the next qualifying completion re-arms it.
            return
        from repro.faults.checkpoint import fleet_state, save_checkpoint

        save_checkpoint(
            self.checkpoint_path, fleet_state(self, config=self.checkpoint_config)
        )
        if self.telemetry.enabled:
            self.telemetry.emit(
                "fault.checkpoint",
                now,
                src="fleet",
                path=self.checkpoint_path,
                completed=self._completed_jobs(),
            )
        self._next_checkpoint_at = now + self.checkpoint_every

    def restore(self, payload: dict) -> None:
        """Restore a checkpoint produced by an identically-configured run.

        Must be called before :meth:`run`; the subsequent run replays only
        the remainder of the trace and produces metrics bitwise-identical to
        an uninterrupted run.
        """
        if self.job_source is not None:
            raise ValueError(
                "checkpoint restore is not supported with a streaming job_source"
            )
        from repro.faults.checkpoint import restore_fleet

        restore_fleet(self, payload)

    def _telemetry_rows(self, times: Sequence[float]) -> List[dict]:
        """Fleet-level aggregates complementing the per-cluster samples, at
        each of ``times`` with no event in between."""
        controllers = self.controllers
        queue_depth = float(sum(c.queue_length for c in controllers))
        completed = float(self._completed_jobs())
        utilisation = (
            sum(1.0 for c in controllers if c._running is not None) / self.num_clusters
        )
        return [
            {
                "queue_depth": queue_depth,
                "work_left": sum(c.work_left(now) for c in controllers),
                "completed_jobs": completed,
                "utilisation": utilisation,
                "t": now,
            }
            for now in times
        ]

    # ---------------------------------------------------------------- events
    def _make_routing_callback(self, job: Job):
        def _callback(_sim: Simulator) -> None:
            self._route(job)

        return _callback

    def _quarantine_redirect(self, chosen: int) -> int:
        """Graceful degradation: route around impaired/probationary clusters.

        The dispatcher's choice stands when its cluster is healthy (so fault
        injection perturbs neither the dispatcher's draw sequence nor its
        load queries); otherwise the job goes to the next eligible cluster in
        index order.  If every cluster is quarantined the original choice
        stands — queueing on a down cluster beats dropping the job.
        """
        now = self.sim.now
        for offset in range(self.num_clusters):
            candidate = (chosen + offset) % self.num_clusters
            injector = self.controllers[candidate].faults
            if injector is None or injector.eligible(now):
                return candidate
        return chosen

    def _route(self, job: Job) -> None:
        hook = self._decision_hook
        if hook is None:
            index = self.dispatcher.select(job, self.controllers)
        else:
            index = hook(
                DecisionPoint(ROUTE, self.sim.now, self.controllers, job, self)
            )
        if not 0 <= index < self.num_clusters:
            chooser = (
                "decision hook"
                if hook is not None
                else f"dispatcher {self.dispatcher.name!r}"
            )
            raise ValueError(
                f"{chooser} returned invalid cluster "
                f"index {index} for a fleet of {self.num_clusters}"
            )
        chosen = index
        if self._quarantine:
            index = self._quarantine_redirect(chosen)
            if index != chosen:
                self.quarantine_redirects += 1
        self._routed += 1
        self.dispatch_counts[index] += 1
        self.probe.routed(job, index, chosen)
        self.controllers[index].submit(job)


def replicate_fleet(
    scenario,
    policy: SchedulingPolicy,
    replications: int,
    dispatcher: Union[Dispatcher, str] = "round_robin",
    power_of_d: Optional[int] = None,
    sprint_budget: str = "per-cluster",
    base_seed: int = 0,
    jobs: int = 1,
    telemetry_base: Optional[str] = None,
    telemetry_interval: Optional[float] = None,
    faults: Union[str, FaultSpec, None] = None,
    decision_hook: Optional[DecisionHook] = None,
):
    """Replicate one fleet configuration over independent seeds.

    Each replication regenerates the scenario trace from its
    :func:`~repro.simulation.replication.replication_seed` and runs a fresh
    :class:`FleetSimulation`, collecting the headline fleet metrics
    (:meth:`~repro.fleet.result.FleetResult.summary`).  ``jobs`` fans the
    replications across worker processes with metrics bitwise-identical to a
    serial run.  ``telemetry_base`` writes each replication's telemetry to a
    per-seed part file and merges the parts, in replication order, into one
    JSONL file at that path.  Returns ``{metric_name: ReplicatedMetric}``.
    """
    from repro.experiments.parallel import FleetExperiment, merge_replication_parts
    from repro.simulation.replication import ReplicationRunner

    experiment = FleetExperiment(
        scenario=scenario,
        policy=policy,
        dispatcher=dispatcher,
        power_of_d=power_of_d,
        sprint_budget=sprint_budget,
        telemetry_base=telemetry_base,
        telemetry_interval=telemetry_interval,
        faults=parse_fault_spec(faults),
        decision_hook=decision_hook,
    )
    metrics = ReplicationRunner(experiment).run(
        replications, base_seed=base_seed, jobs=jobs
    )
    merge_replication_parts(telemetry_base, base_seed, replications)
    return metrics


def run_fleet(
    policy: SchedulingPolicy,
    jobs: Sequence[Job],
    num_clusters: int,
    dispatcher: Union[Dispatcher, str] = "round_robin",
    seed: int = 0,
    **kwargs,
) -> FleetResult:
    """Convenience wrapper: build a :class:`FleetSimulation` and run it."""
    simulation = FleetSimulation(
        policy=policy,
        jobs=jobs,
        num_clusters=num_clusters,
        dispatcher=dispatcher,
        seed=seed,
        **kwargs,
    )
    return simulation.run()
