"""The DiAS controller (§3.2, §3.3) and the end-to-end simulation driver.

The controller reproduces the prototype's state machine:

* arriving jobs are placed in the buffer of their priority class;
* whenever the processing engine is free, the head of the highest non-empty
  buffer is dispatched with its class's approximation level (the dropper
  selects the surviving tasks, mirroring the ``findMissingPartitions``
  modification);
* under a **preemptive** policy a higher-priority arrival evicts the job in
  execution — the work done so far is wasted and the job returns to the head
  of its buffer to be re-run from scratch (the prototype's SIGKILL path);
* under DiAS (non-preemptive), the job in execution always finishes; if
  sprinting is enabled, the sprinter boosts the CPU frequency after the
  class's timeout, subject to the sprint budget;
* the energy meter charges every interval at the idle/busy/sprint power.

:class:`DiASSimulation` wires these pieces to the engine substrate and runs a
whole job trace, returning a :class:`SimulationResult` with the metrics the
paper reports (mean/tail latency per class, queueing/execution decomposition,
resource waste, energy, accuracy loss).

The controller is the one DiAS mechanism in the code base.  The DAG
controller (:class:`~repro.dag.simulation.DagSimulation`) subclasses it and
replaces only the policy-shaped pieces: how a job's drop plan is made
(:meth:`DiASSimulation._plan_drops`), which execution runs it
(:meth:`DiASSimulation._make_execution`), the ``run_start`` fields and the
result type.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any, Callable, Dict, List, Optional, Sequence, Tuple, Union

from repro.core.buffers import PriorityBuffers
from repro.core.dropper import DropPlan, TaskDropper
from repro.core.policies import SchedulingPolicy
from repro.core.sprinter import Sprinter
from repro.engine.cluster import Cluster
from repro.faults.injector import FaultInjector
from repro.faults.spec import FaultSpec, parse_fault_spec
from repro.engine.energy import EnergyMeter
from repro.engine.execution import Execution, JobExecution, build_phases
from repro.engine.job import Job
from repro.models.accuracy import AccuracyModel
from repro.simulation.des import Simulator
from repro.simulation.metrics import ClassMetrics, JobRecord, MetricsCollector
from repro.simulation.random_streams import RandomStreams
from repro.telemetry import (
    NULL_HUB,
    LifecycleProbe,
    PeriodicSampler,
    TelemetryHub,
    kernel_sample_source,
)
from repro.telemetry.sampler import emit_sample


class DuplicateJobError(ValueError):
    """A job arrived while another job with the same id was still in flight."""

    def __init__(self, job_id: int, arrival_time: float) -> None:
        super().__init__(
            f"job id {job_id} arrived at t={arrival_time!r} while a job with "
            "the same id is still in flight; job ids must be unique among "
            "unfinished jobs"
        )
        self.job_id = job_id
        self.arrival_time = arrival_time


@dataclass(frozen=True)
class DropRatioDecision:
    """Per-dispatch drop ratios returned by an online drop-ratio provider."""

    map_drop_ratio: float
    reduce_drop_ratio: float = 0.0

    def __post_init__(self) -> None:
        for value in (self.map_drop_ratio, self.reduce_drop_ratio):
            if not 0.0 <= value < 1.0:
                raise ValueError(f"drop ratios must be in [0, 1), got {value!r}")


@dataclass
class SimulationResult:
    """Everything measured during one simulated run of one policy."""

    policy_name: str
    metrics: MetricsCollector
    duration: float
    completed_jobs: int
    total_energy_joules: float
    sprinted_seconds: float
    evictions: int
    idle_energy_joules: float = 0.0
    busy_energy_joules: float = 0.0
    sprint_energy_joules: float = 0.0
    #: Fault-injection counters (empty when the run injected no faults).
    fault_counts: Dict[str, int] = field(default_factory=dict)

    # ------------------------------------------------------------ accessors
    @property
    def total_energy_kilojoules(self) -> float:
        return self.total_energy_joules / 1000.0

    @property
    def active_energy_joules(self) -> float:
        """Energy spent while actually processing (busy + sprint, no idle)."""
        return self.busy_energy_joules + self.sprint_energy_joules

    @property
    def active_energy_kilojoules(self) -> float:
        return self.active_energy_joules / 1000.0

    def priorities(self) -> List[int]:
        return self.metrics.priorities()

    def class_metrics(self, priority: int) -> ClassMetrics:
        return self.metrics.class_metrics(priority)

    def mean_response_time(self, priority: Optional[int] = None) -> float:
        return self.metrics.mean_response_time(priority)

    def tail_response_time(self, priority: Optional[int] = None, q: float = 95.0) -> float:
        return self.metrics.tail_response_time(priority, q)

    def mean_queueing_time(self, priority: int) -> float:
        return self.class_metrics(priority).queueing_time.mean

    def mean_execution_time(self, priority: int) -> float:
        return self.class_metrics(priority).execution_time.mean

    def mean_accuracy_loss(self, priority: int) -> float:
        return self.class_metrics(priority).accuracy_loss_mean

    @property
    def resource_waste(self) -> float:
        """Fraction of machine time spent re-processing evicted jobs."""
        return self.metrics.resource_waste_fraction()

    @property
    def utilisation(self) -> float:
        return self.metrics.utilisation()

    def relative_difference(
        self, baseline: "SimulationResult", priority: int, metric: str = "mean"
    ) -> float:
        """Relative latency difference vs ``baseline`` in percent (Fig. 7–11).

        Negative values mean this policy is *faster* than the baseline.
        """
        if metric == "mean":
            ours = self.mean_response_time(priority)
            theirs = baseline.mean_response_time(priority)
        elif metric == "tail":
            ours = self.tail_response_time(priority)
            theirs = baseline.tail_response_time(priority)
        else:
            raise ValueError("metric must be 'mean' or 'tail'")
        if theirs == 0:
            return float("nan")
        return 100.0 * (ours - theirs) / theirs


class DiASSimulation:
    """Simulates one scheduling policy over a fixed job trace.

    The controller can run standalone (it then owns its own DES kernel and
    drives the whole trace via :meth:`run`) or be *embedded*, e.g. as one
    cluster of a :class:`~repro.fleet.simulation.FleetSimulation`: pass an
    external ``simulator`` plus a ``stream_namespace`` so several controllers
    can share one kernel and one root seed while drawing independent random
    streams, feed jobs with :meth:`submit`, and collect the result with
    :meth:`finalize` once the shared kernel has drained.
    """

    #: Whether the controller keeps the backlog estimate behind
    #: :meth:`work_left` (least-work-left routing, the ``work_left`` sample
    #: field, checkpointed ``queued_work``).  Estimating a DAG job's service
    #: time needs a critical-path analysis per arrival, so the DAG controller
    #: turns it off.
    tracks_backlog = True

    def __init__(
        self,
        policy: SchedulingPolicy,
        jobs: Sequence[Job] = (),
        cluster: Optional[Cluster] = None,
        accuracy_model: Optional[AccuracyModel] = None,
        streams: Optional[RandomStreams] = None,
        seed: int = 0,
        drop_ratio_provider: Optional[
            Callable[[Job, float, MetricsCollector], "DropRatioDecision"]
        ] = None,
        simulator: Optional[Simulator] = None,
        stream_namespace: str = "",
        telemetry: TelemetryHub = NULL_HUB,
        metrics: Optional[MetricsCollector] = None,
        telemetry_src: Optional[str] = None,
        faults: Union[str, FaultSpec, None] = None,
    ) -> None:
        if not jobs and simulator is None:
            raise ValueError("the job trace must not be empty")
        self.policy = policy
        self.drop_ratio_provider = drop_ratio_provider
        self.jobs = sorted(jobs, key=lambda j: j.arrival_time)
        self.cluster = cluster or Cluster()
        self.accuracy_model = accuracy_model or AccuracyModel.paper_default()
        self.streams = streams or RandomStreams(seed)
        self.stream_namespace = stream_namespace
        self.telemetry = telemetry
        if telemetry_src is not None:
            self.telemetry_src = telemetry_src
        elif stream_namespace:
            # "fleet/cluster3/" -> "cluster3": label events by the embedding.
            self.telemetry_src = stream_namespace.strip("/").split("/")[-1]
        else:
            self.telemetry_src = "dias"

        self.sim = simulator if simulator is not None else Simulator(telemetry=telemetry)
        self.buffers = PriorityBuffers()
        self.dropper = TaskDropper(self.streams.stream(stream_namespace + "dropper"))
        self.metrics = metrics if metrics is not None else MetricsCollector()
        self.energy_meter = EnergyMeter(self.cluster.power_model, start_time=self.sim.now)
        self.sprinter: Optional[Sprinter] = None
        if policy.sprints:
            self.sprinter = Sprinter(
                self.sim,
                policy.sprint,
                on_sprint_start=self._on_sprint_start,
                on_sprint_end=self._on_sprint_end,
                on_sprint_denied=self._on_sprint_denied,
            )
        #: Reports every lifecycle transition as events and spans.
        self.probe = LifecycleProbe(telemetry, self.telemetry_src, self.sim, self.cluster)

        #: Optional fault injector; ``None`` keeps every hot path on the
        #: historical branch (fault injection is zero-cost when disabled).
        self.fault_spec = parse_fault_spec(faults)
        self.faults: Optional[FaultInjector] = None
        if self.fault_spec is not None:
            self.faults = FaultInjector(
                self.fault_spec,
                sim=self.sim,
                cluster=self.cluster,
                streams=self.streams,
                namespace=self.stream_namespace,
                telemetry=telemetry,
                telemetry_src=self.telemetry_src,
                on_crash=self._on_worker_crash,
                on_repair=self._on_worker_repair,
            )
        #: Set by checkpoint restore: arrivals at or before this simulated
        #: time are already accounted for and must not be re-scheduled.
        self._resume_time: Optional[float] = None

        self._running: Optional[Execution] = None
        self._running_plan: Optional[DropPlan] = None
        # Per-job bookkeeping across (possibly multiple, if evicted) attempts.
        self._job_state: Dict[int, Dict[str, float]] = {}
        self._completed = 0
        # Completions that drain a standalone run: the trace length, or
        # unknown (infinite) until a streaming source runs dry.  Embedded
        # controllers never drain on their own; the fleet tracks its workload.
        self._drain_target: float = len(self.jobs) if self.jobs else math.inf
        # Invoked after every completion; embedders (fleet, checkpointing)
        # use it to react to end-of-workload without polling.
        self.on_job_complete: Optional[Callable[[], None]] = None
        # Invoked with every finished JobRecord; embedders tee records into a
        # shared (streaming) collector without touching per-cluster metrics.
        self.on_job_record: Optional[Callable[[JobRecord], None]] = None
        self._total_evictions = 0
        # Backlog estimate for dispatcher load queries (kept up to date only
        # when ``tracks_backlog``); the start time serves the busy sample too.
        self._service_estimates: Dict[int, float] = {}
        self._queued_work = 0.0
        self._running_estimate = 0.0
        self._running_started_at = 0.0

    # ---------------------------------------------------------- load queries
    @property
    def queue_length(self) -> int:
        """Jobs currently held by this controller (buffered + in execution)."""
        return len(self.buffers) + (1 if self._running is not None else 0)

    @property
    def completed_jobs(self) -> int:
        """Jobs completed so far (drives sampler-termination predicates)."""
        return self._completed

    def telemetry_rows(self, times: Sequence[float]) -> List[Dict[str, float]]:
        """Read-only state snapshots at each of ``times``, published by
        periodic telemetry samplers (see
        :class:`~repro.telemetry.sampler.PeriodicSampler`).

        Valid while no event fires between now and the last of ``times``:
        the state is read once, and only the fields that move with the clock
        (``utilisation``, ``energy_joules``, ``work_left``) per time.  Must
        not mutate anything (notably: it reads the energy meter via
        :meth:`~repro.engine.energy.EnergyMeter.projected_joules_at`, never
        ``advance``) so that sampled runs produce bit-identical results to
        unsampled ones.  ``x if x > 0.0 else 0.0`` is ``max(0.0, x)`` bit for
        bit (zeros and NaN included) without a builtin call.
        """
        # The buffers keep the per-priority depth fields current, and integer
        # counters stay integers (the schema admits any number).  The clock
        # fields start as placeholders so that they keep their place in the
        # key order.
        meter = self.energy_meter
        buffers = self.buffers
        running = self._running is not None
        template: Dict[str, float] = {
            "utilisation": 0.0,
            "queue_depth": len(buffers),
            "running": 1.0 if running else 0.0,
            "completed_jobs": self._completed,
            "evictions": self._total_evictions,
            "energy_joules": 0.0,
            "power_mode": meter._mode,
        }
        tracks_backlog = self.tracks_backlog
        if tracks_backlog:
            template["work_left"] = 0.0
        template.update(buffers.depth_row)
        occupied = self.metrics.occupied_time
        started = self._running_started_at
        estimate = self._running_estimate
        queued = self._queued_work
        rows = []
        for now, energy in zip(times, meter.projected_joules_at(times)):
            row = template.copy()
            busy = occupied
            if running:
                elapsed = now - started
                busy += elapsed if elapsed > 0.0 else 0.0
                if tracks_backlog:
                    left = estimate - elapsed
                    row["work_left"] = queued + (left if left > 0.0 else 0.0)
            elif tracks_backlog:
                row["work_left"] = queued
            row["utilisation"] = (busy / now) if now > 0 else 0.0
            row["energy_joules"] = energy
            row["t"] = now
            rows.append(row)
        return rows

    def work_left(self, now: Optional[float] = None) -> float:
        """Estimated slot-seconds of service remaining (buffered + running).

        Buffered jobs count their wave-approximation service time under the
        policy's drop ratio; the running job counts its estimate minus the
        time it has been executing by ``now`` (default: the current simulated
        time).  Used by least-work-left routing.  Always 0 for controllers
        that do not track the backlog (``tracks_backlog = False``).
        """
        remaining = self._queued_work
        if self._running is not None:
            elapsed = (self.sim.now if now is None else now) - self._running_started_at
            remaining += max(0.0, self._running_estimate - elapsed)
        return remaining

    def _estimated_service_time(self, job: Job) -> float:
        estimate = self._service_estimates.get(job.job_id)
        if estimate is None:
            estimate = job.ideal_service_time(
                self.cluster.slots, self.policy.map_drop_ratio(job.priority)
            )
            self._service_estimates[job.job_id] = estimate
        return estimate

    # -------------------------------------------------------------- running
    def submit(self, job: Job) -> None:
        """Hand ``job`` to this controller at the current simulated time.

        Entry point for external routers (the fleet dispatcher): the job joins
        its priority buffer immediately, exactly as a scheduled arrival would.
        """
        self._on_arrival(job)

    def schedule_trace(self) -> None:
        """Schedule every job of the trace as an arrival event.

        After a checkpoint restore only arrivals strictly later than the
        snapshot time are scheduled — earlier jobs already completed and live
        in the restored metrics.
        """
        cutoff = self._resume_time
        for job in self.jobs:
            if cutoff is not None and job.arrival_time <= cutoff:
                continue
            self.sim.schedule_at(
                job.arrival_time, self._make_arrival_callback(job), priority=0
            )

    def run(self, until: Optional[float] = None) -> SimulationResult:
        """Run the whole trace to completion (or until the optional horizon)."""
        self.schedule_trace()
        if self.faults is not None:
            if not self.faults.started:
                self.faults.start()
            if self._completed >= self._drain_target:
                # Resumed from a snapshot taken after the workload drained:
                # no completion event will fire the stop, so cancel the
                # crash/repair renewal process here or the heap never empties.
                self.faults.stop()
        telemetry = self.telemetry
        kernel = None
        if telemetry.enabled:
            telemetry.emit(
                "run_start",
                self.sim.now,
                src=self.telemetry_src,
                **self._run_start_fields(),
            )
            if telemetry.sample_interval is not None:
                kernel = kernel_sample_source(self.sim)
                PeriodicSampler(
                    self.sim,
                    telemetry,
                    telemetry.sample_interval,
                    sources=[(self.telemetry_src, self.telemetry_rows)],
                    should_continue=lambda: self._completed < self._drain_target,
                ).start()
        self.sim.run(until=until)
        result = self.finalize()
        if telemetry.enabled:
            if kernel is not None:
                # The kernel's totals, once per run (see the sampler module).
                emit_sample(telemetry, self.sim.now, "kernel", kernel())
            telemetry.emit(
                "run_end",
                self.sim.now,
                src=self.telemetry_src,
                completed=self._completed,
                duration=self.sim.now,
            )
        return result

    def finalize(self) -> SimulationResult:
        """Close the books at the current simulated time and build the result."""
        self.energy_meter.advance(self.sim.now)
        self.metrics.set_observation_time(self.sim.now)
        account = self.energy_meter.account
        return self._make_result(
            policy_name=self.policy.name,
            metrics=self.metrics,
            duration=self.sim.now,
            completed_jobs=self._completed,
            total_energy_joules=self.energy_meter.total_joules,
            sprinted_seconds=(
                self.sprinter.total_sprinted_seconds if self.sprinter is not None else 0.0
            ),
            evictions=self._total_evictions,
            idle_energy_joules=account.idle_joules,
            busy_energy_joules=account.busy_joules,
            sprint_energy_joules=account.sprint_joules,
            fault_counts=dict(self.faults.counters) if self.faults is not None else {},
        )

    # ------------------------------------------------- controller-specific
    def _run_start_fields(self) -> Dict[str, Any]:
        """Fields of the ``run_start`` event besides ``t`` and ``src``."""
        return {"run": "dias", "policy": self.policy.name}

    def _make_result(self, **fields: Any) -> SimulationResult:
        """Build the run's result from the common fields of :meth:`finalize`."""
        return SimulationResult(**fields)

    def _plan_drops(self, job: Job) -> Tuple[DropPlan, float, float]:
        """Plan which tasks ``job`` sheds; returns ``(plan, map, reduce)``.

        ``map``/``reduce`` are the drop ratios the ``drop_decision`` event
        reports.
        """
        if self.drop_ratio_provider is not None:
            decision = self.drop_ratio_provider(job, self.sim.now, self.metrics)
            map_drop = decision.map_drop_ratio
            reduce_drop = decision.reduce_drop_ratio
        else:
            map_drop = self.policy.map_drop_ratio(job.priority)
            reduce_drop = self.policy.reduce_drop_ratio(job.priority)
        return self.dropper.plan(job, map_drop, reduce_drop), map_drop, reduce_drop

    def _make_execution(
        self, job: Job, plan: DropPlan, map_drop: float, reduce_drop: float,
        trace_parent: int,
    ) -> Execution:
        """The execution that runs ``job``'s surviving tasks on the cluster."""
        phases = build_phases(
            job,
            map_drop_ratio=map_drop,
            reduce_drop_ratio=reduce_drop,
            kept_map_indices=plan.kept_map_indices,
            kept_reduce_indices=plan.kept_reduce_indices,
        )
        return JobExecution(
            self.sim,
            self.cluster,
            job,
            phases,
            on_complete=self._on_complete,
            telemetry=self.telemetry,
            telemetry_src=self.telemetry_src,
            trace_parent=trace_parent,
            faults=self.faults,
            on_give_up=self._on_task_exhausted if self.faults is not None else None,
        )

    # --------------------------------------------------------------- events
    def _make_arrival_callback(self, job: Job):
        def _callback(_sim: Simulator) -> None:
            self._on_arrival(job)

        return _callback

    def _on_arrival(self, job: Job) -> None:
        # Per-job bookkeeping lives from the arrival to the completion, keyed
        # by job id, so an id may be reused only once its job has finished.
        if job.job_id in self._job_state:
            raise DuplicateJobError(job.job_id, self.sim.now)
        self._job_state[job.job_id] = {"wasted": 0.0, "evictions": 0}
        self.probe.admitted(job)
        self.buffers.push(job)
        if self.tracks_backlog:
            self._queued_work += self._estimated_service_time(job)
        if self._running is None:
            self._dispatch_next()
            return
        if self.policy.preemptive and job.priority > self._running.job.priority:
            self._evict_running()
            self._dispatch_next()

    def _dispatch_next(self) -> None:
        job = self.buffers.pop_highest()
        if job is None:
            self._running = None
            self._running_plan = None
            self.energy_meter.set_mode("idle", self.sim.now)
            return
        tracks_backlog = self.tracks_backlog
        if tracks_backlog:
            self._queued_work = max(
                0.0, self._queued_work - self._estimated_service_time(job)
            )
        plan, map_drop, reduce_drop = self._plan_drops(job)
        trace_parent = self.probe.dispatched(job, plan, map_drop, reduce_drop)
        # Every dispatch starts at the base frequency; sprinting (if any) is
        # triggered later by the sprinter's timer.
        self.cluster.set_sprinting(False)
        self.energy_meter.set_mode("busy", self.sim.now)
        execution = self._make_execution(job, plan, map_drop, reduce_drop, trace_parent)
        self._running = execution
        self._running_plan = plan
        if tracks_backlog:
            self._running_estimate = self._estimated_service_time(job)
        self._running_started_at = self.sim.now
        execution.start(speed=self.cluster.speed)
        if self.sprinter is not None:
            self.sprinter.on_dispatch(execution)

    def _evict_running(self, restart: Optional[str] = None) -> None:
        """Abort the running attempt and put its job back at the buffer head.

        ``restart`` names the fault that forced it (``None`` under preemption).
        """
        execution = self._running
        if execution is None:
            return
        if self.sprinter is not None:
            self.sprinter.on_job_end(execution)
        wasted = execution.evict()
        self.cluster.set_sprinting(False)
        job = execution.job
        self.probe.evicted(execution, wasted, restart)
        state = self._job_state[job.job_id]
        state["wasted"] += wasted
        state["evictions"] += 1
        self._total_evictions += 1
        self.buffers.push_front(job)
        if self.tracks_backlog:
            self._queued_work += self._estimated_service_time(job)
        self._running = None
        self._running_plan = None

    def _on_complete(self, execution: Execution) -> None:
        if self.sprinter is not None:
            self.sprinter.on_job_end(execution)
        self.cluster.set_sprinting(False)
        job = execution.job
        plan = self._running_plan
        # Pop per-job bookkeeping so long streaming replays stay bounded.
        state = self._job_state.pop(job.job_id)
        self._service_estimates.pop(job.job_id, None)
        effective_drop = plan.effective_drop_ratio if plan is not None else 0.0
        record = JobRecord(
            job_id=job.job_id,
            priority=job.priority,
            arrival_time=job.arrival_time,
            start_time=execution.start_time if execution.start_time is not None else job.arrival_time,
            completion_time=self.sim.now,
            execution_time=execution.elapsed,
            wasted_time=state["wasted"],
            evictions=int(state["evictions"]),
            drop_ratio=effective_drop,
            accuracy_loss=self.accuracy_model.error(min(effective_drop, 1.0)),
            sprinted_time=execution.sprinted_time,
            size_mb=job.size_mb,
            num_map_tasks=job.num_map_tasks,
            num_reduce_tasks=job.num_reduce_tasks,
        )
        self.metrics.record_job(record)
        self.metrics.record_busy_time(execution.elapsed)
        if self.on_job_record is not None:
            self.on_job_record(record)
        self.probe.completed(execution, record)
        self._completed += 1
        if self._completed >= self._drain_target:
            # Standalone run drained: cancel the open-ended crash/repair
            # renewal process so the event heap can empty.  Fleet-embedded
            # controllers never drain on their own; the fleet stops their
            # injectors from its own hook.
            if self.faults is not None:
                self.faults.stop()
        if self.on_job_complete is not None:
            self.on_job_complete()
        self._running = None
        self._running_plan = None
        self._dispatch_next()

    # ---------------------------------------------------------------- faults
    def _fault_restart(self, reason: str) -> None:
        """Abort the running attempt and re-queue the job (fault recovery).

        Reuses the eviction path so resource-waste accounting and the span
        tree (evict annotation, attempt outcome, fresh queue span) stay
        consistent with preemptive evictions — the latency decomposition's
        ``re_execution`` component keeps summing to the response time.
        """
        execution = self._running
        if execution is None:
            return
        # Annotate before eviction so the trace records *why* the attempt
        # was aborted, not just that it was evicted.
        execution.mark_fault(reason)
        self.faults.note_job_restart()
        self._evict_running(restart=reason)

    def _on_task_exhausted(self, execution: Execution) -> None:
        """A task burned through its transient-failure retries: re-run the job."""
        self._fault_restart("retries_exhausted")
        self._dispatch_next()

    def _on_worker_crash(self, worker: int) -> None:
        execution = self._running
        if execution is None:
            return
        if self.faults.crash_recovery == "restart":
            self._fault_restart("crash")
            self._dispatch_next()
            return
        execution.on_worker_crash(worker)

    def _on_worker_repair(self, worker: int) -> None:
        if self._running is not None:
            self._running.on_worker_repair(worker)

    # ------------------------------------------------------------- sprinting
    def _on_sprint_start(self, execution: Execution) -> None:
        self.cluster.set_sprinting(True)
        if execution.running:
            execution.set_speed(self.cluster.speed)
        self.energy_meter.set_mode("sprint", self.sim.now)
        self.probe.sprint_on(execution)

    def _on_sprint_end(self, execution: Execution) -> None:
        self.cluster.set_sprinting(False)
        if execution.running:
            execution.set_speed(self.cluster.speed)
            self.energy_meter.set_mode("busy", self.sim.now)
        else:
            mode = "busy" if self._running is not None else "idle"
            self.energy_meter.set_mode(mode, self.sim.now)
        self.probe.sprint_off(execution, self.sprinter.last_sprinted)

    def _on_sprint_denied(self, execution: Execution) -> None:
        self.probe.sprint_denied(execution)


def run_policy(
    policy: SchedulingPolicy,
    jobs: Sequence[Job],
    cluster: Optional[Cluster] = None,
    accuracy_model: Optional[AccuracyModel] = None,
    seed: int = 0,
) -> SimulationResult:
    """Convenience wrapper: build a :class:`DiASSimulation` and run it."""
    simulation = DiASSimulation(
        policy=policy,
        jobs=jobs,
        cluster=cluster,
        accuracy_model=accuracy_model,
        seed=seed,
    )
    return simulation.run()
