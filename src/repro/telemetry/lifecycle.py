"""One probe call per controller lifecycle transition.

The DiAS controller (:class:`~repro.core.dias.DiASSimulation`, and the DAG
controller that subclasses it) and the fleet router decide; a
:class:`LifecycleProbe` reports.  Each transition of the controller's state
machine is one method here: :meth:`~LifecycleProbe.admitted`,
:meth:`~LifecycleProbe.routed`, :meth:`~LifecycleProbe.dispatched`,
:meth:`~LifecycleProbe.evicted`, :meth:`~LifecycleProbe.completed` and the
three sprint transitions.  A call publishes the transition's typed event
while the hub is enabled and its causal spans while the hub is tracing.

The probe owns the job-level span state: the ids and start times of each
in-flight job's root, queue-wait, attempt and sprint spans, which open at
one transition and close at a later one.  The executions publish the spans
below the attempt, parented to the attempt span id that
:meth:`~LifecycleProbe.dispatched` returns: their wave, stage and setup
spans through one table of open spans, the task spans under them, and
every ``fault`` instant through
:meth:`~repro.engine.execution.Execution.mark_fault` (the controller marks
a fault restart there too, before it evicts the attempt).

Every method reads ``hub.enabled`` and ``hub.tracing`` when it is called, so
a sink attached after the controller was built still sees every transition.
"""

from __future__ import annotations

from typing import Any, Dict, Optional


def _dropped_task_seconds(job: Any, plan: Any) -> float:
    """Slot-seconds of task work the drop plan sheds (for span attribution).

    Stages absent from the plan's kept-index maps keep all their tasks and
    contribute nothing.
    """
    dropped = 0.0
    for stage in job.stages:
        kept_map = plan.kept_map_indices.get(stage.index)
        if kept_map is not None:
            dropped += sum(stage.map_task_times) - sum(
                stage.map_task_times[i] for i in kept_map
            )
        kept_reduce = plan.kept_reduce_indices.get(stage.index)
        if kept_reduce is not None:
            dropped += sum(stage.reduce_task_times) - sum(
                stage.reduce_task_times[i] for i in kept_reduce
            )
    return dropped


class _JobSpans:
    """Open spans of one in-flight job; a span id of 0 means "not open"."""

    __slots__ = (
        "job",
        "job_start",
        "attempt",
        "queue_id",
        "queue_start",
        "attempt_id",
        "attempt_start",
        "sprint_id",
        "sprint_start",
    )

    def __init__(self, job: int, start: float, queue_id: int) -> None:
        self.job = job
        self.job_start = start
        self.attempt = 0
        self.queue_id = queue_id
        self.queue_start = start
        self.attempt_id = 0
        self.attempt_start = 0.0
        self.sprint_id = 0
        self.sprint_start = 0.0


class LifecycleProbe:
    """Publishes the events and spans of one controller's transitions.

    Parameters
    ----------
    hub:
        The telemetry hub (possibly disabled).
    src:
        Source label of every event this probe publishes.
    sim:
        The simulation kernel; events carry its clock.
    cluster:
        The controller's cluster (speeds for DVFS events, slots for the
        drop span's salvaged time).  The fleet's probe has none.

    The probe holds no reference to its controller, so a finished
    controller is freed by reference counting alone.
    """

    __slots__ = ("hub", "src", "sim", "cluster", "_jobs")

    def __init__(self, hub: Any, src: str, sim: Any, cluster: Any = None) -> None:
        self.hub = hub
        self.src = src
        self.sim = sim
        self.cluster = cluster
        self._jobs: Dict[int, _JobSpans] = {}

    # ------------------------------------------------------------ arrivals
    def admitted(self, job: Any) -> None:
        """``job`` joined its buffer: open its root span and first wait."""
        hub = self.hub
        now = self.sim.now
        if hub.enabled:
            hub.emit(
                "job_admitted", now, src=self.src,
                job_id=job.job_id, priority=job.priority,
            )
        if hub.tracing:
            # Spans are emitted when they close; their ids are fixed now.
            job_span = hub.new_span_id()
            self._jobs[job.job_id] = _JobSpans(job_span, now, hub.new_span_id())

    def routed(self, job: Any, cluster: int, chosen: int) -> None:
        """The fleet sent ``job`` to ``cluster``; the router had ``chosen``.

        ``cluster != chosen`` is a quarantine redirect.  The route span is an
        instant with no parent (the job's root span opens inside the
        receiving controller right after), linked to the job's tree by
        ``job_id`` when traces are assembled.
        """
        hub = self.hub
        now = self.sim.now
        if hub.enabled:
            if cluster != chosen:
                hub.emit(
                    "fault.quarantine", now, src=self.src,
                    job_id=job.job_id, cluster=chosen, redirected=cluster,
                )
            hub.emit(
                "job_routed", now, src=self.src,
                job_id=job.job_id, priority=job.priority, cluster=cluster,
            )
        if hub.tracing:
            hub.span(
                now, self.src, hub.new_span_id(), 0, "route", "route", now,
                job.job_id, cluster=cluster,
            )

    # ------------------------------------------------------------ attempts
    def dispatched(
        self, job: Any, plan: Any, map_drop: float, reduce_drop: float
    ) -> int:
        """``job`` starts an attempt under ``plan``; returns its span id.

        Reports the drop decision, closes the queue wait, opens the attempt
        span and annotates the dropped work.  The id (0 while not tracing)
        parents the execution's wave, stage and task spans.
        """
        hub = self.hub
        now = self.sim.now
        if hub.enabled:
            # kept_map_indices maps stage index -> kept task indices.
            kept = sum(len(idx) for idx in plan.kept_map_indices.values())
            hub.emit(
                "drop_decision", now, src=self.src,
                job_id=job.job_id,
                priority=job.priority,
                map_drop_ratio=map_drop,
                reduce_drop_ratio=reduce_drop,
                kept_map_tasks=kept,
                dropped_map_tasks=job.num_map_tasks - kept,
            )
        if not hub.tracing:
            return 0
        spans = self._jobs[job.job_id]
        hub.span(
            now, self.src, spans.queue_id, spans.job, "queue_wait", "queue",
            spans.queue_start, job.job_id, priority=job.priority,
        )
        spans.queue_id = 0
        spans.attempt += 1
        attempt_id = spans.attempt_id = hub.new_span_id()
        spans.attempt_start = now
        dropped_seconds = _dropped_task_seconds(job, plan)
        if dropped_seconds > 0.0:
            kept = sum(len(idx) for idx in plan.kept_map_indices.values()) + sum(
                len(idx) for idx in plan.kept_reduce_indices.values()
            )
            hub.span(
                now, self.src, hub.new_span_id(), attempt_id, "drop", "drop", now,
                job.job_id,
                dropped_tasks=job.num_map_tasks + job.num_reduce_tasks - kept,
                salvaged=dropped_seconds / self.cluster.slots,
            )
        return attempt_id

    def evicted(
        self, execution: Any, wasted: float, restart: Optional[str] = None
    ) -> None:
        """The attempt was evicted and its job re-queued at the same instant.

        ``restart`` is the fault that forced the eviction (``None`` for a
        preemption); it is reported once the attempt has closed.
        """
        hub = self.hub
        job = execution.job
        now = self.sim.now
        if hub.enabled:
            hub.emit(
                "job_evicted", now, src=self.src,
                job_id=job.job_id, priority=job.priority, wasted=wasted,
            )
        if hub.tracing:
            spans = self._jobs[job.job_id]
            hub.span(
                now, self.src, hub.new_span_id(), spans.attempt_id, "evict",
                "evict", now, job.job_id, wasted=wasted,
            )
            self._close_attempt(execution, spans, "evicted")
            spans.queue_id = hub.new_span_id()
            spans.queue_start = now
        if restart is not None and hub.enabled:
            hub.emit(
                "fault.job_restart", now, src=self.src,
                job_id=job.job_id, reason=restart,
            )

    def completed(self, execution: Any, record: Any) -> None:
        """The attempt finished: close it and the job's root span."""
        hub = self.hub
        job = execution.job
        now = self.sim.now
        if hub.enabled:
            hub.emit(
                "job_completed", now, src=self.src,
                job_id=job.job_id,
                priority=job.priority,
                response_time=record.response_time,
                execution_time=record.execution_time,
                drop_ratio=record.drop_ratio,
            )
        if hub.tracing:
            spans = self._jobs.pop(job.job_id)
            self._close_attempt(execution, spans, "completed")
            hub.span(
                now, self.src, spans.job, 0, "job", "job", spans.job_start,
                job.job_id, priority=job.priority,
            )

    def _close_attempt(self, execution: Any, spans: _JobSpans, outcome: str) -> None:
        self.hub.span(
            self.sim.now, self.src, spans.attempt_id, spans.job, "attempt",
            "attempt", spans.attempt_start, execution.job.job_id,
            attempt=spans.attempt,
            outcome=outcome,
            sprinted=execution.sprinted_time,
            **execution.attempt_span_fields(),
        )
        spans.attempt_id = 0

    # ----------------------------------------------------------- sprinting
    def sprint_on(self, execution: Any) -> None:
        """The cluster now runs ``execution`` at the sprint frequency."""
        hub = self.hub
        now = self.sim.now
        job_id = execution.job.job_id
        if hub.enabled:
            hub.emit("sprint_start", now, src=self.src, job_id=job_id)
            hub.emit(
                "dvfs_transition", now, src=self.src,
                speed=self.cluster.speed, mode="sprint",
            )
        if hub.tracing:
            spans = self._jobs.get(job_id)
            if spans is not None:
                spans.sprint_id = hub.new_span_id()
                spans.sprint_start = now

    def sprint_off(self, execution: Any, sprinted: float) -> None:
        """The sprint of ``execution`` ended after ``sprinted`` seconds."""
        hub = self.hub
        now = self.sim.now
        job_id = execution.job.job_id
        if hub.enabled:
            hub.emit("sprint_end", now, src=self.src, job_id=job_id, sprinted=sprinted)
            hub.emit(
                "dvfs_transition", now, src=self.src,
                speed=self.cluster.speed, mode="nominal",
            )
        if hub.tracing:
            spans = self._jobs.get(job_id)
            if spans is not None and spans.sprint_id:
                # The DVFS interval, a child of the attempt it accelerated
                # (the sprinter always stops before the attempt closes).
                dvfs = self.cluster.dvfs
                hub.span(
                    now, self.src, spans.sprint_id, spans.attempt_id or spans.job,
                    "sprint", "sprint", spans.sprint_start, job_id,
                    speed=dvfs.speedup(dvfs.sprint),
                )
                spans.sprint_id = 0

    def sprint_denied(self, execution: Any) -> None:
        """A sprint timeout fired with no budget left."""
        hub = self.hub
        now = self.sim.now
        job_id = execution.job.job_id
        if hub.enabled:
            hub.emit("sprint_denied", now, src=self.src, job_id=job_id)
        if hub.tracing:
            spans = self._jobs.get(job_id)
            if spans is not None and spans.attempt_id:
                hub.span(
                    now, self.src, hub.new_span_id(), spans.attempt_id,
                    "sprint_denied", "denied", now, job_id,
                )
