"""Execution of one job attempt on the cluster inside the simulator.

:class:`Execution` is the attempt lifecycle every execution model shares.  It
supports the two dynamic operations DiAS needs:

* :meth:`Execution.set_speed` — a cluster-wide DVFS change (sprint start or
  stop) rescales the completion times of all in-flight tasks.
* :meth:`Execution.evict` — preemptive eviction cancels all in-flight work;
  the wall-clock time burned by the attempt is returned so the simulator can
  account resource waste (the job restarts from scratch later, as in the
  paper's SIGKILL-based prototype).

**One dispatch, one end.**  Every task of the per-task path starts in
:meth:`Execution._start_task`, with or without a fault injector: without
one it draws nothing and runs the task at slowdown 1.0.  Every task end runs
one per-slot callback, which hands a task drawn to fail to the fault
machinery (retries with capped exponential backoff, then a job-level give
up) and lets a finished task free or refill its slot.  Faults are policies
plugged into that one path: the draws at dispatch, a straggler hook
(``_on_straggler``, where :class:`JobExecution` schedules its speculation
check), the failure branch of the task end, and the requeue of work lost to
a worker crash.  Subclasses decide only which task a free slot runs next and
when a span group opens and closes.

**One span table.**  While the hub traces, an attempt's open group spans
live in one table keyed by group: ``0`` is a MapReduce wave, a DAG stage's
``position`` is that stage, and ``-1`` is a DAG job's setup.  A group's span
id is allocated when it opens and its span is emitted when it closes; a task
span, emitted when the task ends or stops early, takes its parent id and its
``stage`` field from its group, so it always closes before its group.  An
eviction stops the in-flight tasks, then closes the open groups in key
order.

:class:`JobExecution` runs a MapReduce job as a sequence of *phases*: the
setup (overhead) stage, then for each map/reduce stage pair the map tasks, the
shuffle, and the reduce tasks.  Task phases run their tasks on the cluster's
``C`` computing slots, which naturally produces the wave behaviour the paper's
Section 4.2 models (``⌈tasks/slots⌉`` waves when task times are similar).
:class:`~repro.dag.execution.DagExecution` runs a DAG job's stage frontier.

**Private runs.**  An attempt that nobody observes changes only when the
controller sprints it or evicts it.  Until then its schedule is list
scheduling of known task times on ``C`` slots, so its end is fixed when it
starts: the execution computes it inside :meth:`Execution.start` and gives
the kernel one event, at the end, instead of one per task.  ``evict``
cancels that event.  A real speed change *materialises* the attempt: the run
is replayed from its start up to now, with the kernel's tie order, its
in-flight tasks become ordinary per-task events, and the rest of the attempt
runs per task.  Both executions compute their ends with the same float
operations, in the same order, as their per-task paths, so a private attempt
ends at the same instant to the bit; only kernel event counts fall.

One rule, in :meth:`Execution.start`, decides which path an attempt takes.
It is *observed*, and runs per task, when it runs under a fault injector
(faults are drawn per task) or when the hub traces (spans and
``stage_scheduled`` are emitted per task and per stage); a DAG attempt is
also observed by a decision hook, which is consulted at each pick.  A
sampling hub observes nothing, because an untraced attempt publishes nothing
per task.  A subclass says how its own schedule runs: :meth:`_enter` starts
the per-task path, :meth:`_private_end` computes the end of a private run and
:meth:`_replay` replays one up to a speed change; the base does the rest.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush, heapreplace
from operator import itemgetter
from typing import TYPE_CHECKING, Any, Callable, Dict, List, Mapping, Optional, Sequence

from repro.engine.cluster import Cluster
from repro.engine.job import Job, StageSpec, effective_task_count
from repro.simulation.des import Event, Simulator
from repro.telemetry.hub import NULL_HUB, TelemetryHub

if TYPE_CHECKING:
    from repro.dag.execution import StageRun


@dataclass
class ExecutionPhase:
    """One phase of a job's execution timeline."""

    name: str
    stage_index: int
    durations: List[float]
    parallel: bool = True

    def __post_init__(self) -> None:
        if any(d < 0 for d in self.durations):
            raise ValueError("phase durations must be non-negative")

    @property
    def total_work(self) -> float:
        return float(sum(self.durations))


def kept_task_times(
    durations: Sequence[float],
    stage: StageSpec,
    kept_indices: Optional[Mapping[int, Sequence[int]]],
    drop_ratio: float,
) -> List[float]:
    """The task durations of ``stage`` left to run after dropping.

    Explicit kept-task indices (from the dropper) win.  Otherwise a droppable
    stage keeps its first ``⌈n(1 − θ)⌉`` tasks and any other stage keeps all
    of them.
    """
    if kept_indices is not None and stage.index in kept_indices:
        return [durations[i] for i in kept_indices[stage.index]]
    if not stage.droppable:
        return list(durations)
    return list(durations[: effective_task_count(len(durations), drop_ratio)])


def build_phases(
    job: Job,
    map_drop_ratio: float = 0.0,
    reduce_drop_ratio: float = 0.0,
    kept_map_indices: Optional[Dict[int, Sequence[int]]] = None,
    kept_reduce_indices: Optional[Dict[int, Sequence[int]]] = None,
) -> List[ExecutionPhase]:
    """Build the execution phases of ``job`` under the given drop ratios.

    Each stage keeps the tasks :func:`kept_task_times` names.
    """
    phases: List[ExecutionPhase] = [
        ExecutionPhase(
            name="setup",
            stage_index=-1,
            durations=[job.setup_time(map_drop_ratio)],
            parallel=False,
        )
    ]
    for stage in job.stages:
        map_durations = kept_task_times(
            stage.map_task_times, stage, kept_map_indices, map_drop_ratio
        )
        reduce_durations = kept_task_times(
            stage.reduce_task_times, stage, kept_reduce_indices, reduce_drop_ratio
        )
        if map_durations:
            phases.append(
                ExecutionPhase("map", stage.index, map_durations, parallel=True)
            )
        if stage.shuffle_time > 0 and reduce_durations:
            phases.append(
                ExecutionPhase(
                    "shuffle", stage.index, [stage.shuffle_time], parallel=False
                )
            )
        if reduce_durations:
            phases.append(
                ExecutionPhase("reduce", stage.index, reduce_durations, parallel=True)
            )
    return phases


#: Sort key of ``(end, dispatch seq, ...)`` private heap entries.
_dispatch_seq = itemgetter(1)


@dataclass(slots=True)
class _ActiveTask:
    """Book-keeping for one in-flight task on one slot.

    ``started_at`` keeps the task's original dispatch time across DVFS
    reschedules for span tracing, ``span_id`` is the task's pre-allocated
    trace span (0 when tracing is off, and always for a DAG job's setup),
    ``stage_run`` is the DAG stage the task serves (``None`` for a MapReduce
    task and for a DAG job's setup), and ``base`` is the task's nominal
    duration (before straggler slowdown, the amount re-queued if the hosting
    worker crashes).  A task's span group is its stage's ``position``, or
    the wave (key 0) when it has no stage.

    The remaining fields only carry information under fault injection:
    ``attempt`` counts executions of this task on this slot, ``will_fail``
    marks a transient failure drawn at dispatch time, ``spec_event`` is the
    pending speculation-check event of a straggling task (cancelled with the
    task on eviction or a crash), and ``copy_of`` / ``copy_slot`` link a
    speculative copy to its straggling primary (the last three are only set
    by :class:`JobExecution`).
    """

    slot: int
    event: Event
    speed: float
    started_at: float = 0.0
    span_id: int = 0
    stage_run: Optional[StageRun] = None
    base: float = 0.0
    attempt: int = 1
    will_fail: bool = False
    spec_event: Optional[Event] = None
    copy_of: int = -1
    copy_slot: int = -1


class Execution:
    """One attempt of a job on the cluster: DVFS, eviction and fault recovery.

    :meth:`_start_task` is the one task dispatch and the per-slot callback of
    :meth:`_make_task_callback` the one task end; a fault injector changes
    what they draw and where a failed task goes, not which code runs.  A
    subclass says which task a free slot runs next, by defining
    :meth:`_enter` (enter the first phase or stage), :meth:`_refill` (fill
    the free slots), :meth:`_release_slot` (a slot is done with its task),
    :meth:`_on_task_succeeded` (the end of a task that did not fail),
    :meth:`_requeue` (a lost task goes back to its queue), and
    :meth:`_private_end` and :meth:`_replay` (its private run);
    :meth:`_on_straggler` may add to what a straggling draw does.  It traces
    by opening and closing its span groups through :meth:`_open_span` and
    :meth:`_close_span`; the base emits every task span and closes what is
    open at eviction.
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        job,
        on_complete: Callable[["Execution"], None],
        telemetry: TelemetryHub,
        telemetry_src: str,
        trace_parent: int,
        faults,
        on_give_up: Optional[Callable[["Execution"], None]],
    ) -> None:
        self.sim = sim
        self.cluster = cluster
        self.job = job
        self.on_complete = on_complete
        self.telemetry = telemetry
        self.telemetry_src = telemetry_src
        #: Span id of the enclosing attempt span when tracing (0 otherwise).
        self.trace_parent = trace_parent
        #: Optional :class:`~repro.faults.injector.FaultInjector`; with
        #: ``None`` a task dispatch draws nothing and no task fails.
        self._faults = faults
        #: Called when a task exhausts its transient-failure retries; the
        #: controller escalates to a job-level re-execution.
        self._on_give_up = on_give_up
        #: slot -> (backoff Event, nominal duration, next attempt, stage run)
        #: for tasks waiting out a retry backoff (fault injection only).
        self._retries: Dict[int, tuple] = {}
        self._active: Dict[int, _ActiveTask] = {}
        self._free_slots: List[int] = []
        #: slot -> its task-completion callback, built on the slot's first
        #: task and cleared at finish and evict, which breaks the
        #: execution -> callback -> execution cycle.
        self._task_callbacks: Dict[int, Callable[[Simulator], None]] = {}
        #: group key -> (span id, start, name, cat, fields) of each open group
        #: span while tracing (see the module docstring).
        self._spans: Dict[int, tuple] = {}

        self.started = False
        self.completed = False
        self.evicted = False
        self.start_time: Optional[float] = None
        self.completion_time: Optional[float] = None

        self._speed = 1.0
        self._speed_since: Optional[float] = None
        self.sprinted_time = 0.0
        #: The one kernel event of a privately run attempt, at its end.
        self._end_event: Optional[Event] = None

    # --------------------------------------------------------------- queries
    @property
    def running(self) -> bool:
        return self.started and not self.completed and not self.evicted

    @property
    def elapsed(self) -> float:
        """Wall time of this attempt so far (or total, once completed)."""
        if self.start_time is None:
            return 0.0
        end = self.completion_time if self.completion_time is not None else self.sim.now
        return end - self.start_time

    @property
    def speed(self) -> float:
        return self._speed

    def attempt_span_fields(self) -> Dict[str, Any]:
        """Extra fields of this attempt's closing span (none for MapReduce)."""
        return {}

    # ---------------------------------------------------------------- control
    def start(self, speed: Optional[float] = None) -> None:
        """Begin executing the job at the current simulation time."""
        if self.started:
            raise RuntimeError("execution already started")
        self.started = True
        self.start_time = self.sim.now
        #: The kernel's executed-event count and run state at the start
        #: (see ``_ties_fired``).
        self._start_mark = (self.sim.processed_events, self.sim._running)
        self._speed = float(speed) if speed is not None else self.cluster.speed
        self._speed_since = self.sim.now
        self._free_slots = self.cluster.free_slot_ids()
        if self._observed():
            self._enter()
        else:
            # Until a speed change, eviction or the end, the attempt is list
            # scheduling: compute its end now and give the kernel one event.
            self._end_privately_at(self._private_end())

    def set_speed(self, speed: float) -> None:
        """Apply a cluster-wide speed change (DVFS) to all in-flight tasks."""
        if speed <= 0:
            raise ValueError("speed must be positive")
        if self._end_event is not None and speed != self._speed:
            self._end_event.cancel()
            self._end_event = None
            self._materialise(self._ties_fired())
        if not self.running:
            self._speed = float(speed)
            self._speed_since = self.sim.now
            return
        now = self.sim.now
        self._accumulate_sprint(now)
        old_speed = self._speed
        self._speed = float(speed)
        self._speed_since = now
        if old_speed == speed:
            return
        for active in list(self._active.values()):
            remaining_wall = max(0.0, active.event.time - now)
            remaining_work = remaining_wall * active.speed
            active.event.cancel()
            # Mutate in place so fault bookkeeping (attempt, pending
            # speculation check, copy links) survives DVFS transitions.
            active.event = self.sim.schedule(
                remaining_work / speed, active.event.callback, priority=1
            )
            active.speed = speed

    def evict(self) -> float:
        """Cancel all in-flight work; returns the wasted wall time of the attempt."""
        if not self.running:
            raise RuntimeError("cannot evict an execution that is not running")
        if self._end_event is not None:
            self._end_event.cancel()
            self._end_event = None
        now = self.sim.now
        self._accumulate_sprint(now)
        for active in self._active.values():
            self._cancel_task(active, "evicted")
        self._active.clear()
        self._close_spans("evicted")
        for event, _base, _attempt, _run in self._retries.values():
            event.cancel()
        self._retries.clear()
        self._task_callbacks.clear()
        self.evicted = True
        return now - (self.start_time if self.start_time is not None else now)

    def on_worker_crash(self, worker: int) -> None:
        """Re-queue in-flight work lost to a worker crash (wave re-execution).

        Tasks running (or backing off) on the crashed worker's slots return
        to their queue at their nominal duration — the work done so far is
        lost — and the slots leave the free pool until the repair.
        """
        if not self.running:
            return
        self.mark_fault("crash")
        dead = self.cluster.worker_slots(worker)
        for slot in dead:
            active = self._active.pop(slot, None)
            if active is not None:
                self._cancel_task(active, "crashed")
                self._requeue_lost(active)
            entry = self._retries.pop(slot, None)
            if entry is not None:
                event, base, _attempt, run = entry
                event.cancel()
                self._requeue(base, run)
        self._free_slots = [s for s in self._free_slots if s not in dead]
        self._refill()

    def on_worker_repair(self, worker: int) -> None:
        """Return a repaired worker's slots to the free pool and continue."""
        if not self.running:
            return
        for slot in self.cluster.worker_slots(worker):
            if (
                slot not in self._active
                and slot not in self._retries
                and slot not in self._free_slots
            ):
                self._free_slots.append(slot)
        self._refill()

    # ------------------------------------------------------------------ hooks
    def _observed(self) -> bool:
        """Whether the attempt runs per task (see the module docstring)."""
        return self._faults is not None or self.telemetry.tracing

    def _enter(self) -> None:
        """Enter the first phase or stage of a just-started, observed attempt."""
        raise NotImplementedError

    def _private_end(self) -> Optional[float]:
        """The end of an undisturbed attempt, ``None`` if it runs no task."""
        raise NotImplementedError

    def _refill(self) -> None:
        """Fill free slots with waiting tasks (crash/repair continuation)."""
        raise NotImplementedError

    def _release_slot(self, slot: int) -> None:
        """``slot`` is done with its task: free it and continue the attempt."""
        raise NotImplementedError

    def _on_task_succeeded(self, active: _ActiveTask) -> None:
        """A task finished without failing; ``active`` left ``_active``."""
        raise NotImplementedError

    def _requeue(self, base: float, stage_run: Optional[StageRun]) -> None:
        """Return a task of nominal duration ``base`` to its pending queue."""
        raise NotImplementedError

    def _requeue_lost(self, active: _ActiveTask) -> None:
        """The in-flight task ``active`` was lost to a worker crash."""
        self._requeue(active.base, active.stage_run)

    def _retry_attempt_field(self, attempt: int) -> int:
        """The ``attempt`` field of the ``fault.retry`` event after ``attempt``
        failed (the failed attempt here; see ``telemetry/schema.py``)."""
        return attempt

    def _replay(self, until: float, inclusive: bool) -> List[tuple]:
        """Replay a privately run attempt from its start up to ``until``.

        Task ends before ``until`` take effect, and so do those at ``until``
        itself when ``inclusive``.  Returns the ``(end, dispatch seq, slot,
        stage run)`` entries of the tasks still in flight.
        """
        raise NotImplementedError

    # ------------------------------------------------------------ private run
    def _materialise(self, inclusive: bool) -> None:
        """Hand a privately run attempt to the kernel, one event per task.

        The attempt is replayed up to now; its tasks still in flight become
        ``_ActiveTask`` entries in dispatch order, and the rest of the
        attempt runs per task.
        """
        sim = self.sim
        speed = self._speed
        in_flight = self._replay(sim.now, inclusive)
        for end, _seq, slot, stage_run in sorted(in_flight, key=_dispatch_seq):
            self._active[slot] = _ActiveTask(
                slot,
                sim.schedule_at(end, self._task_callback(slot), priority=1),
                speed,
                stage_run=stage_run,
            )

    def _end_privately_at(self, end: Optional[float]) -> None:
        """Give the kernel the one event of a privately run attempt.

        ``end`` is ``None`` when the attempt has no task to run: it then ends
        inside ``start``, as it does on the per-task path.
        """
        if end is None:
            self._finish()
        else:
            self._end_event = self.sim.schedule_at(
                end, self._on_private_end, priority=1
            )

    def _on_private_end(self, _sim: Simulator) -> None:
        self._end_event = None
        self._finish()

    def _ties_fired(self) -> bool:
        """Whether the per-task events that end now would already have fired.

        Those are priority-1 events.  None has fired if the call comes from
        the event that started the attempt: a task that takes no time (a
        MapReduce setup of length 0) is still pending.  That is when no
        event has run since the start and the kernel is in the same state,
        running or not.  (An attempt started between two kernel runs and
        sped up at its start instant, after a run that stopped there, is
        taken the same way, although that run fired its tasks that took no
        time.)  Otherwise they have fired if the running event has priority
        2 or more (a sprint timer or budget exhaustion) or no event is
        running (a call between two kernel runs).  They have not if it has
        priority 0 (an arrival) or 1, which is taken to sort first: the
        controllers' only priority-1 events are attempt and task ends, and
        those reach ``set_speed`` only by starting an attempt.
        """
        sim = self.sim
        if (sim.processed_events, sim._running) == self._start_mark:
            return False
        priority = sim.running_priority
        return priority is None or priority > 1

    # -------------------------------------------------------------- internals
    def _accumulate_sprint(self, now: float) -> None:
        if self._speed_since is not None and self._speed > 1.0:
            self.sprinted_time += now - self._speed_since
        self._speed_since = now

    # ------------------------------------------------------------------ spans
    def mark_fault(self, name: str, slot: int = -1) -> None:
        """Instant fault annotation attached to the current attempt span."""
        if not self.telemetry.tracing:
            return
        now = self.sim.now
        self.telemetry.span(
            now, self.telemetry_src, self.telemetry.new_span_id(), self.trace_parent,
            name, "fault", now, self.job.job_id, slot=slot,
        )

    def _open_span(self, key: int, name: str, cat: str, **fields: Any) -> None:
        """Open the span of group ``key`` now; a no-op unless tracing."""
        telemetry = self.telemetry
        if telemetry.tracing:
            self._spans[key] = (telemetry.new_span_id(), self.sim.now, name, cat, fields)

    def _close_span(self, key: int, outcome: str = "completed") -> None:
        """Emit the span of group ``key``, if it is open, under the attempt."""
        span = self._spans.pop(key, None)
        if span is not None:
            span_id, start, name, cat, fields = span
            self.telemetry.span(
                self.sim.now, self.telemetry_src, span_id, self.trace_parent,
                name, cat, start, self.job.job_id, **fields, outcome=outcome,
            )

    def _close_spans(self, outcome: str) -> None:
        """Close every open group span, in key order (an evicted attempt)."""
        for key in sorted(self._spans):
            self._close_span(key, outcome)

    def _emit_task_span(self, active: _ActiveTask, outcome: str = "completed") -> None:
        """Emit the span of task ``active``; its group is still open."""
        run = active.stage_run
        group_id, _start, _name, _cat, fields = self._spans[
            0 if run is None else run.position
        ]
        self.telemetry.span(
            self.sim.now, self.telemetry_src, active.span_id, group_id,
            "task", "task", active.started_at, self.job.job_id,
            slot=active.slot, stage=fields["stage"], outcome=outcome,
        )

    def _cancel_task(self, active: _ActiveTask, outcome: str) -> None:
        """Stop the in-flight task ``active`` early; its span reads ``outcome``."""
        active.event.cancel()
        if active.spec_event is not None:
            active.spec_event.cancel()
        if active.span_id:
            self._emit_task_span(active, outcome)

    def _task_callback(self, slot: int) -> Callable[[Simulator], None]:
        """The completion callback of ``slot``, built on first use."""
        callback = self._task_callbacks.get(slot)
        if callback is None:
            callback = self._task_callbacks[slot] = self._make_task_callback(slot)
        return callback

    def _make_task_callback(self, slot: int) -> Callable[[Simulator], None]:
        active_tasks = self._active

        def _callback(_sim: Simulator) -> None:
            # An evicted or finished attempt has no task in flight.
            active = active_tasks.pop(slot, None)
            if active is None:
                return
            if active.will_fail:
                self._on_task_failed(active)
                return
            self._on_task_succeeded(active)

        return _callback

    # --------------------------------------------------------- task dispatch
    def _start_task(
        self, slot: int, stage_run: Optional[StageRun], base: float, attempt: int = 1
    ) -> None:
        """Dispatch one execution of a task of nominal duration ``base``.

        Every task of the per-task path starts here.  Under a fault injector
        the draw order is fixed (slowdown, then failure) so the fault streams
        advance identically regardless of scheduling interleavings.  Without
        one nothing is drawn and the slowdown is 1.0: ``base * 1.0`` is
        ``base`` exactly, so the task ends at the same instant to the bit.
        """
        faults = self._faults
        if faults is None:
            slowdown = 1.0
            will_fail = False
        else:
            slowdown = faults.draw_slowdown()
            will_fail = faults.draw_task_failure()
        callbacks = self._task_callbacks
        if slot not in callbacks:
            callbacks[slot] = self._make_task_callback(slot)
        sim = self.sim
        speed = self._speed
        telemetry = self.telemetry
        active = self._active[slot] = _ActiveTask(
            slot,
            sim.schedule(base * slowdown / speed, callbacks[slot], priority=1),
            speed,
            sim.now,
            telemetry.new_span_id() if telemetry.tracing else 0,
            stage_run,
            base,
            attempt,
            will_fail,
        )
        if slowdown > 1.0:
            self._on_straggler(active, slowdown)

    def _on_straggler(self, active: _ActiveTask, slowdown: float) -> None:
        """The task ``active`` just drew a straggler ``slowdown`` above 1."""
        if self.telemetry.enabled:
            self.telemetry.emit(
                "fault.straggler",
                self.sim.now,
                src=self.telemetry_src,
                job_id=self.job.job_id,
                slot=active.slot,
                slowdown=slowdown,
            )

    # ------------------------------------------------------ fault machinery
    def _note_task_failure(self, active: _ActiveTask) -> None:
        self._faults.note_task_failure()
        if self.telemetry.enabled:
            self.telemetry.emit(
                "fault.task_fail",
                self.sim.now,
                src=self.telemetry_src,
                job_id=self.job.job_id,
                slot=active.slot,
                attempt=active.attempt,
            )
        if active.span_id:
            self._emit_task_span(active, outcome="failed")

    def _on_task_failed(self, active: _ActiveTask) -> None:
        """A pre-drawn transient failure surfaced at the task's end time."""
        self._note_task_failure(active)
        faults = self._faults
        slot = active.slot
        if active.attempt <= faults.max_retries:
            delay = faults.retry_delay(active.attempt)
            faults.note_retry()
            if self.telemetry.enabled:
                self.telemetry.emit(
                    "fault.retry",
                    self.sim.now,
                    src=self.telemetry_src,
                    job_id=self.job.job_id,
                    slot=slot,
                    attempt=self._retry_attempt_field(active.attempt),
                    delay=delay,
                )
            self.mark_fault("retry", slot)
            # The slot sits out the backoff: neither free nor active, and a
            # DAG stage's in-flight count stays up so it cannot advance phase.
            event = self.sim.schedule(
                delay, self._make_retry_callback(slot), priority=1
            )
            self._retries[slot] = (
                event, active.base, active.attempt + 1, active.stage_run
            )
            return
        # Retries exhausted: escalate to a job-level re-execution if the
        # controller gave us a hook, else re-queue as a fresh task.
        if self._on_give_up is not None:
            self._on_give_up(self)
            return
        self._requeue(active.base, active.stage_run)
        self._release_slot(slot)

    def _make_retry_callback(self, slot: int) -> Callable[[Simulator], None]:
        def _callback(_sim: Simulator) -> None:
            if not self.running:
                return
            entry = self._retries.pop(slot, None)
            if entry is None:
                return
            _event, base, attempt, run = entry
            self._start_task(slot, run, base, attempt)

        return _callback

    def _finish(self) -> None:
        now = self.sim.now
        self._accumulate_sprint(now)
        self.completed = True
        self.completion_time = now
        self._task_callbacks.clear()
        self.on_complete(self)


class JobExecution(Execution):
    """Executes one job's phases on the cluster within the simulator."""

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        job: Job,
        phases: Sequence[ExecutionPhase],
        on_complete: Callable[["JobExecution"], None],
        telemetry: TelemetryHub = NULL_HUB,
        telemetry_src: str = "",
        trace_parent: int = 0,
        faults=None,
        on_give_up: Optional[Callable[["JobExecution"], None]] = None,
    ) -> None:
        if not phases:
            raise ValueError("a job execution needs at least one phase")
        super().__init__(
            sim, cluster, job, on_complete, telemetry, telemetry_src, trace_parent,
            faults, on_give_up,
        )
        self.phases = list(phases)
        self._phase_index = -1
        #: The current phase's pending task durations, last-first: the next
        #: task to dispatch is ``pop()``, and a re-queued task goes to index 0.
        self._pending: List[float] = []
        self._parallel = True

    @property
    def current_phase(self) -> Optional[ExecutionPhase]:
        """The phase running now (``None`` before the start and after the end).

        A privately run attempt has no current phase until it materialises
        (see the module docstring).
        """
        if 0 <= self._phase_index < len(self.phases):
            return self.phases[self._phase_index]
        return None

    # ------------------------------------------------------------- phases
    def _enter(self) -> None:
        self._advance_phase()

    def _private_end(self) -> Optional[float]:
        """The end of an undisturbed attempt, ``None`` if it runs no task.

        A private attempt has no current phase.  Its end takes the same float
        operations, in the same order, as the per-task path: a parallel phase
        hands each task, in order, to the slot that frees first and ends when
        its last slot frees; a serial phase sums.  When a phase fits on the
        slots at once, its end is the start plus its longest task, because a
        float sum never decreases in an addend.
        """
        self._phase_index = len(self.phases)
        speed = self._speed
        slots = self.cluster.slots
        end = self.start_time
        ran = False
        for phase in self.phases:
            durations = phase.durations
            if not durations:
                continue
            ran = True
            if not phase.parallel or len(durations) == 1:
                for duration in durations:
                    end = end + duration / speed
            elif len(durations) <= slots:
                end = end + max(durations) / speed
            else:
                free = [end] * slots
                for duration in durations:
                    heapreplace(free, free[0] + duration / speed)
                end = max(free)
        return end if ran else None

    def _replay(self, until: float, inclusive: bool) -> List[tuple]:
        speed = self._speed
        slots = self.cluster.slots
        clock = self.start_time
        for index, phase in enumerate(self.phases):
            if not phase.durations:
                continue
            parallel = phase.parallel
            pending = phase.durations[::-1]
            free = list(range(slots))
            # (end, dispatch seq, slot, None): the seq breaks ties as the
            # kernel's sequence numbers do among this attempt's own task events.
            heap: List[tuple] = []
            for seq in range(min(slots if parallel else 1, len(pending))):
                heappush(heap, (clock + pending.pop() / speed, seq, free.pop(), None))
            seq = len(heap)
            while heap:
                end, _seq, slot, _run = heap[0]
                if end > until or (end == until and not inclusive):
                    self._phase_index = index
                    self._pending = pending
                    self._parallel = parallel
                    self._free_slots = free
                    return heap
                heappop(heap)
                clock = end
                if pending and (parallel or not heap):
                    heappush(heap, (end + pending.pop() / speed, seq, slot, None))
                    seq += 1
                else:
                    free.append(slot)
        raise RuntimeError("a privately run attempt outlived its end event")

    def _advance_phase(self) -> None:
        # A phase's wave is span group 0.
        self._close_span(0)
        self._phase_index += 1
        if self._phase_index >= len(self.phases):
            self._finish()
            return
        phase = self.phases[self._phase_index]
        if not phase.durations:
            self._advance_phase()
            return
        self._open_span(
            0, phase.name, "wave", stage=phase.stage_index, tasks=len(phase.durations)
        )
        pending = self._pending = phase.durations[::-1]
        self._parallel = phase.parallel
        free = self._free_slots = self.cluster.free_slot_ids()
        for _ in range(min(len(free) if phase.parallel else 1, len(pending))):
            self._start_task(free.pop(), None, pending.pop())

    def _on_task_succeeded(self, active: _ActiveTask) -> None:
        """Settle the task's speculation check or copy, if it has one, emit
        its span, and let the freed slot take the next pending task."""
        if (
            active.spec_event is not None
            or active.copy_of >= 0
            or active.copy_slot >= 0
        ):
            self._settle_speculation(active)
        if active.span_id:
            self._emit_task_span(active)
        self._release_slot(active.slot)

    def _release_slot(self, slot: int) -> None:
        """Continue the wave on ``slot``: it takes the next pending task if
        the phase can use it, else it joins the free pool."""
        pending = self._pending
        if pending and (self._parallel or not (self._active or self._retries)):
            self._start_task(slot, None, pending.pop())
            return
        self._free_slots.append(slot)
        if not pending and not self._active and not self._retries:
            self._advance_phase()

    def _refill(self) -> None:
        pending = self._pending
        free = self._free_slots
        while pending and free and (
            self._parallel or not (self._active or self._retries)
        ):
            self._start_task(free.pop(), None, pending.pop())
        if not pending and not self._active and not self._retries:
            self._advance_phase()

    def _requeue(self, base: float, stage_run: Optional[StageRun]) -> None:
        self._pending.insert(0, base)

    # -------------------------------------------------- speculative copies
    def _on_straggler(self, active: _ActiveTask, slowdown: float) -> None:
        super()._on_straggler(active, slowdown)
        factor = self._faults.speculation_factor
        if factor > 0.0:
            # The speculation check fires once the task has overrun
            # ``factor`` times its nominal duration; the check deadline
            # is fixed at dispatch speed (DVFS changes don't move it).
            active.spec_event = self.sim.schedule(
                active.base * factor / active.speed,
                self._make_speculation_callback(active.slot),
                priority=3,
            )

    def _make_speculation_callback(self, slot: int) -> Callable[[Simulator], None]:
        def _callback(_sim: Simulator) -> None:
            self._maybe_speculate(slot)

        return _callback

    def _maybe_speculate(self, slot: int) -> None:
        """Launch a backup copy of a still-straggling task if a slot is free."""
        if not self.running:
            return
        active = self._active.get(slot)
        if active is None:
            return
        active.spec_event = None
        if active.copy_slot >= 0 or active.copy_of >= 0 or not self._free_slots:
            return
        copy_slot = self._free_slots.pop()
        now = self.sim.now
        event = self.sim.schedule(
            active.base / self._speed, self._task_callback(copy_slot), priority=1
        )
        self._active[copy_slot] = _ActiveTask(
            slot=copy_slot,
            event=event,
            speed=self._speed,
            started_at=now,
            span_id=self.telemetry.new_span_id() if self.telemetry.tracing else 0,
            base=active.base,
            attempt=active.attempt,
            copy_of=slot,
        )
        active.copy_slot = copy_slot
        self._faults.note_speculation()
        if self.telemetry.enabled:
            self.telemetry.emit(
                "fault.speculate",
                now,
                src=self.telemetry_src,
                job_id=self.job.job_id,
                slot=slot,
                copy_slot=copy_slot,
            )
        self.mark_fault("speculate", slot)

    def _cancel_speculation_check(self, active: _ActiveTask) -> None:
        if active.spec_event is not None:
            active.spec_event.cancel()
            active.spec_event = None

    def _settle_speculation(self, active: _ActiveTask) -> None:
        """``active`` succeeded: drop its pending check and any losing twin."""
        self._cancel_speculation_check(active)
        # First finisher of a primary/copy pair wins; the loser is cancelled
        # through the kernel's existing cancellation path.  A task with no
        # twin has both links at -1, a slot no MapReduce task runs on.
        twin = self._active.pop(
            active.copy_of if active.copy_of >= 0 else active.copy_slot, None
        )
        if twin is not None:
            self._cancel_task(twin, "cancelled")
            self._free_slots.append(twin.slot)

    def _on_task_failed(self, active: _ActiveTask) -> None:
        self._cancel_speculation_check(active)
        copy = self._active.get(active.copy_slot) if active.copy_slot >= 0 else None
        if copy is None:
            super()._on_task_failed(active)
            return
        # The failed primary had a live speculative copy: the copy takes
        # over ownership of the task, the primary just retires.
        self._note_task_failure(active)
        copy.copy_of = -1
        self._release_slot(active.slot)

    def _requeue_lost(self, active: _ActiveTask) -> None:
        # A straggler/copy pair degrades gracefully: the surviving side
        # keeps running and takes ownership.
        if active.copy_of >= 0:
            partner = self._active.get(active.copy_of)
            if partner is not None:
                partner.copy_slot = -1
        elif active.copy_slot >= 0 and active.copy_slot in self._active:
            self._active[active.copy_slot].copy_of = -1
        else:
            self._pending.insert(0, active.base)
