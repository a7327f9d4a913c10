"""Execution of one DAG job on the cluster inside the simulator.

:class:`DagExecution` generalises the linear
:class:`~repro.engine.execution.JobExecution`: instead of a fixed sequence of
phases, it maintains the DAG's *frontier* — stages whose parents have all
completed — and lets every ready stage compete for the cluster's ``C``
computing slots.  Each time a slot frees up, the pluggable
:class:`~repro.dag.schedulers.StageScheduler` picks which ready stage the slot
serves next, one task at a time.  Within a stage the usual Spark discipline
holds: all map tasks, then the (serial) shuffle, then all reduce tasks.

Like its linear counterpart, the execution inherits the attempt lifecycle
of :class:`~repro.engine.execution.Execution` — DVFS rescaling, eviction and
fault recovery — so the DiAS controller machinery (sprinter, energy meter,
preemptive baseline) drives DAG jobs unchanged.
"""

from __future__ import annotations

from bisect import insort
from operator import attrgetter
from typing import Callable, Dict, List, Mapping, Optional, Sequence

from repro.dag.analytics import (
    CriticalPathAnalysis,
    analyze_critical_path,
    stage_duration,
    upward_ranks,
)
from repro.dag.graph import DagJob, DagStage
from repro.dag.schedulers import StageScheduler, make_stage_scheduler
from repro.engine.cluster import Cluster
from repro.engine.execution import Execution, _ActiveTask
from repro.engine.job import effective_task_count
from repro.simulation.decisions import STAGE, DecisionHook, DecisionPoint
from repro.simulation.des import Simulator
from repro.telemetry.hub import NULL_HUB, TelemetryHub

#: Sentinel slot key for the job-level setup task.
_SETUP_SLOT = -1

_position = attrgetter("position")


class StageRun:
    """Runtime state of one stage: phase pointer, pending tasks, bookkeeping.

    Satisfies the :class:`~repro.dag.schedulers.StageRunView` protocol the
    stage schedulers observe.
    """

    def __init__(
        self,
        stage: DagStage,
        map_durations: Sequence[float],
        reduce_durations: Sequence[float],
        position: int,
    ) -> None:
        self.stage = stage
        # (durations, parallel) per phase; empty phases are skipped on entry.
        self._phases: List[tuple] = [(list(map_durations), True)]
        if stage.shuffle_time > 0 and reduce_durations:
            self._phases.append(([stage.shuffle_time], False))
        self._phases.append((list(reduce_durations), True))
        self._phase_index = -1
        #: Undispatched task durations of the current phase, last first:
        #: ``pending[-1]`` is the next task to dispatch.
        self.pending: List[float] = []
        self._parallel = True
        self.active = 0
        self.ready_seq = -1
        #: Position in the job's topological stage order; the frontier is
        #: kept sorted by it so candidates come in full-scan order.
        self.position = position
        self.unfinished_parents = len(stage.parents)
        self.done = False
        self.rank = 0.0
        self._undispatched = sum(d for durations, _ in self._phases for d in durations)
        # Trace span of this stage (0 / unset while tracing is off); opened
        # at activation, emitted when the stage finishes or is evicted.
        self.span_id = 0
        self.activated_at = 0.0

    # ----------------------------------------------------- scheduler queries
    @property
    def index(self) -> int:
        return self.stage.index

    @property
    def ready(self) -> bool:
        return self.ready_seq >= 0 and not self.done

    @property
    def pending_tasks(self) -> int:
        return len(self.pending)

    def remaining_work(self) -> float:
        """Undispatched task work left in this stage (seconds)."""
        return self._undispatched

    @property
    def dispatchable(self) -> bool:
        """Whether a free slot could serve a task of this stage right now."""
        if not self.ready or not self.pending:
            return False
        return self._parallel or self.active == 0

    # ------------------------------------------------------------ life cycle
    def activate(self, ready_seq: int) -> None:
        """All parents finished: enter the first non-empty phase."""
        self.ready_seq = ready_seq
        self._advance_to_nonempty_phase()

    def pop_task(self) -> float:
        duration = self.pending.pop()
        self._undispatched -= duration
        self.active += 1
        return duration

    def requeue(self, duration: float) -> None:
        """Return an in-flight task (lost or given up on) to the pending queue.

        The stage still has work, so it is not done and stays in the frontier.
        """
        self.active -= 1
        self.pending.insert(0, duration)
        self._undispatched += duration

    def task_finished(self) -> bool:
        """One task completed; returns ``True`` when the whole stage is done."""
        self.active -= 1
        if self.pending or self.active > 0:
            return False
        self._advance_to_nonempty_phase()
        return self.done

    def _advance_to_nonempty_phase(self) -> None:
        while True:
            self._phase_index += 1
            if self._phase_index >= len(self._phases):
                self.done = True
                self.pending = []
                return
            durations, parallel = self._phases[self._phase_index]
            if durations:
                self.pending = durations[::-1]
                self._parallel = parallel
                return


class DagExecution(Execution):
    """Executes one DAG job's stages on the cluster within the simulator.

    Parameters
    ----------
    scheduler:
        A :class:`StageScheduler` instance or name.  A scheduler whose key is
        fixed once a stage is ready orders the frontier itself; any other is
        consulted once per free slot (see :mod:`repro.dag.schedulers`).
    map_drop_ratio / reduce_drop_ratio:
        Uniform per-stage drop ratios (droppable stages only), mirroring
        :func:`~repro.engine.execution.build_phases`.
    stage_map_drop_ratios / stage_reduce_drop_ratios:
        Optional per-stage ratio overrides (e.g. slack-biased dropping).
    kept_map_indices / kept_reduce_indices:
        Explicit kept-task indices from a dropper plan; take precedence over
        any ratio.
    faults:
        Optional :class:`~repro.faults.injector.FaultInjector`.  DAG tasks
        then draw stragglers and transient failures (retried in place with
        capped exponential backoff) and survive worker crashes by requeueing
        the lost tasks into their stages.  Unlike the linear engine the DAG
        layer launches **no speculative copies**: wave tails are already
        absorbed by the stage frontier, where freed slots immediately serve
        other ready stages instead of idling behind a straggler.
    on_give_up:
        Called with this execution when a task exhausts its retry budget
        (the controller typically evicts and restarts the whole job).
    """

    def __init__(
        self,
        sim: Simulator,
        cluster: Cluster,
        job: DagJob,
        scheduler: StageScheduler = "fifo",
        on_complete: Optional[Callable[["DagExecution"], None]] = None,
        map_drop_ratio: float = 0.0,
        reduce_drop_ratio: float = 0.0,
        stage_map_drop_ratios: Optional[Mapping[int, float]] = None,
        stage_reduce_drop_ratios: Optional[Mapping[int, float]] = None,
        kept_map_indices: Optional[Mapping[int, Sequence[int]]] = None,
        kept_reduce_indices: Optional[Mapping[int, Sequence[int]]] = None,
        setup_drop_ratio: Optional[float] = None,
        telemetry: TelemetryHub = NULL_HUB,
        telemetry_src: str = "dag",
        trace_parent: int = 0,
        faults=None,
        on_give_up: Optional[Callable[["DagExecution"], None]] = None,
        decision_hook: Optional[DecisionHook] = None,
    ) -> None:
        super().__init__(
            sim,
            cluster,
            job,
            on_complete or (lambda execution: None),
            telemetry,
            telemetry_src,
            trace_parent,
            faults,
            on_give_up,
        )
        #: Optional external agent consulted at each stage decision; ``None``
        #: keeps the built-in scheduler path untouched (one check per pick).
        self._decision_hook = decision_hook
        #: (span id, start) of the open setup span when tracing; stage spans
        #: attach to the attempt span, task spans to their stage span.
        self._setup_span: Optional[tuple] = None
        self.scheduler = make_stage_scheduler(scheduler)
        #: Whether the frontier is kept in the scheduler's pick order, so a
        #: free slot takes the first stage that can serve it.  Otherwise it
        #: is kept in topological order and scanned on every pick, which is
        #: also the order the decision hook sees its candidates in.
        self._ordered = self.scheduler.static_key and decision_hook is None
        self._frontier_key = self.scheduler.key if self._ordered else _position
        self._setup_time = job.setup_time(
            map_drop_ratio if setup_drop_ratio is None else setup_drop_ratio
        )

        kept_durations: Dict[int, float] = {}
        self._runs: Dict[int, StageRun] = {}
        for stage in job.dag:
            maps = self._kept(
                stage.map_task_times,
                stage,
                kept_map_indices,
                stage_map_drop_ratios,
                map_drop_ratio,
            )
            reduces = self._kept(
                stage.reduce_task_times,
                stage,
                kept_reduce_indices,
                stage_reduce_drop_ratios,
                reduce_drop_ratio,
            )
            self._runs[stage.index] = StageRun(stage, maps, reduces, len(self._runs))
            kept_durations[stage.index] = stage_duration(
                stage, cluster.slots, map_durations=maps, reduce_durations=reduces
            )
        self.analysis: CriticalPathAnalysis = analyze_critical_path(
            job.dag, cluster.slots, stage_durations=kept_durations
        )
        for index, rank in upward_ranks(
            job.dag, cluster.slots, stage_durations=kept_durations
        ).items():
            self._runs[index].rank = rank

        #: The ready, not-done stages, sorted by ``_frontier_key``: the only
        #: stages a free slot can serve.  A stage enters when activated and
        #: leaves when its last phase finishes, so in topological order a scan
        #: of it yields the same candidates in the same order as a scan of
        #: every stage.
        self._frontier: List[StageRun] = []
        self._ready_counter = 0
        self._remaining_stages = len(self._runs)

    @staticmethod
    def _kept(
        durations: Sequence[float],
        stage: DagStage,
        kept_indices: Optional[Mapping[int, Sequence[int]]],
        stage_ratios: Optional[Mapping[int, float]],
        uniform_ratio: float,
    ) -> List[float]:
        if kept_indices is not None and stage.index in kept_indices:
            return [durations[i] for i in kept_indices[stage.index]]
        if not stage.droppable:
            return list(durations)
        ratio = uniform_ratio
        if stage_ratios is not None:
            ratio = stage_ratios.get(stage.index, uniform_ratio)
        keep = effective_task_count(len(durations), ratio)
        return list(durations[:keep])

    # --------------------------------------------------------------- queries
    @property
    def makespan(self) -> Optional[float]:
        """Total wall time of the completed execution (``None`` before)."""
        return self.elapsed if self.completed else None

    @property
    def lower_bound_makespan(self) -> float:
        """Setup plus the critical-path/work lower bound on the kept tasks."""
        return self._setup_time + self.analysis.lower_bound_makespan

    def stage_run(self, index: int) -> StageRun:
        return self._runs[index]

    # -------------------------------------------------------------- tracing
    def _close_spans(self, outcome: str) -> None:
        for run in sorted(self._frontier, key=_position):
            if run.span_id:
                self._emit_stage_span(run, outcome=outcome)
        if self._setup_span is not None:
            self._emit_setup_span(outcome=outcome)

    def _emit_setup_span(self, outcome: str = "completed") -> None:
        span_id, started = self._setup_span  # type: ignore[misc]
        self._setup_span = None
        self.telemetry.emit(
            "span",
            self.sim.now,
            src=self.telemetry_src,
            span_id=span_id,
            parent_id=self.trace_parent,
            name="setup",
            cat="stage",
            start=started,
            job_id=self.job.job_id,
            stage=-1,
            parents="",
            outcome=outcome,
        )

    def _emit_stage_span(self, run: StageRun, outcome: str = "completed") -> None:
        self.telemetry.emit(
            "span",
            self.sim.now,
            src=self.telemetry_src,
            span_id=run.span_id,
            parent_id=self.trace_parent,
            name="stage",
            cat="stage",
            start=run.activated_at,
            job_id=self.job.job_id,
            stage=run.index,
            parents=",".join(str(p) for p in run.stage.parents),
            pred=self.analysis.durations[run.index],
            outcome=outcome,
        )

    def _emit_task_span(self, active: _ActiveTask, outcome: str = "completed") -> None:
        run = active.stage_run
        self.telemetry.emit(
            "span",
            self.sim.now,
            src=self.telemetry_src,
            span_id=active.span_id,
            parent_id=run.span_id if run is not None else self.trace_parent,
            name="task",
            cat="task",
            start=active.started_at,
            job_id=self.job.job_id,
            slot=active.slot,
            stage=run.index if run is not None else -1,
            outcome=outcome,
        )

    # ------------------------------------------------------------- stages
    def _begin(self) -> None:
        if self._setup_time > 0:
            if self.telemetry.tracing:
                self._setup_span = (self.telemetry.new_span_id(), self.sim.now)
            self._active[_SETUP_SLOT] = _ActiveTask(
                _SETUP_SLOT,
                self.sim.schedule(
                    self._setup_time / self._speed, self._on_setup_done, priority=1
                ),
                self._speed,
                self.sim.now,
            )
        else:
            self._activate_sources()

    def _on_setup_done(self, _sim: Simulator) -> None:
        if not self.running:
            return
        self._active.pop(_SETUP_SLOT, None)
        if self._setup_span is not None:
            self._emit_setup_span()
        self._activate_sources()

    def _activate_sources(self) -> None:
        for index in self.job.dag.sources():
            self._activate_stage(self._runs[index])
        if self._remaining_stages == 0:
            self._finish()
            return
        self._fill_slots()

    def _activate_stage(self, run: StageRun) -> None:
        """Mark ``run`` ready; stages emptied by dropping complete in cascade."""
        tracing = self.telemetry.tracing
        stack = [run]
        while stack:
            current = stack.pop()
            current.activate(self._ready_counter)
            self._ready_counter += 1
            if tracing:
                current.span_id = self.telemetry.new_span_id()
                current.activated_at = self.sim.now
            if self.telemetry.enabled:
                self.telemetry.emit(
                    "stage_scheduled",
                    self.sim.now,
                    src=self.telemetry_src,
                    job_id=self.job.job_id,
                    stage=current.index,
                    pending_tasks=current.pending_tasks,
                )
            if not current.done:
                insort(self._frontier, current, key=self._frontier_key)
            else:
                # Emptied by dropping: record a zero-length stage span so the
                # observed DAG stays structurally complete.
                if tracing:
                    self._emit_stage_span(current)
                self._remaining_stages -= 1
                for child_index in self.job.dag.children(current.index):
                    child = self._runs[child_index]
                    child.unfinished_parents -= 1
                    if child.unfinished_parents == 0:
                        stack.append(child)

    def _fill_slots(self) -> None:
        free = self._free_slots
        frontier = self._frontier
        ordered = self._ordered
        hook = self._decision_hook
        faults = self._faults
        sim = self.sim
        now = sim.now
        speed = self._speed
        active = self._active
        callbacks = self._task_callbacks
        telemetry = self.telemetry
        tracing = telemetry.tracing
        # Ordered path: the frontier holds only ready, not-done stages in
        # pick order, and a pick only makes its own stage less dispatchable,
        # so each pick resumes the scan where the previous one stopped.
        cursor = 0
        while free:
            if ordered:
                size = len(frontier)
                while cursor < size:
                    run = frontier[cursor]
                    if run.pending and (run._parallel or run.active == 0):
                        break
                    cursor += 1
                if cursor == size:
                    break
            else:
                eligible = [run for run in frontier if run.dispatchable]
                if not eligible:
                    break
                if hook is None:
                    run = self.scheduler.select(eligible)
                else:
                    choice = hook(DecisionPoint(STAGE, now, eligible, self.job, self))
                    if not 0 <= choice < len(eligible):
                        raise ValueError(
                            f"decision hook returned invalid stage index {choice} "
                            f"for {len(eligible)} dispatchable stage(s)"
                        )
                    run = eligible[choice]
            slot = free.pop()
            duration = run.pop_task()
            if faults is not None:
                self._start_task(slot, run, duration, attempt=1)
                continue
            callback = callbacks.get(slot)
            if callback is None:
                callback = callbacks[slot] = self._make_task_callback(slot)
            active[slot] = _ActiveTask(
                slot,
                sim.schedule(duration / speed, callback, priority=1),
                speed,
                now,
                telemetry.new_span_id() if tracing else 0,
                run,
            )

    # --------------------------------------------------------- completion
    def _on_task_succeeded(self, active: _ActiveTask) -> None:
        if active.span_id:
            self._emit_task_span(active)
        run = active.stage_run
        if run.task_finished():
            self._frontier.remove(run)
            if run.span_id:
                self._emit_stage_span(run)
            self._remaining_stages -= 1
            for child_index in self.job.dag.children(run.index):
                child = self._runs[child_index]
                child.unfinished_parents -= 1
                if child.unfinished_parents == 0:
                    self._activate_stage(child)
        # ``_release_slot`` inlined: this is the DAG core's per-task path.
        self._free_slots.append(active.slot)
        if self._remaining_stages == 0 and not self._active and not self._retries:
            self._finish()
            return
        self._fill_slots()

    def _release_slot(self, slot: int) -> None:
        self._free_slots.append(slot)
        if self._remaining_stages == 0 and not self._active and not self._retries:
            self._finish()
            return
        self._fill_slots()

    def _refill(self) -> None:
        self._fill_slots()

    def _requeue(self, base: float, stage_run: Optional[StageRun]) -> None:
        # The stage's in-flight count drops and the task is pending again.
        stage_run.requeue(base)

    def _retry_attempt_field(self, attempt: int) -> int:
        return attempt + 1
