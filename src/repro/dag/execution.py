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
preemptive baseline) drives DAG jobs unchanged.  On the per-task path every
stage task starts in the base's ``_start_task``, and every task, the job's
setup included, ends in the base's per-slot callback, with or without a
fault injector: a task that did not fail goes to
:meth:`DagExecution._on_task_succeeded`.  The setup activates the source
stages there; a stage task finishes its stage, activates the children it
frees, then goes to ``_release_slot`` (free the slot and refill).

**Private runs.**  An unobserved attempt — no fault injector, no tracing
and no decision hook — runs privately (see :mod:`repro.engine.execution`):
:meth:`DagExecution.start` runs it to the end at once on a private
``(time, seq)`` heap of task ends.  The private run is one loop of its own:
it does not call the per-task path's ``_on_task_succeeded``,
``_activate_stage`` or ``_fill_slots``, but repeats what they do, inline and
without telemetry.  What keeps the two paths equal is that the loop makes
the same state changes in the same order: the same float expressions for
task ends and undispatched work, the same ``(time, dispatch seq)`` tie
order, the same ready order (a cascade of stages emptied by dropping runs
depth first, one finished parent's children in index order), and the same
last-in, first-out use of the free slots.
``tests/properties/test_private_run_equivalence.py`` checks this for every
built-in scheduler: completion times, the state after a materialising speed
change, and every stage's state at the end.
"""

from __future__ import annotations

import math
from bisect import insort
from heapq import heappop, heappush, heapreplace
from operator import attrgetter
from typing import Any, Callable, Dict, List, Mapping, Optional, Sequence, Tuple

from repro.dag.analytics import (
    CriticalPathAnalysis,
    analyze_critical_path,
    stage_duration,
)
from repro.dag.graph import DagJob, DagStage
from repro.dag.schedulers import StageScheduler, make_stage_scheduler
from repro.engine.cluster import Cluster
from repro.engine.execution import Execution, _ActiveTask, kept_task_times
from repro.simulation.decisions import STAGE, DecisionHook, DecisionPoint
from repro.simulation.des import Simulator
from repro.telemetry.hub import NULL_HUB, TelemetryHub

#: Sentinel slot key for the job-level setup task, and its span group's key.
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
        maps = list(map_durations)
        reduces = list(reduce_durations)
        shuffle = [stage.shuffle_time] if stage.shuffle_time > 0 and reduces else []
        # (durations, parallel) per phase; empty phases are skipped on entry.
        self._phases = [(maps, True), (shuffle, False), (reduces, True)]
        self._work = sum(maps + shuffle + reduces)
        #: The runs of this stage's children, in index order (set by the
        #: execution once every run exists).
        self.children: List[StageRun] = []
        #: Position in the job's topological stage order; the frontier is
        #: kept sorted by it so candidates come in full-scan order.  It is
        #: also the key of the stage's span group.
        self.position = position
        self.rank = 0.0
        self.reset()

    def reset(self) -> None:
        """Return to the state before the attempt started."""
        self._phase_index = -1
        #: Undispatched task durations of the current phase, last first:
        #: ``pending[-1]`` is the next task to dispatch.
        self.pending: List[float] = []
        self._parallel = True
        self.active = 0
        self.ready_seq = -1
        self.unfinished_parents = len(self.stage.parents)
        self.done = False
        self._undispatched = self._work

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
        Uniform per-stage drop ratios (droppable stages only), applied by
        :func:`~repro.engine.execution.kept_task_times` as for a MapReduce job.
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

        dag = job.dag
        slots = cluster.slots
        kept_durations: Dict[int, float] = {}
        runs: Dict[int, StageRun] = {}
        for stage in dag:
            maps = kept_task_times(
                stage.map_task_times, stage, kept_map_indices, map_drop_ratio
            )
            reduces = kept_task_times(
                stage.reduce_task_times, stage, kept_reduce_indices, reduce_drop_ratio
            )
            runs[stage.index] = StageRun(stage, maps, reduces, len(runs))
            kept_durations[stage.index] = stage_duration(stage, slots, maps, reduces)
        self._runs = runs
        self.analysis: CriticalPathAnalysis = analyze_critical_path(
            dag, slots, stage_durations=kept_durations
        )
        ranks = self.analysis.ranks
        for run in runs.values():
            run.children = [runs[index] for index in dag.children(run.index)]
            run.rank = ranks[run.index]
        #: The source stages' runs, in index order.
        self._sources = [runs[index] for index in dag.sources()]

        #: The ready, not-done stages, sorted by ``_frontier_key``: the only
        #: stages a free slot can serve.  A stage enters when activated and
        #: leaves when its last phase finishes, so in topological order a scan
        #: of it yields the same candidates in the same order as a scan of
        #: every stage.
        self._frontier: List[StageRun] = []
        self._ready_counter = 0
        self._remaining_stages = len(runs)

    # --------------------------------------------------------------- queries
    @property
    def makespan(self) -> Optional[float]:
        """Total wall time of the completed execution (``None`` before)."""
        return self.elapsed if self.completed else None

    @property
    def lower_bound_makespan(self) -> float:
        """Setup plus the critical-path/work lower bound on the kept tasks."""
        return self._setup_time + self.analysis.lower_bound_makespan

    def attempt_span_fields(self) -> Dict[str, Any]:
        """PERT predictions so reports can compare observed and predicted paths.

        ``cp`` is the predicted critical path, ``cp_len`` its length and
        ``lb`` the lower-bound makespan.
        """
        analysis = self.analysis
        return {
            "cp": ",".join(str(i) for i in analysis.critical_path),
            "cp_len": analysis.critical_path_length,
            "lb": self.lower_bound_makespan,
        }

    def stage_run(self, index: int) -> StageRun:
        """Runtime state of stage ``index``.

        While a privately run attempt is in progress this is its state at
        the attempt's end (see the module docstring), not at ``sim.now``.
        """
        return self._runs[index]

    # ------------------------------------------------------------- stages
    def _observed(self) -> bool:
        # The hook is consulted at each pick, so it sees every one.
        return self._decision_hook is not None or super()._observed()

    def _enter(self) -> None:
        """Start the setup task, or the source stages when there is none."""
        if self._setup_time <= 0:
            self._activate_sources()
        else:
            self._open_span(_SETUP_SLOT, "setup", "stage", stage=-1, parents="")
            self._active[_SETUP_SLOT] = _ActiveTask(
                _SETUP_SLOT,
                self.sim.schedule(
                    self._setup_time / self._speed,
                    self._task_callback(_SETUP_SLOT),
                    priority=1,
                ),
                self._speed,
                self.sim.now,
            )

    def _activate_sources(self) -> None:
        for run in self._sources:
            self._activate_stage(run)
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
                self._open_span(
                    current.position, "stage", "stage",
                    stage=current.index,
                    parents=",".join(str(p) for p in current.stage.parents),
                    pred=self.analysis.durations[current.index],
                )
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
                self._close_span(current.position)
                self._remaining_stages -= 1
                for child in current.children:
                    child.unfinished_parents -= 1
                    if child.unfinished_parents == 0:
                        stack.append(child)

    def _fill_slots(self) -> None:
        free = self._free_slots
        frontier = self._frontier
        ordered = self._ordered
        now = self.sim.now
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
                hook = self._decision_hook
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
            self._start_task(free.pop(), run, run.pop_task())

    # --------------------------------------------------------- completion
    def _on_task_succeeded(self, active: _ActiveTask) -> None:
        """The setup ended: activate the sources.  A task of a stage ended:
        finish stages, then free and refill."""
        run = active.stage_run
        if run is None:
            self._close_span(_SETUP_SLOT)
            self._activate_sources()
            return
        if active.span_id:
            self._emit_task_span(active)
        if run.task_finished():
            self._frontier.remove(run)
            self._close_span(run.position)
            self._remaining_stages -= 1
            for child in run.children:
                child.unfinished_parents -= 1
                if child.unfinished_parents == 0:
                    self._activate_stage(child)
        self._release_slot(active.slot)

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

    # ------------------------------------------------------------ private run
    def _run_private(
        self, until: float, inclusive: bool
    ) -> Tuple[List[tuple], Optional[float]]:
        """Run the attempt from its start on a private heap up to ``until``.

        Private events at ``until`` itself run only when ``inclusive``.
        Returns the heap of ``(end, dispatch seq, slot, stage run)`` entries
        of the tasks still in flight (stage run ``None`` for the setup) and
        the time of the last private event that ran (``None`` if none did).

        One loop serves every scheduler.  It does what ``_activate_stage``,
        ``_on_task_succeeded`` and ``_fill_slots`` do on the per-task path, without
        telemetry and without a call per task: ordered frontiers resume a
        cursor, the others call ``scheduler.select`` on the eligible stages.
        The free-slot list is last in, first out, so the slot a task just
        freed is the first one handed out again; its heap entry is replaced
        in place rather than popped and pushed.
        """
        heap: List[tuple] = []
        free = self._free_slots
        frontier = self._frontier
        key = self._frontier_key
        select = None if self._ordered else self.scheduler.select
        speed = self._speed
        clock = self.start_time
        last: Optional[float] = None
        seq = 0
        ready_seq = self._ready_counter
        finished = 0
        ready, decrement = self._sources, False
        if self._setup_time > 0:
            heap.append((clock + self._setup_time / speed, 0, _SETUP_SLOT, None))
            seq = 1
            ready = ()
        #: The slot of ``heap[0]``, a task that has just ended, until the
        #: slot is handed out again or freed.
        slot: Optional[int] = None
        while True:
            # Activate the stages in ``ready`` (after one more finished
            # parent, when ``decrement``); stages emptied by dropping
            # complete in cascade.
            for root in ready:
                if decrement:
                    root.unfinished_parents -= 1
                    if root.unfinished_parents:
                        continue
                stack = [root]
                while stack:
                    current = stack.pop()
                    current.ready_seq = ready_seq
                    ready_seq += 1
                    current._advance_to_nonempty_phase()
                    if not current.done:
                        insort(frontier, current, key=key)
                        continue
                    finished += 1
                    for child in current.children:
                        child.unfinished_parents -= 1
                        if not child.unfinished_parents:
                            stack.append(child)
            # Fill the freed slot, then any idle ones.
            cursor = 0
            size = len(frontier)
            while slot is not None or free:
                if select is None:
                    while cursor < size:
                        run = frontier[cursor]
                        if run.pending and (run._parallel or not run.active):
                            break
                        cursor += 1
                    else:
                        break
                else:
                    eligible = [
                        run for run in frontier
                        if run.pending and (run._parallel or not run.active)
                    ]
                    if not eligible:
                        break
                    run = select(eligible)
                duration = run.pending.pop()
                run._undispatched -= duration
                run.active += 1
                if slot is not None:
                    heapreplace(heap, (clock + duration / speed, seq, slot, run))
                    slot = None
                else:
                    heappush(heap, (clock + duration / speed, seq, free.pop(), run))
                seq += 1
            if slot is not None:
                heappop(heap)
                free.append(slot)
                slot = None
            if not heap:
                break
            time, _seq, slot, run = heap[0]
            if time > until or (time == until and not inclusive):
                break
            clock = last = time
            ready = ()
            if run is None:
                heappop(heap)
                slot = None
                ready, decrement = self._sources, False
                continue
            # ``StageRun.task_finished`` inlined.
            run.active -= 1
            if run.pending or run.active:
                continue
            run._advance_to_nonempty_phase()
            if run.done:
                frontier.remove(run)
                finished += 1
                ready, decrement = run.children, True
        self._ready_counter = ready_seq
        self._remaining_stages -= finished
        return heap, last

    def _private_end(self) -> Optional[float]:
        return self._run_private(math.inf, True)[1]

    def _replay(self, until: float, inclusive: bool) -> List[tuple]:
        for run in self._runs.values():
            run.reset()
        self._frontier = []
        self._ready_counter = 0
        self._remaining_stages = len(self._runs)
        self._free_slots = list(range(self.cluster.slots))
        return self._run_private(until, inclusive)[0]
