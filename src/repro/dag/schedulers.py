"""Pluggable stage schedulers: which ready stage gets free slots.

When a DAG job runs on the cluster, several stages can be ready at once and
together hold more pending tasks than there are free computing slots.  A
:class:`StageScheduler` decides, one task at a time, which ready stage the
next free slot serves — the DAG-level analogue of the fleet layer's routing
dispatchers.

Implemented policies
--------------------
* :class:`FifoStageScheduler` — serve stages in the order they became ready
  (ties by stage index); the work-conserving baseline.
* :class:`CriticalPathFirstScheduler` — serve the ready stage with the
  largest HEFT-style upward rank (longest remaining path to a sink), i.e.
  keep the critical path moving and let off-path stages fill leftover slots.
* :class:`ShortestRemainingWorkScheduler` — serve the stage with the least
  undispatched work (SRPT-flavoured; drains narrow stages fast to unlock
  their children).
* :class:`WidestFirstScheduler` — serve the stage with the most pending
  tasks, maximising immediate slot occupancy.

A policy is nothing more than an ordering
-----------------------------------------
Every built-in scheduler is one tie-broken sort key over the stages: the
smallest key wins and :meth:`StageScheduler.select` is ``min(ready,
key=self.key)``.  Each key ends in ``(ready_seq, index)``, and ``ready_seq``
is unique within a job, so two ready stages never tie and the pick does not
depend on the order the candidates come in.  Runs with the same seed are
byte-identical.

The keys of ``fifo`` and ``critical_path_first`` read only what is fixed
once a stage is ready (its ready order, index and upward rank); those
schedulers set :attr:`StageScheduler.static_key`.  A
:class:`~repro.dag.execution.DagExecution` with such a scheduler and no
decision hook keeps its frontier sorted by the key as stages become ready
and serves each free slot from the first frontier stage that can take a
task: the same stage ``select`` would pick, without building a candidate
list per task.  The keys of ``shortest_remaining_work`` and ``widest_first``
change as tasks are dispatched, so the execution scans its frontier (kept in
topological order) and calls ``select`` once per task.  A custom scheduler
may override ``select`` alone and leave ``static_key`` false.
"""

from __future__ import annotations

from typing import Callable, Dict, Protocol, Sequence, Union


class StageRunView(Protocol):
    """What a stage scheduler may observe about one runnable stage."""

    @property
    def index(self) -> int:
        """Stage index within the job's DAG."""

    @property
    def ready_seq(self) -> int:
        """Monotonic counter of when the stage became ready."""

    @property
    def rank(self) -> float:
        """Upward rank (critical-path distance to a sink, seconds)."""

    @property
    def pending_tasks(self) -> int:
        """Tasks of the current phase not yet dispatched."""

    def remaining_work(self) -> float:
        """Undispatched task work left in this stage (seconds)."""


class StageScheduler:
    """Base class: pick the ready stage the next free slot should serve."""

    name = "stage-scheduler"

    #: Whether :meth:`key` is fixed from the moment a stage becomes ready,
    #: so an execution may keep its frontier sorted by it.
    static_key = False

    def key(self, run: StageRunView) -> tuple:
        """Sort key of ``run``; the ready stage with the smallest key wins."""
        raise NotImplementedError

    def select(self, ready: Sequence[StageRunView]) -> StageRunView:
        return min(ready, key=self.key)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"<{type(self).__name__} {self.name!r}>"


class FifoStageScheduler(StageScheduler):
    """First-ready-first-served (ties broken by stage index)."""

    name = "fifo"
    static_key = True

    @staticmethod
    def key(run: StageRunView) -> tuple:
        return (run.ready_seq, run.index)


class CriticalPathFirstScheduler(StageScheduler):
    """Largest upward rank first — keep the critical path supplied with slots."""

    name = "critical_path_first"
    static_key = True

    @staticmethod
    def key(run: StageRunView) -> tuple:
        return (-run.rank, run.ready_seq, run.index)


class ShortestRemainingWorkScheduler(StageScheduler):
    """Least undispatched work first — drain narrow stages to unlock children."""

    name = "shortest_remaining_work"

    @staticmethod
    def key(run: StageRunView) -> tuple:
        return (run.remaining_work(), run.ready_seq, run.index)


class WidestFirstScheduler(StageScheduler):
    """Most pending tasks first — maximise immediate slot occupancy."""

    name = "widest_first"

    @staticmethod
    def key(run: StageRunView) -> tuple:
        return (-run.pending_tasks, run.ready_seq, run.index)


#: Scheduler names accepted by :func:`make_stage_scheduler` (and the CLI).
STAGE_SCHEDULERS = (
    "fifo",
    "critical_path_first",
    "shortest_remaining_work",
    "widest_first",
)

_FACTORIES: Dict[str, Callable[[], StageScheduler]] = {
    "fifo": FifoStageScheduler,
    "critical_path_first": CriticalPathFirstScheduler,
    "shortest_remaining_work": ShortestRemainingWorkScheduler,
    "widest_first": WidestFirstScheduler,
}


def make_stage_scheduler(name: Union[str, StageScheduler]) -> StageScheduler:
    """Build a stage scheduler by name (idempotent on scheduler instances)."""
    if isinstance(name, StageScheduler):
        return name
    key = str(name).strip().lower().replace("-", "_")
    factory = _FACTORIES.get(key)
    if factory is None:
        raise ValueError(
            f"unknown stage scheduler {name!r}; expected one of "
            f"{', '.join(STAGE_SCHEDULERS)}"
        )
    return factory()
