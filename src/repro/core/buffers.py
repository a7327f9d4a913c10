"""Per-priority FCFS job buffers (§3.2).

Arriving jobs are immediately placed in the buffer matching their priority;
each buffer is FCFS; the deflator always serves the head of the highest
non-empty buffer.  Evicted jobs return to the *head* of their buffer so they
are the first of their class to be retried (§2.2).

The structure keeps a running total and a descending-sorted priority list so
the hot queries (``__len__`` from every telemetry sample, ``peek_highest`` /
``pop_highest`` from every dispatch) are O(1)/O(priorities) without a sort;
the list is only re-sorted when a previously unseen priority appears.  It
also keeps :attr:`PriorityBuffers.depth_row`, the per-priority depth fields
of a telemetry sample, current as jobs move, so a sample copies it instead
of rebuilding it.
"""

from __future__ import annotations

from collections import deque
from typing import Deque, Dict, Iterable, List, Optional

from repro.engine.job import Job


class PriorityBuffers:
    """A set of FCFS buffers indexed by priority (higher value = higher priority)."""

    def __init__(self, priorities: Optional[Iterable[int]] = None) -> None:
        self._buffers: Dict[int, Deque[Job]] = {}
        if priorities is not None:
            for priority in priorities:
                self._buffers[int(priority)] = deque()
        self._order: List[int] = sorted(self._buffers, reverse=True)
        self._size = 0
        #: ``depth_p{priority}`` -> queued jobs, in ascending priority order.
        self.depth_row: Dict[str, int] = {}
        #: priority -> its ``depth_row`` key.
        self._row_keys: Dict[int, str] = {}
        self._rebuild_depth_row()

    def _buffer_for(self, priority: int) -> Deque[Job]:
        buf = self._buffers.get(priority)
        if buf is None:
            buf = self._buffers[priority] = deque()
            self._order.append(priority)
            self._order.sort(reverse=True)
            self._rebuild_depth_row()
        return buf

    def _rebuild_depth_row(self) -> None:
        ascending = self._order[::-1]
        self._row_keys = {priority: f"depth_p{priority}" for priority in ascending}
        self.depth_row = {
            self._row_keys[priority]: len(self._buffers[priority])
            for priority in ascending
        }

    # --------------------------------------------------------------- state
    def __len__(self) -> int:
        return self._size

    @property
    def is_empty(self) -> bool:
        return self._size == 0

    def priorities(self) -> List[int]:
        """Priorities with a registered buffer, highest first."""
        return list(self._order)

    def depth(self, priority: int) -> int:
        """Number of jobs queued at ``priority``."""
        return len(self._buffers.get(priority, ()))

    def depths(self) -> Dict[int, int]:
        return {priority: len(buf) for priority, buf in self._buffers.items()}

    # ------------------------------------------------------------ mutation
    def push(self, job: Job) -> None:
        """Enqueue an arriving job at the tail of its priority buffer."""
        self._buffer_for(job.priority).append(job)
        self._size += 1
        self.depth_row[self._row_keys[job.priority]] += 1

    def push_front(self, job: Job) -> None:
        """Return an evicted job to the head of its priority buffer."""
        self._buffer_for(job.priority).appendleft(job)
        self._size += 1
        self.depth_row[self._row_keys[job.priority]] += 1

    def peek_highest(self) -> Optional[Job]:
        """The job that would be dispatched next, without removing it."""
        buffers = self._buffers
        for priority in self._order:
            buf = buffers[priority]
            if buf:
                return buf[0]
        return None

    def highest_waiting_priority(self) -> Optional[int]:
        """Highest priority with at least one queued job."""
        job = self.peek_highest()
        return job.priority if job is not None else None

    def pop_highest(self) -> Optional[Job]:
        """Remove and return the head of the highest non-empty buffer."""
        buffers = self._buffers
        for priority in self._order:
            buf = buffers[priority]
            if buf:
                self._size -= 1
                self.depth_row[self._row_keys[priority]] -= 1
                return buf.popleft()
        return None

    def clear(self) -> None:
        for buf in self._buffers.values():
            buf.clear()
        self._size = 0
        self._rebuild_depth_row()
