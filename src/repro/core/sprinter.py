"""The sprinter: timers, budget tracking and DVFS actuation (§3.2, §3.3).

If sprinting is enabled, the deflator tells the sprinter the sprint timeout
``T_k`` of every dispatched job.  The sprinter arms a timer; when it fires and
budget remains, it boosts the CPU frequency (via the controller's callbacks,
the simulation analogue of ``cpupower``) until the job ends or the budget is
depleted.  The budget is replenished over time (e.g. six sprint-minutes per
hour) and never exceeds its cap.
"""

from __future__ import annotations

from typing import Callable, Optional, Protocol

from repro.core.config import SprintConfig
from repro.engine.execution import Execution
from repro.simulation.des import Event, Simulator


class SprintBudgetPool(Protocol):
    """Duck-typed shared budget arbiter a sprinter can delegate to."""

    def available(self) -> Optional[float]:
        """Shared sprint-seconds currently available (``None`` = unlimited)."""

    def on_sprint_start(self, sprinter: "Sprinter") -> None:
        """A member sprinter started sprinting."""

    def on_sprint_end(self, sprinter: "Sprinter") -> None:
        """A member sprinter stopped sprinting."""


class Sprinter:
    """Tracks the sprinting budget and drives per-job sprint timers.

    Parameters
    ----------
    sim:
        The simulation kernel (for timers).
    config:
        The sprint configuration (eligibility, timeouts, budget, replenishment).
    on_sprint_start, on_sprint_end:
        Controller callbacks that actually change the cluster frequency, the
        in-flight task completion times and the energy-meter mode, and
        report the transition.  ``on_sprint_end`` can read the sprint's
        length from :attr:`last_sprinted`.
    budget_pool:
        Optional shared budget arbiter (e.g. a fleet-wide
        :class:`~repro.fleet.budget.SharedSprintBudget`).  When given, budget
        accounting is delegated to the pool: the sprinter asks the pool for
        availability, notifies it on sprint start/end, and may be stopped by
        the pool via :meth:`force_stop` when the shared budget runs dry.  The
        local ``config.budget_seconds`` is then ignored.
    on_sprint_denied:
        Optional controller callback for a timeout that found no budget.
    """

    def __init__(
        self,
        sim: Simulator,
        config: SprintConfig,
        on_sprint_start: Callable[[Execution], None],
        on_sprint_end: Callable[[Execution], None],
        budget_pool: Optional["SprintBudgetPool"] = None,
        on_sprint_denied: Optional[Callable[[Execution], None]] = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.on_sprint_start = on_sprint_start
        self.on_sprint_end = on_sprint_end
        self.on_sprint_denied = on_sprint_denied
        self.budget_pool = budget_pool

        self._budget = config.budget_seconds  # None = unlimited
        self._budget_updated_at = sim.now
        self._sprinting = False
        self._sprint_started_at: Optional[float] = None
        self._timer: Optional[Event] = None
        self._exhaust_event: Optional[Event] = None
        self._current: Optional[Execution] = None
        self.total_sprinted_seconds = 0.0
        #: Length of the most recent sprint (seconds).
        self.last_sprinted = 0.0
        self.sprints_started = 0
        self.sprints_denied = 0

    # --------------------------------------------------------------- budget
    @property
    def sprinting(self) -> bool:
        return self._sprinting

    def available_budget(self) -> Optional[float]:
        """Current sprint budget in seconds (``None`` = unlimited)."""
        if self.budget_pool is not None:
            return self.budget_pool.available()
        self._update_budget()
        return self._budget

    def _update_budget(self) -> None:
        if self.budget_pool is not None or self._budget is None:
            self._budget_updated_at = self.sim.now
            return
        now = self.sim.now
        elapsed = now - self._budget_updated_at
        if elapsed <= 0:
            return
        rate = self.config.replenish_rate - (1.0 if self._sprinting else 0.0)
        self._budget += rate * elapsed
        cap = self.config.budget_cap()
        if cap is not None:
            self._budget = min(self._budget, cap)
        self._budget = max(self._budget, 0.0)
        self._budget_updated_at = now

    # ---------------------------------------------------------------- hooks
    def on_dispatch(self, execution: Execution) -> None:
        """A job was dispatched; arm its sprint timer if it is eligible."""
        priority = execution.job.priority
        if not self.config.sprints(priority):
            return
        timeout = self.config.timeout_for(priority)
        self._current = execution
        if timeout <= 0:
            self._try_start_sprint(execution)
        else:
            self._timer = self.sim.schedule(
                timeout, self._make_timer_callback(execution), priority=2
            )

    def on_job_end(self, execution: Execution) -> None:
        """The job completed or was evicted; cancel timers, stop sprinting."""
        if self._timer is not None:
            self._timer.cancel()
            self._timer = None
        if self._sprinting and self._current is execution:
            self._stop_sprint(execution)
        if self._current is execution:
            self._current = None

    # ------------------------------------------------------------ internals
    def _make_timer_callback(self, execution: Execution):
        def _callback(_sim: Simulator) -> None:
            self._timer = None
            if execution.running:
                self._try_start_sprint(execution)

        return _callback

    def _try_start_sprint(self, execution: Execution) -> None:
        self._update_budget()
        if self._sprinting:
            return
        available = self.available_budget()
        if available is not None and available <= 0:
            self.sprints_denied += 1
            if self.on_sprint_denied is not None:
                self.on_sprint_denied(execution)
            return
        self._sprinting = True
        self._sprint_started_at = self.sim.now
        self.sprints_started += 1
        self.on_sprint_start(execution)
        if self.budget_pool is not None:
            # The pool schedules (and reschedules) the shared exhaust event.
            self.budget_pool.on_sprint_start(self)
        elif self._budget is not None:
            net_drain = 1.0 - self.config.replenish_rate
            if net_drain > 0:
                time_to_exhaust = self._budget / net_drain
                self._exhaust_event = self.sim.schedule(
                    time_to_exhaust, self._make_exhaust_callback(execution), priority=2
                )

    def _make_exhaust_callback(self, execution: Execution):
        def _callback(_sim: Simulator) -> None:
            self._exhaust_event = None
            if self._sprinting and self._current is execution:
                self._stop_sprint(execution)

        return _callback

    def force_stop(self) -> None:
        """Stop the current sprint immediately (shared budget exhausted)."""
        if self._sprinting and self._current is not None:
            self._stop_sprint(self._current)

    def _stop_sprint(self, execution: Execution) -> None:
        self._update_budget()
        self._sprinting = False
        sprinted = 0.0
        if self._sprint_started_at is not None:
            sprinted = self.sim.now - self._sprint_started_at
            self.total_sprinted_seconds += sprinted
            self._sprint_started_at = None
        self.last_sprinted = sprinted
        if self._exhaust_event is not None:
            self._exhaust_event.cancel()
            self._exhaust_event = None
        if self.budget_pool is not None:
            self.budget_pool.on_sprint_end(self)
        self.on_sprint_end(execution)
