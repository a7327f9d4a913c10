"""Cluster power model and energy meter.

The paper reports per-server power of 180 W during normal execution and 270 W
while sprinting (×1.5).  Energy is the time integral of power over the run;
Fig. 11c compares total energy of DiAS variants against the preemptive
baseline.  The meter accumulates energy over intervals of constant operating
mode (``idle``, ``busy``, ``sprint``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Sequence

from repro.simulation.metrics import EnergyAccount


@dataclass(frozen=True)
class PowerModel:
    """Cluster-level power draw per operating mode (watts).

    ``active_servers`` scales the per-server figures to the whole cluster; the
    defaults describe one server-equivalent so results stay directly
    comparable to the paper's per-server numbers.
    """

    idle_watts: float = 90.0
    busy_watts: float = 180.0
    sprint_watts: float = 270.0
    active_servers: int = 1

    def __post_init__(self) -> None:
        if min(self.idle_watts, self.busy_watts, self.sprint_watts) < 0:
            raise ValueError("power figures must be non-negative")
        if self.active_servers <= 0:
            raise ValueError("active_servers must be positive")
        if self.sprint_watts < self.busy_watts:
            raise ValueError("sprint power must be at least busy power")

    def power(self, mode: str) -> float:
        """Cluster power draw (watts) in ``mode``."""
        per_server = {
            "idle": self.idle_watts,
            "busy": self.busy_watts,
            "sprint": self.sprint_watts,
        }
        if mode not in per_server:
            raise ValueError(f"unknown power mode {mode!r}")
        return per_server[mode] * self.active_servers


class EnergyMeter:
    """Integrates cluster power over time, split by operating mode.

    The meter is driven by the controller: every time the operating mode
    changes (job starts, sprint begins/ends, job completes), the controller
    calls :meth:`set_mode` with the current simulation time.  The meter
    charges the elapsed interval to the previous mode.  The current mode's
    wattage is looked up once per mode change (the power model is frozen),
    not on every charge or projection.
    """

    def __init__(self, power_model: PowerModel, start_time: float = 0.0) -> None:
        self.power_model = power_model
        self.account = EnergyAccount()
        self._mode = "idle"
        self._watts = power_model.power("idle")
        self._last_time = float(start_time)

    @property
    def mode(self) -> str:
        """Current operating mode."""
        return self._mode

    def set_mode(self, mode: str, now: float) -> None:
        """Switch to ``mode`` at simulated time ``now``."""
        self.advance(now)
        if mode not in ("idle", "busy", "sprint"):
            raise ValueError(f"unknown power mode {mode!r}")
        self._mode = mode
        self._watts = self.power_model.power(mode)

    def restore(self, account: EnergyAccount, mode: str, last_time: float) -> None:
        """Reinstate the state :mod:`repro.faults.checkpoint` saved."""
        self.account = account
        self._mode = mode
        self._watts = self.power_model.power(mode)
        self._last_time = last_time

    def advance(self, now: float) -> None:
        """Charge the interval since the last update to the current mode."""
        if now < self._last_time:
            raise ValueError(
                f"energy meter cannot move backwards in time ({now!r} < {self._last_time!r})"
            )
        duration = now - self._last_time
        if duration > 0:
            joules = duration * self._watts
            self.account.add(self._mode, joules)
        self._last_time = now

    def snapshot(self, now: float) -> dict:
        """Read the meter as of ``now`` *without* advancing it.

        Telemetry samplers must not call :meth:`advance`: splitting an
        interval at a sample instant changes the floating-point summation
        order and therefore the final energy totals, breaking the guarantee
        that sampled runs equal unsampled ones bit for bit.  This projects the
        in-flight interval onto the current mode without mutating any state.
        """
        return {
            "energy_joules": self.projected_joules(now),
            "power_mode": self._mode,
        }

    def projected_joules(self, now: float) -> float:
        """Total joules as of ``now`` without advancing the meter."""
        return self.projected_joules_at((now,))[0]

    def projected_joules_at(self, times: Sequence[float]) -> List[float]:
        """Total joules as of each of ``times``, without advancing the meter.

        The scalar core of :meth:`snapshot`, for a whole gap between two
        events at once, so that a telemetry sampler reads the meter once
        per gap rather than once per tick.
        """
        total = self.account.total_joules
        last = self._last_time
        watts = self._watts
        joules = []
        for now in times:
            elapsed = now - last
            # ``max(0.0, elapsed)`` bit for bit, without a builtin call.
            joules.append(total + (elapsed if elapsed > 0.0 else 0.0) * watts)
        return joules

    @property
    def total_joules(self) -> float:
        return self.account.total_joules

    @property
    def total_kilojoules(self) -> float:
        return self.account.total_kilojoules
