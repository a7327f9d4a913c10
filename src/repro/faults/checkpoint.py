"""Checkpoint/resume for long simulation runs.

A checkpoint is a pickle of the full dynamic state of a
:class:`~repro.core.dias.DiASSimulation` or
:class:`~repro.fleet.simulation.FleetSimulation` at a *quiescent* simulated
instant: no job buffered, running, or routed-but-unfinished.  Restricting
snapshots to quiescent points keeps the state small and exact — there are no
in-flight task events to serialise, only completed-job metrics, energy/sprint
accounts, RNG states and the fault injector's pending crash/repair
transitions (stored as absolute simulated times and re-scheduled verbatim on
restore).

Determinism contract: a resumed run re-generates the same trace from the
stored configuration, schedules only the arrivals strictly after the
snapshot time, restores every named random stream's bit-generator state, and
re-enters the pending fault transitions at DES priority 3 — so the resumed
run's event order, draws and metrics are bitwise-identical to the
uninterrupted run's.

Checkpoint files are written atomically (temp file + ``os.replace``) so a
process killed mid-write never corrupts the latest good snapshot.
"""

from __future__ import annotations

import os
import pickle
from bisect import bisect_right
from operator import attrgetter
from typing import Any, Dict, Optional, Sequence

#: Bump when the checkpoint layout changes incompatibly.
CHECKPOINT_VERSION = 1


# ---------------------------------------------------------------------------
# Save / load
# ---------------------------------------------------------------------------
def save_checkpoint(path: str, state: Dict[str, Any]) -> None:
    """Atomically write ``state`` to ``path``."""
    tmp_path = f"{path}.tmp"
    with open(tmp_path, "wb") as handle:
        pickle.dump(state, handle, protocol=pickle.HIGHEST_PROTOCOL)
    os.replace(tmp_path, path)


def load_checkpoint(path: str) -> Dict[str, Any]:
    """Load and sanity-check a checkpoint file."""
    with open(path, "rb") as handle:
        state = pickle.load(handle)
    if not isinstance(state, dict) or state.get("magic") != "repro-checkpoint":
        raise ValueError(f"{path!r} is not a repro checkpoint file")
    version = state.get("version")
    if version != CHECKPOINT_VERSION:
        raise ValueError(
            f"unsupported checkpoint version {version!r} in {path!r} "
            f"(this build reads version {CHECKPOINT_VERSION})"
        )
    return state


def arrived_count(jobs: Sequence[Any], now: float) -> int:
    """How many of the arrival-sorted ``jobs`` have arrived by ``now``.

    A job arriving exactly at ``now`` counts as arrived even while its
    arrival event is still in the heap; quiescence checks rely on that to
    reject the instant before it is routed.
    """
    return bisect_right(jobs, now, key=attrgetter("arrival_time"))


# ---------------------------------------------------------------------------
# Per-controller state
# ---------------------------------------------------------------------------
def controller_state(controller) -> Dict[str, Any]:
    """Snapshot one quiescent :class:`DiASSimulation` controller."""
    meter = controller.energy_meter
    state: Dict[str, Any] = {
        "metrics": controller.metrics,
        "completed": controller._completed,
        "total_evictions": controller._total_evictions,
        "job_state": controller._job_state,
        "service_estimates": controller._service_estimates,
        "queued_work": controller._queued_work,
        "energy": {
            "account": meter.account,
            "mode": meter._mode,
            "last_time": meter._last_time,
        },
        "sprinter": None,
        "injector": None,
    }
    sprinter = controller.sprinter
    if sprinter is not None:
        state["sprinter"] = {
            "budget": sprinter._budget,
            "budget_updated_at": sprinter._budget_updated_at,
            "total_sprinted_seconds": sprinter.total_sprinted_seconds,
            "sprints_started": sprinter.sprints_started,
            "sprints_denied": sprinter.sprints_denied,
        }
    if controller.faults is not None:
        state["injector"] = controller.faults.state_dict()
    return state


def restore_controller(controller, state: Dict[str, Any]) -> None:
    """Restore one controller; the shared simulator clock must be set first."""
    controller.metrics = state["metrics"]
    controller._completed = state["completed"]
    controller._total_evictions = state["total_evictions"]
    controller._job_state = dict(state["job_state"])
    controller._service_estimates = dict(state["service_estimates"])
    controller._queued_work = state["queued_work"]
    energy = state["energy"]
    controller.energy_meter.restore(
        energy["account"], energy["mode"], energy["last_time"]
    )
    sprint_state = state["sprinter"]
    if sprint_state is not None and controller.sprinter is not None:
        sprinter = controller.sprinter
        sprinter._budget = sprint_state["budget"]
        sprinter._budget_updated_at = sprint_state["budget_updated_at"]
        sprinter.total_sprinted_seconds = sprint_state["total_sprinted_seconds"]
        sprinter.sprints_started = sprint_state["sprints_started"]
        sprinter.sprints_denied = sprint_state["sprints_denied"]
    if state["injector"] is not None:
        if controller.faults is None:
            raise ValueError(
                "checkpoint carries fault-injector state but the resumed run "
                "was built without faults; pass the same --faults spec"
            )
        controller.faults.restore(state["injector"])
    elif controller.faults is not None:
        raise ValueError(
            "resumed run injects faults but the checkpoint was taken without "
            "them; pass the same --faults spec"
        )
    controller._resume_time = state.get("resume_time")


def _stream_states(streams) -> Dict[str, Any]:
    return {
        name: generator.bit_generator.state
        for name, generator in streams._streams.items()
    }


def _restore_streams(streams, states: Dict[str, Any]) -> None:
    for name, state in states.items():
        streams.stream(name).bit_generator.state = state


# ---------------------------------------------------------------------------
# Fleet-level state
# ---------------------------------------------------------------------------
def fleet_state(fleet, config: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Snapshot one quiescent :class:`FleetSimulation`."""
    now = fleet.sim.now
    dispatcher_state = {}
    if hasattr(fleet.dispatcher, "_next"):
        dispatcher_state["next"] = fleet.dispatcher._next
    budget_state = None
    pool = fleet.budget_pool
    if pool is not None:
        budget_state = {
            "budget": pool._budget,
            "updated_at": pool._updated_at,
            "exhaustions": pool.exhaustions,
        }
    return {
        "magic": "repro-checkpoint",
        "version": CHECKPOINT_VERSION,
        "kind": "fleet",
        "time": now,
        "routed": fleet._routed,
        "dispatch_counts": list(fleet.dispatch_counts),
        "quarantine_redirects": fleet.quarantine_redirects,
        "dispatcher": dispatcher_state,
        "budget_pool": budget_state,
        "streams": _stream_states(fleet.streams),
        "controllers": [controller_state(c) for c in fleet.controllers],
        "next_checkpoint_at": fleet._next_checkpoint_at,
        "config": config,
    }


def restore_fleet(fleet, payload: Dict[str, Any]) -> None:
    """Rehydrate a fresh, not-yet-run :class:`FleetSimulation` from a snapshot."""
    if payload.get("kind") != "fleet":
        raise ValueError(
            f"checkpoint kind {payload.get('kind')!r} cannot resume a fleet run"
        )
    if fleet._ran:
        raise RuntimeError("restore() must be called before run()")
    controllers = payload["controllers"]
    if len(controllers) != fleet.num_clusters:
        raise ValueError(
            f"checkpoint has {len(controllers)} clusters but the resumed run "
            f"was built with {fleet.num_clusters}; configurations must match"
        )
    t0 = payload["time"]
    # The clock moves first: controller/injector restore re-schedules pending
    # fault transitions at absolute times relative to the restored `now`.
    fleet.sim._now = t0
    fleet._resume_time = t0
    fleet._routed = payload["routed"]
    fleet.dispatch_counts = list(payload["dispatch_counts"])
    fleet.quarantine_redirects = payload["quarantine_redirects"]
    if payload["dispatcher"]:
        fleet.dispatcher._next = payload["dispatcher"]["next"]
    budget_state = payload["budget_pool"]
    if budget_state is not None and fleet.budget_pool is not None:
        pool = fleet.budget_pool
        pool._budget = budget_state["budget"]
        pool._updated_at = budget_state["updated_at"]
        pool.exhaustions = budget_state["exhaustions"]
    _restore_streams(fleet.streams, payload["streams"])
    for controller, state in zip(fleet.controllers, controllers):
        state = dict(state)
        state["resume_time"] = t0
        restore_controller(controller, state)
    fleet._next_checkpoint_at = payload["next_checkpoint_at"]


# ---------------------------------------------------------------------------
# Standalone DiAS state
# ---------------------------------------------------------------------------
def dias_state(simulation, config: Optional[Dict[str, Any]] = None) -> Dict[str, Any]:
    """Snapshot one quiescent standalone :class:`DiASSimulation`."""
    return {
        "magic": "repro-checkpoint",
        "version": CHECKPOINT_VERSION,
        "kind": "dias",
        "time": simulation.sim.now,
        "streams": _stream_states(simulation.streams),
        "controller": controller_state(simulation),
        "config": config,
    }


def restore_dias(simulation, payload: Dict[str, Any]) -> None:
    """Rehydrate a fresh, not-yet-run :class:`DiASSimulation` from a snapshot."""
    if payload.get("kind") != "dias":
        raise ValueError(
            f"checkpoint kind {payload.get('kind')!r} cannot resume a DiAS run"
        )
    t0 = payload["time"]
    simulation.sim._now = t0
    _restore_streams(simulation.streams, payload["streams"])
    state = dict(payload["controller"])
    state["resume_time"] = t0
    restore_controller(simulation, state)


def attach_dias_checkpointing(simulation, every: float, path: str) -> None:
    """Periodic quiescent-point checkpoints on a standalone DiAS run.

    Installs an ``on_job_complete`` hook: at the first quiescent completion
    past each ``every``-second mark of the simulated clock, the full state is
    snapshotted to ``path`` (atomically, overwriting the previous snapshot).

    The write is deferred to a zero-delay priority-4 event because the hook
    fires *inside* the completion event, before the controller settles (its
    energy meter flips to idle only after the hook returns); snapshotting
    there would capture mid-event state and break bitwise resume.  The
    deferred event observes only, so checkpointed runs remain
    bitwise-identical to unchecked ones.
    """
    if every <= 0:
        raise ValueError(f"checkpoint interval must be positive, got {every!r}")
    marks = {"next_at": every, "armed": False}

    def _drained(running_ok: bool) -> bool:
        now = simulation.sim.now
        if simulation._running is not None and not running_ok:
            return False
        if len(simulation.buffers):
            return False
        return arrived_count(simulation.jobs, now) == simulation._completed

    def _write(_sim) -> None:
        marks["armed"] = False
        now = simulation.sim.now
        if now < marks["next_at"] or not _drained(running_ok=False):
            return
        save_checkpoint(path, dias_state(simulation))
        marks["next_at"] = now + every

    def _hook() -> None:
        if simulation.sim.now < marks["next_at"]:
            return
        # Inside the completion event `_running` still points at the job
        # that just finished (it is cleared after this hook returns), so the
        # arming check tolerates it; the deferred write re-checks strictly.
        if marks["armed"] or not _drained(running_ok=True):
            return
        marks["armed"] = True
        simulation.sim.schedule(0.0, _write, priority=4)

    simulation.on_job_complete = _hook
