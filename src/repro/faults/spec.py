"""Fault-specification grammar and validation.

A fault spec is a compact command-line string describing which failure
modes a run injects and how recovery reacts.  The grammar is
``kind:key=value,key=value`` segments joined by ``;``::

    crash:mttf=600,repair=30,dist=exp,recovery=requeue,probation=60
    stragglers:p=0.05,slowdown=4,speculate=1.5
    taskfail:p=0.02,retries=3,backoff=1.0,jitter=0.5

Three fault kinds exist:

* ``crash`` — whole-server failures with mean time to failure ``mttf`` and
  repair time ``repair`` (``repair=0`` means the server never comes back).
  ``dist`` selects exponential or deterministic inter-failure/repair times;
  ``recovery`` selects wave re-execution of lost tasks (``requeue``) or a
  full job restart (``restart``); ``probation`` is the post-repair grace
  period before a fleet dispatcher routes to the cluster again.
* ``stragglers`` — each task independently slows down by ``slowdown``× with
  probability ``p``; ``speculate`` launches a backup copy once a straggling
  task exceeds ``speculate``× its nominal duration (``0`` disables
  speculation, first finisher wins).
* ``taskfail`` — each task fails transiently with probability ``p`` and is
  retried up to ``retries`` times with exponential backoff base ``backoff``
  and uniform jitter fraction ``jitter``; exhausted retries escalate to a
  job-level re-execution.

Unknown kinds, keys or enum values raise :class:`ValueError` naming the
valid choices, matching the CLI convention for routers and schedulers.
Non-finite numbers (``nan``, ``inf``) are rejected too, whether parsed or
passed to the spec dataclasses directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, Optional, Tuple, Union

#: Fault kinds understood by :func:`parse_fault_spec`.
FAULT_KINDS = ("crash", "stragglers", "taskfail")

#: Inter-failure / repair time distributions for ``crash``.
CRASH_DISTS = ("exp", "fixed")

#: Crash recovery policies: re-queue lost tasks into the wave, or restart
#: the whole job from scratch.
CRASH_RECOVERIES = ("requeue", "restart")


@dataclass(frozen=True)
class CrashSpec:
    """Server crash/repair process parameters."""

    mttf: float
    repair: float = 60.0
    dist: str = "exp"
    recovery: str = "requeue"
    probation: float = 0.0

    def __post_init__(self) -> None:
        _check_finite("crash mttf", self.mttf)
        _check_finite("crash repair", self.repair)
        _check_finite("crash probation", self.probation)
        if self.mttf <= 0:
            raise ValueError(f"crash mttf must be positive, got {self.mttf!r}")
        if self.repair < 0:
            raise ValueError(f"crash repair must be non-negative, got {self.repair!r}")
        if self.probation < 0:
            raise ValueError(
                f"crash probation must be non-negative, got {self.probation!r}"
            )
        _check_choice("crash dist", self.dist, CRASH_DISTS)
        _check_choice("crash recovery", self.recovery, CRASH_RECOVERIES)

    @property
    def permanent(self) -> bool:
        """``repair=0`` models servers that never come back."""
        return self.repair == 0.0


@dataclass(frozen=True)
class StragglerSpec:
    """Per-task slowdown (straggler) parameters."""

    probability: float
    slowdown: float = 4.0
    speculate: float = 1.5

    def __post_init__(self) -> None:
        _check_finite("straggler slowdown", self.slowdown)
        _check_finite("straggler speculate factor", self.speculate)
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(
                f"straggler p must be in [0, 1], got {self.probability!r}"
            )
        if self.slowdown <= 1.0:
            raise ValueError(
                f"straggler slowdown must be > 1, got {self.slowdown!r}"
            )
        if self.speculate < 0:
            raise ValueError(
                f"straggler speculate factor must be non-negative, got {self.speculate!r}"
            )


@dataclass(frozen=True)
class TaskFailSpec:
    """Transient task-failure and retry-with-backoff parameters."""

    probability: float
    retries: int = 3
    backoff: float = 1.0
    jitter: float = 0.5

    def __post_init__(self) -> None:
        _check_finite("taskfail backoff", self.backoff)
        if not 0.0 <= self.probability <= 1.0:
            raise ValueError(f"taskfail p must be in [0, 1], got {self.probability!r}")
        if self.retries < 0:
            raise ValueError(f"taskfail retries must be non-negative, got {self.retries!r}")
        if self.backoff < 0:
            raise ValueError(f"taskfail backoff must be non-negative, got {self.backoff!r}")
        if not 0.0 <= self.jitter <= 1.0:
            raise ValueError(f"taskfail jitter must be in [0, 1], got {self.jitter!r}")


@dataclass(frozen=True)
class FaultSpec:
    """A full fault plan: any combination of the three fault kinds."""

    crash: Optional[CrashSpec] = None
    stragglers: Optional[StragglerSpec] = None
    taskfail: Optional[TaskFailSpec] = None
    source: str = ""

    @property
    def is_empty(self) -> bool:
        return self.crash is None and self.stragglers is None and self.taskfail is None

    def scaled(self, level: float) -> "FaultSpec":
        """Scale every failure *rate* by ``level`` (for ablation sweeps).

        ``level=0`` disables all faults; ``level=2`` doubles the crash rate
        (halves the MTTF) and doubles the straggler/taskfail probabilities
        (capped at 1).  Repair times, slowdowns and retry policies are left
        unchanged — the sweep varies how often things break, not how badly.
        """
        if level < 0:
            raise ValueError(f"fault level must be non-negative, got {level!r}")
        if level == 0:
            return FaultSpec(source=self.source)
        crash = self.crash
        if crash is not None:
            crash = replace(crash, mttf=crash.mttf / level)
        stragglers = self.stragglers
        if stragglers is not None:
            stragglers = replace(
                stragglers, probability=min(1.0, stragglers.probability * level)
            )
        taskfail = self.taskfail
        if taskfail is not None:
            taskfail = replace(
                taskfail, probability=min(1.0, taskfail.probability * level)
            )
        return FaultSpec(
            crash=crash, stragglers=stragglers, taskfail=taskfail, source=self.source
        )

    def describe(self) -> str:
        """Human-readable one-line summary for reports."""
        parts = []
        if self.crash is not None:
            repair = "permanent" if self.crash.permanent else f"repair={self.crash.repair:g}s"
            parts.append(
                f"crash(mttf={self.crash.mttf:g}s, {repair}, "
                f"{self.crash.dist}, {self.crash.recovery})"
            )
        if self.stragglers is not None:
            spec = (
                f"speculate@{self.stragglers.speculate:g}x"
                if self.stragglers.speculate > 0
                else "no speculation"
            )
            parts.append(
                f"stragglers(p={self.stragglers.probability:g}, "
                f"x{self.stragglers.slowdown:g}, {spec})"
            )
        if self.taskfail is not None:
            parts.append(
                f"taskfail(p={self.taskfail.probability:g}, "
                f"retries={self.taskfail.retries})"
            )
        return "; ".join(parts) if parts else "none"


def _check_finite(name: str, value: float) -> None:
    # NaN passes every range check below, and inf is never a usable rate,
    # duration or factor.
    if not math.isfinite(value):
        raise ValueError(f"{name} must be a finite number, got {value!r}")


def _check_choice(kind: str, value: str, valid: Tuple[str, ...]) -> None:
    if value not in valid:
        raise ValueError(
            f"unknown {kind} {value!r}; valid choices: {', '.join(valid)}"
        )


def _parse_fields(kind: str, text: str, valid_keys: Tuple[str, ...]) -> Dict[str, str]:
    fields: Dict[str, str] = {}
    if not text:
        return fields
    for item in text.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(
                f"malformed {kind} field {item!r}; expected key=value "
                f"(valid keys: {', '.join(valid_keys)})"
            )
        key, _, value = item.partition("=")
        key = key.strip()
        if key not in valid_keys:
            raise ValueError(
                f"unknown {kind} key {key!r}; valid keys: {', '.join(valid_keys)}"
            )
        if key in fields:
            raise ValueError(f"duplicate {kind} key {key!r}")
        fields[key] = value.strip()
    return fields


def _float_field(kind: str, fields: Dict[str, str], key: str, default: float) -> float:
    raw = fields.get(key)
    if raw is None:
        return default
    try:
        return float(raw)
    except ValueError:
        raise ValueError(f"{kind} {key} must be a number, got {raw!r}") from None


def _int_field(kind: str, fields: Dict[str, str], key: str, default: int) -> int:
    raw = fields.get(key)
    if raw is None:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{kind} {key} must be an integer, got {raw!r}") from None


def _required(kind: str, fields: Dict[str, str], key: str) -> None:
    if key not in fields:
        raise ValueError(f"{kind} requires {key}=<value>")


def parse_fault_spec(
    spec: Union[str, "FaultSpec", None]
) -> Optional["FaultSpec"]:
    """Parse a fault-spec string into a :class:`FaultSpec`.

    Accepts an already-parsed :class:`FaultSpec` (returned as-is) or ``None``
    / empty string (returns ``None``: no fault injection).
    """
    if spec is None:
        return None
    if isinstance(spec, FaultSpec):
        return None if spec.is_empty else spec
    text = spec.strip()
    if not text:
        return None
    crash: Optional[CrashSpec] = None
    stragglers: Optional[StragglerSpec] = None
    taskfail: Optional[TaskFailSpec] = None
    for segment in text.split(";"):
        segment = segment.strip()
        if not segment:
            continue
        kind, _, body = segment.partition(":")
        kind = kind.strip().lower()
        _check_choice("fault kind", kind, FAULT_KINDS)
        if kind == "crash":
            if crash is not None:
                raise ValueError("duplicate crash segment in fault spec")
            keys = ("mttf", "repair", "dist", "recovery", "probation")
            fields = _parse_fields("crash", body, keys)
            _required("crash", fields, "mttf")
            crash = CrashSpec(
                mttf=_float_field("crash", fields, "mttf", 0.0),
                repair=_float_field("crash", fields, "repair", 60.0),
                dist=fields.get("dist", "exp").lower(),
                recovery=fields.get("recovery", "requeue").lower(),
                probation=_float_field("crash", fields, "probation", 0.0),
            )
        elif kind == "stragglers":
            if stragglers is not None:
                raise ValueError("duplicate stragglers segment in fault spec")
            keys = ("p", "slowdown", "speculate")
            fields = _parse_fields("stragglers", body, keys)
            _required("stragglers", fields, "p")
            stragglers = StragglerSpec(
                probability=_float_field("stragglers", fields, "p", 0.0),
                slowdown=_float_field("stragglers", fields, "slowdown", 4.0),
                speculate=_float_field("stragglers", fields, "speculate", 1.5),
            )
        else:
            if taskfail is not None:
                raise ValueError("duplicate taskfail segment in fault spec")
            keys = ("p", "retries", "backoff", "jitter")
            fields = _parse_fields("taskfail", body, keys)
            _required("taskfail", fields, "p")
            taskfail = TaskFailSpec(
                probability=_float_field("taskfail", fields, "p", 0.0),
                retries=_int_field("taskfail", fields, "retries", 3),
                backoff=_float_field("taskfail", fields, "backoff", 1.0),
                jitter=_float_field("taskfail", fields, "jitter", 0.5),
            )
    result = FaultSpec(crash=crash, stragglers=stragglers, taskfail=taskfail, source=text)
    return None if result.is_empty else result
