"""Per-layer attribution of a cProfile'd timed region.

Layers are named after the modules of ``src/repro`` (:data:`LAYERS`).  A
layer's self time is the self time of its modules' functions.  Time spent in
functions outside ``repro`` (builtins, the standard library, numpy) is
charged to the nearest calling ``repro`` function, following the pstats
caller entries: first by each caller's share of the callee's self time, then
up through non-``repro`` callers by their share of cumulative time.  Time
that reaches no ``repro`` caller (the benchmark's own code) stays
unattributed, which is what ``profile.attributed_share`` reports.

Counts are cProfile call counts of named functions (:data:`COUNTED`), so
they repeat exactly for a given seed; counts that public objects expose
directly are read there instead (``ledger_workloads.COUNTERS``).  A name that
no longer resolves (the function was renamed) counts 0 and is reported on
stderr.
"""

from __future__ import annotations

import importlib
import os
import sys
from typing import Dict, Iterable, List, Optional, Tuple

#: Layer name -> paths under ``src/repro``; a path ending in ``/`` is a package.
LAYERS: Dict[str, Tuple[str, ...]] = {
    "simulation.des": ("simulation/des.py",),
    "simulation.metrics": ("simulation/metrics.py",),
    "simulation.support": (
        "simulation/__init__.py",
        "simulation/decisions.py",
        "simulation/random_streams.py",
        "simulation/replication.py",
    ),
    "engine": ("engine/",),
    "dag": ("dag/",),
    "core": ("core/",),
    "fleet": ("fleet/",),
    "traces": ("traces/",),
    "telemetry": ("telemetry/",),
    "env": ("env/",),
    "faults": ("faults/",),
    "workloads": ("workloads/",),
    "models": ("models/",),
    "mapreduce": ("mapreduce/",),
    "experiments": ("experiments/",),
    "cli": ("__init__.py", "__main__.py", "cli.py"),
}

_SCHEDULERS = "repro.dag.schedulers:"
_DISPATCHERS = "repro.fleet.dispatcher:"

#: Count metric -> functions whose call counts it sums ("module:Qualified.name").
COUNTED: Dict[str, Tuple[str, ...]] = {
    "simulation.des.events_cancelled": ("repro.simulation.des:Event.cancel",),
    "engine.executions_started": ("repro.engine.execution:JobExecution.start",),
    "engine.set_speed_calls": ("repro.engine.execution:JobExecution.set_speed",),
    "engine.evict_calls": ("repro.engine.execution:JobExecution.evict",),
    "dag.dispatchable_calls": ("repro.dag.execution:StageRun.dispatchable",),
    # Stage-scheduler selections; on the env path the agent behind the
    # decision hook selects instead (``env.decisions``).
    "dag.select_calls": tuple(
        _SCHEDULERS + name + ".select"
        for name in (
            "FifoStageScheduler",
            "CriticalPathFirstScheduler",
            "ShortestRemainingWorkScheduler",
            "WidestFirstScheduler",
        )
    ),
    "core.drop_plans": ("repro.core.dropper:TaskDropper.plan",),
    "core.sprints_started": (
        "repro.core.dias:DiASSimulation._on_sprint_start",
        "repro.dag.simulation:DagSimulation._on_sprint_start",
    ),
    "core.sprints_denied": (
        "repro.core.dias:DiASSimulation._on_sprint_denied",
        "repro.dag.simulation:DagSimulation._on_sprint_denied",
    ),
    "core.evictions": (
        "repro.core.dias:DiASSimulation._evict_running",
        "repro.dag.simulation:DagSimulation._evict_running",
    ),
    "fleet.route_calls": tuple(
        _DISPATCHERS + name + ".select"
        for name in (
            "RandomDispatcher",
            "RoundRobinDispatcher",
            "JoinShortestQueueDispatcher",
            "LeastWorkLeftDispatcher",
            "PriorityPartitionedDispatcher",
        )
    ),
    "simulation.metrics.records": ("repro.simulation.metrics:MetricsCollector.record_job",),
    "simulation.metrics.quantile_updates": ("repro.simulation.metrics:P2Quantile.add",),
    "telemetry.events_emitted": (
        "repro.telemetry.hub:TelemetryHub.emit",
        "repro.telemetry.hub:TelemetryHub.emit_event",
    ),
}

#: Generator whose cumulative time is trace ingest.
INGEST = "repro.traces.replay:ReplaySource.__iter__"

FuncKey = Tuple[str, int, str]


def package_dir() -> str:
    import repro

    return os.path.dirname(os.path.abspath(repro.__file__))


def layers_matching(rel: str) -> List[str]:
    """Every layer whose paths cover ``rel`` (a path under ``src/repro``)."""
    return [
        layer
        for layer, patterns in LAYERS.items()
        if any(rel == p or (p.endswith("/") and rel.startswith(p)) for p in patterns)
    ]


def layer_of(filename: str, pkg_dir: str) -> Optional[str]:
    """The layer of a source file, or ``None`` outside ``src/repro``."""
    path = os.path.abspath(filename)
    if not path.startswith(pkg_dir + os.sep):
        return None
    matches = layers_matching(path[len(pkg_dir) + 1:].replace(os.sep, "/"))
    return matches[0] if matches else None


def resolve(spec: str) -> Optional[FuncKey]:
    """pstats key of ``module:Qualified.name``."""
    module_name, _, qualname = spec.partition(":")
    try:
        target = importlib.import_module(module_name)
    except ImportError:
        return None
    for part in qualname.split("."):
        target = getattr(target, part, None)
    if isinstance(target, property):
        target = target.fget
    code = getattr(target, "__code__", None)
    if code is None:
        return None
    return (code.co_filename, code.co_firstlineno, code.co_name)


def _resolve_all(specs: Iterable[str]) -> List[FuncKey]:
    keys = []
    for spec in specs:
        key = resolve(spec)
        if key is None:
            print(f"ledger: cannot resolve {spec}; it counts 0", file=sys.stderr)
        else:
            keys.append(key)
    return keys


def _calls(stats: Dict, keys: Iterable[FuncKey]) -> int:
    return sum(stats[key][1] for key in keys if key in stats)


def analyse(stats: Dict) -> Dict:
    """Layer self seconds, counts and ingest seconds of one profiled region.

    ``stats`` is ``pstats.Stats(profiler).stats``: ``func -> (cc, nc, tt, ct,
    callers)`` with ``callers: caller -> (cc, nc, tt, ct)``.
    """
    pkg_dir = package_dir()
    layers = {func: layer_of(func[0], pkg_dir) for func in stats}
    upward: Dict[FuncKey, Dict[str, float]] = {}

    def charge(func: FuncKey, weight_index: int, path: frozenset) -> Dict[str, float]:
        """Layer fractions of time flowing from ``func`` to its callers."""
        callers = stats[func][4] if func in stats else {}
        weights = {caller: entry[weight_index] for caller, entry in callers.items()}
        if not any(weights.values()):  # too fast to time: split by call count
            weights = {caller: entry[1] for caller, entry in callers.items()}
        total = sum(weights.values())
        shares: Dict[str, float] = {}
        for caller, weight in weights.items():
            if not weight or caller in path:
                continue
            if layers.get(caller) is not None:
                fractions = {layers[caller]: 1.0}
            else:
                if caller not in upward:
                    upward[caller] = charge(caller, 3, path | {caller})
                fractions = upward[caller]
            for name, fraction in fractions.items():
                shares[name] = shares.get(name, 0.0) + weight / total * fraction
        return shares

    self_s = {layer: 0.0 for layer in LAYERS}
    total_s = 0.0
    for func, (_, _, tt, _, _) in stats.items():
        total_s += tt
        layer = layers[func]
        if layer is not None:
            self_s[layer] += tt
            continue
        for name, fraction in charge(func, 2, frozenset({func})).items():
            self_s[name] += tt * fraction

    counts = {metric: _calls(stats, _resolve_all(specs)) for metric, specs in COUNTED.items()}
    ingest = _resolve_all([INGEST])
    ingest_s = sum(stats[key][3] for key in ingest if key in stats)
    return {"self_s": self_s, "total_s": total_s, "counts": counts, "ingest_s": ingest_s}
