"""One child process of ``bench.py``: repeated cycles of one workload.

Usage: ``python ledger_child.py '<json request>'`` with ``src`` on
``PYTHONPATH``.  The request is ``{"mode": "child", "workload", "seed",
"size", "inputs", "budget_s", "profile", "heap"}``, or ``{"mode": "prepare",
"workload", "seed", "size", "workdir"}`` for the once-per-invocation input
generation.  The last stdout line is the JSON result.  ``LEDGER_SPAWNED_AT``
(wall-clock seconds) marks when the parent started the process, so
``setup_s`` covers interpreter start-up as well as imports and construction.
"""

from __future__ import annotations

import gc
import json
import os
import resource
import sys
import time
import tracemalloc
from typing import Dict, Mapping, Optional, Tuple

from ledger_workloads import (
    REFERENCE_CALIBRATION_S,
    WORKLOADS,
    Outcome,
    Phases,
    calibrate,
    digest,
)


def traced_cycle(name: str, seed: int, size: Mapping, inputs: Mapping) -> Tuple[Outcome, float]:
    """One more cycle under ``tracemalloc``; returns it and its peak heap in MB.

    Only blocks allocated during the cycle are traced.  The imports are done
    by then, so the peak is the workload's own memory: its inputs, its
    simulation objects and whatever they keep while they run.  The cycle
    starts right after a full collection, so the peak depends on the seed
    alone, not on the host or on earlier cycles.  Tracing slows the cycle
    down severalfold, so it is not timed and skips the host calibration.
    """
    gc.collect()
    tracemalloc.start()
    try:
        outcome = WORKLOADS[name].run(seed, size, Phases(calibrated=False), inputs)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return outcome, peak / 2**20


def run_child(
    name: str,
    seed: int,
    size: Mapping,
    inputs: Mapping,
    budget_s: float = 0.0,
    profile: bool = False,
    heap: bool = False,
    spawned_at: Optional[float] = None,
) -> Dict:
    """Run cycles of the workload in this process and summarise them as plain data.

    Each cycle generates, builds and runs the workload afresh.  The first
    cycle pays the imports, so it alone gives the set-up times.  Cycles
    continue while the next one, at the average pace, would end within
    ``budget_s`` of the process start; the first always runs, and a profiled
    child runs only one.  Many short cycles give a steadier median than a few
    long ones on a host whose speed drifts.  With ``heap``, one
    :func:`traced_cycle` follows and gives ``peak_heap_mb``.

    Times are in reference-host seconds: host seconds divided by how much
    slower than the reference the host ran, as calibrated right before the
    ``run`` phase (set-up times) and around it (the ``run`` time).
    """
    started = spawned_at if spawned_at is not None else time.time()
    result: Dict = {"attempted": 0, "completed": 0, "problems": [], "cycles": [],
                    "profile": None}
    digests = set()
    cycle_s = 0.0
    while True:
        cycle_start = time.time()
        phases = Phases(profile=profile)
        outcome = WORKLOADS[name].run(seed, size, phases, inputs)
        before, after = phases.calibration_s
        slowdown = (before + after) / 2.0 / REFERENCE_CALIBRATION_S
        result["attempted"] += outcome.attempted
        result["completed"] += outcome.completed
        result["problems"] += outcome.problems
        digests.add(digest(outcome.outputs))
        result["cycles"].append({
            "jobs": outcome.completed,
            "run_s": phases.seconds["run"] / slowdown,
            "slowdown": slowdown,
        })
        if len(result["cycles"]) == 1:
            setup_slowdown = before / REFERENCE_CALIBRATION_S
            import_s = (
                phases.import_done_at - spawned_at
                if spawned_at is not None else phases.seconds["import"]
            ) / setup_slowdown
            build_s = phases.seconds["build"] / setup_slowdown
            result.update({
                "counters": outcome.counters,
                "import_s": import_s,
                "build_s": build_s,
                "setup_s": import_s + build_s,
                "gen_s": phases.seconds.get("gen", 0.0) / setup_slowdown,
            })
        if phases.profiler is not None:
            import pstats

            from ledger_profile import analyse

            result["profile"] = analyse(pstats.Stats(phases.profiler).stats)
            break
        del outcome, phases
        gc.collect()
        now = time.time()
        cycle_s += now - cycle_start
        if now - started + cycle_s / len(result["cycles"]) > budget_s:
            break
    # Read before the traced cycle: tracemalloc's own tables would count.
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if heap:
        outcome, result["peak_heap_mb"] = traced_cycle(name, seed, size, inputs)
        result["problems"] += outcome.problems
        digests.add(digest(outcome.outputs))
    if len(digests) > 1:
        result["problems"].append(f"cycles disagree on the output digest ({len(digests)} values)")
    result["digest"] = min(digests)
    return result


def prepare(name: str, seed: int, size: Mapping, workdir: str) -> Dict:
    start = time.perf_counter()
    inputs = WORKLOADS[name].prepare(seed, size, workdir)
    gen_s = time.perf_counter() - start
    return {"inputs": inputs, "gen_s": gen_s * REFERENCE_CALIBRATION_S / calibrate()}


def main(argv) -> int:
    request = json.loads(argv[1])
    if request["mode"] == "prepare":
        result = prepare(request["workload"], request["seed"], request["size"],
                         request["workdir"])
    else:
        spawned_at = os.environ.get("LEDGER_SPAWNED_AT")
        result = run_child(
            request["workload"],
            request["seed"],
            request["size"],
            request["inputs"],
            budget_s=request["budget_s"],
            profile=request["profile"],
            heap=request["heap"],
            spawned_at=float(spawned_at) if spawned_at else None,
        )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
