#!/usr/bin/env python
"""Kernel + parallel-engine performance benchmark, recorded to BENCH_perf.json.

Measures, in one run:

1. **DES event-loop throughput** of today's kernel against two recorded
   commits, each exported from git and run from its own tree: the seed
   kernel (``SEED_REF``: dataclass events, no heap compaction) for the
   informational ``speedup``, and the optimised kernel before the telemetry
   layer (``PRE_TELEMETRY_REF``) for the gate.  Two workloads:

   * ``chain`` — self-rescheduling ticks over a small steady-state heap; the
     classic "event loop overhead" measurement.
   * ``timeout_storm`` — every tick arms a far-future timeout event and
     cancels the previously armed one, the sprint-timeout/preemption/DVFS
     pattern that motivates heap compaction.  The seed kernel's heap grows
     without bound here; the optimised kernel compacts.

   The benchmark **fails (exit 1) when today's kernel falls below 95% of the
   pre-telemetry kernel's throughput** on either workload — the disabled
   telemetry probes must stay zero-cost.

2. **Simulation throughput** (jobs/sec) of a full DiAS run on the reference
   two-priority scenario with the disabled null hub, and the telemetry gate:
   the same run streaming probes plus periodic samples into an in-memory
   ring sink.  Both sides are this tree, so they run in this process.  The benchmark **fails (exit 1) when the telemetry-on run costs
   more than 60% over the telemetry-off run**.

3. **Fault-injection overhead**: the same DiAS run with faults off on this
   tree and on the tree of ``PRE_FAULTS_REF``, the last commit before fault
   injection, plus a mixed crash/straggler/taskfail plan on this tree.  The
   benchmark **fails (exit 1) when the faults-off run falls below 95% of the
   pre-faults tree**.  This compares whole trees, not one class swapped into
   today's tree.

4. **Parallel replication speedup**: eight replications of a policy
   comparison executed serially and with ``--jobs N`` worker processes, plus
   a bitwise-equality check between the serial and parallel metric samples.
   The benchmark **fails (exit 1) if serial/parallel equivalence is
   violated** — wall-clock speedup depends on the host's core count (recorded
   in the output), equivalence must hold everywhere.  On a single-CPU host
   the wall-clock section is marked ``"unreliable": true`` (no parallelism
   to measure), but the bitwise-equality check still runs and still gates.

Every gate runs the paired rule of ``gate_refs.py``: each side of a pair runs
in a fresh child process (``PYTHONPATH=<tree>/src``; the telemetry sides in
this process) and reports the fastest of five runs, the order alternates
between pairs, and the gate reads the median of the per-pair ratios (10 pairs
with ``--quick``, 20 otherwise).  A reference commit that cannot be exported
(unknown, or missing from a shallow clone) fails the run and is named.

Usage::

    python benchmarks/bench_kernel_throughput.py             # full run
    python benchmarks/bench_kernel_throughput.py --quick     # CI smoke mode
    python benchmarks/bench_kernel_throughput.py --jobs 4 --output BENCH_perf.json
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import sys
import time
from pathlib import Path
from typing import Any, Dict, List, Optional

# Measure the tree on PYTHONPATH when there is one (``PYTHONPATH=<tree>/src``);
# otherwise this checkout's own ``src``.  The report names the tree measured.
# Child sides load this module too, so it imports nothing else from ``repro``
# at the top: a reference tree need not have it.
try:
    import repro
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import repro

from gate_refs import (FULL_PAIRS, QUICK_PAIRS, child_side, exported, fastest,  # noqa: E402
                       judge, median_seconds, run_pairs, time_ratios)

#: The seed kernel: the informational ``speedup``.
SEED_REF = "ef76833"
#: The optimised kernel before the telemetry probes: the ``off_vs_pr3`` gate.
PRE_TELEMETRY_REF = "b088dec"
#: The last tree before fault injection: the ``off_vs_pr7`` gate.
PRE_FAULTS_REF = "b55f2b7"

MIN_RATIO_VS_REF = 0.95
MAX_TELEMETRY_OVERHEAD_PCT = 60.0
FAULT_SPEC = (
    "crash:mttf=2000,repair=40;stragglers:p=0.1,slowdown=3,speculate=1.5;"
    "taskfail:p=0.05,retries=2"
)
SCRIPT = Path(__file__).resolve()


# ---------------------------------------------------------------------------
# Kernel workloads
# ---------------------------------------------------------------------------
def _tick(sim) -> None:
    sim.schedule(1.0, _tick)


def _chain_workload(sim, num_events: int, chains: int = 16) -> None:
    """Self-rescheduling ticks over a small steady-state heap."""
    for i in range(chains):
        sim.schedule(float(i) / chains, _tick)
    sim.run(max_events=num_events)


def _noop(sim) -> None:
    pass


def _timeout_storm_workload(sim, num_events: int) -> None:
    """Arm a far-future timeout per tick, cancelling the previous one.

    Mirrors sprint timeouts / preemption / DVFS churn: without compaction the
    heap accumulates one dead far-future entry per processed event.
    """
    state: Dict[str, Any] = {"timeout": None, "count": 0}

    def tick(s) -> None:
        state["count"] += 1
        previous = state["timeout"]
        if previous is not None:
            previous.cancel()
        state["timeout"] = s.schedule(1e12, _noop)
        if state["count"] < num_events:
            s.schedule(1.0, tick)
        else:
            s.stop()

    sim.schedule(0.0, tick)
    sim.run()


def _kernel_side(chain_events: int, storm_events: int) -> Dict[str, Dict[str, float]]:
    """Child side: both kernel workloads on the ``Simulator`` on PYTHONPATH."""
    from repro.simulation.des import Simulator

    report = {}
    for name, workload, num_events in (
        ("chain", _chain_workload, chain_events),
        ("timeout_storm", _timeout_storm_workload, storm_events),
    ):
        sim = Simulator()
        start = time.perf_counter()
        workload(sim, num_events)
        report[name] = {
            "seconds": time.perf_counter() - start,
            "work": float(sim.processed_events),
            "final_heap": float(sim.pending_events),
        }
    return report


def _measure_kernel(
    current: Path, trees: Dict[str, Path], chain_events: int, storm_events: int, pairs: int
) -> Dict[str, Dict[str, Any]]:
    sides = {
        label: child_side(src, SCRIPT, "_kernel_side",
                          chain_events=chain_events, storm_events=storm_events)
        for label, src in (("optimized", current), ("pr3", trees[PRE_TELEMETRY_REF]),
                           ("reference", trees[SEED_REF]))
    }
    reports = run_pairs(sides, pairs)
    results: Dict[str, Dict[str, Any]] = {}
    for workload, num_events in (("chain", chain_events), ("timeout_storm", storm_events)):
        row: Dict[str, Any] = {"num_events": float(num_events)}
        for label in sides:
            row[f"{label}_events_per_sec"] = num_events / median_seconds(reports[label], workload)
            row[f"{label}_final_heap"] = reports[label][-1][workload]["final_heap"]
        speedup, _ = judge(f"{workload} speedup vs {SEED_REF}",
                           time_ratios(reports, "reference", "optimized", workload))
        off, row["passed"] = judge(f"{workload} off_vs_pr3 ({PRE_TELEMETRY_REF})",
                                   time_ratios(reports, "pr3", "optimized", workload),
                                   at_least=MIN_RATIO_VS_REF)
        row["speedup"] = speedup["median"]
        row["off_vs_pr3"] = off["median"]
        row["off_vs_pr3_quartiles"] = [off["q1"], off["q3"]]
        results[workload] = row
    return results


# ---------------------------------------------------------------------------
# Simulation + parallel benchmarks
# ---------------------------------------------------------------------------
def _timed_dias_run(num_jobs: int, seed: int, **extra) -> Dict[str, float]:
    """One ``P`` run of the reference scenario; ``extra`` goes to ``DiASSimulation``."""
    from repro.core.dias import DiASSimulation
    from repro.core.policies import SchedulingPolicy
    from repro.engine.cluster import Cluster
    from repro.workloads.scenarios import reference_two_priority_scenario

    scenario = reference_two_priority_scenario()
    source = scenario.cluster
    simulation = DiASSimulation(
        policy=SchedulingPolicy.preemptive_priority(),
        jobs=scenario.generate_trace(seed=seed, num_jobs=num_jobs),
        cluster=Cluster(config=source.config, dvfs=source.dvfs, power_model=source.power_model),
        seed=seed,
        **extra,
    )
    start = time.perf_counter()
    result = simulation.run()
    return {"seconds": time.perf_counter() - start, "work": float(result.completed_jobs)}


def _measure_telemetry(
    num_jobs: int, pairs: int, seed: int, sample_interval: float = 5.0
) -> Dict[str, Any]:
    """Same DiAS run with telemetry off (null hub) vs on (ring sink + samples)."""
    from repro.telemetry import RingBufferSink, TelemetryHub

    def on() -> Dict[str, Dict[str, float]]:
        hub = TelemetryHub(sample_interval=sample_interval)
        hub.add_sink(RingBufferSink(capacity=1 << 16))
        run = _timed_dias_run(num_jobs, seed, telemetry=hub)
        run["events"] = float(hub.events_emitted)
        return {"run": run}

    reports = run_pairs({"off": lambda: fastest(lambda: {"run": _timed_dias_run(num_jobs, seed)}),
                         "on": lambda: fastest(on)}, pairs)
    overhead, passed = judge(
        "telemetry-on overhead %",
        [100.0 * (ratio - 1.0) for ratio in time_ratios(reports, "on", "off", "run")],
        at_most=MAX_TELEMETRY_OVERHEAD_PCT,
    )
    return {
        "num_jobs": float(num_jobs),
        "sample_interval_s": sample_interval,
        "off_jobs_per_sec": num_jobs / median_seconds(reports["off"], "run"),
        "on_jobs_per_sec": num_jobs / median_seconds(reports["on"], "run"),
        "on_overhead_pct": overhead["median"],
        "on_overhead_pct_quartiles": [overhead["q1"], overhead["q3"]],
        "events_emitted": reports["on"][-1]["run"]["events"],
        "passed": passed,
    }


def _faults_side(
    num_jobs: int, seed: int, fault_spec: Optional[str] = None
) -> Dict[str, Dict[str, float]]:
    """Child side: the DiAS run with faults off, then on with ``fault_spec``.

    Faults off passes no ``faults`` argument, which the trees before fault
    injection do not accept.
    """
    report = {"off": _timed_dias_run(num_jobs, seed)}
    if fault_spec is not None:
        report["on"] = _timed_dias_run(num_jobs, seed, faults=fault_spec)
    return report


def _measure_faults(
    current: Path, trees: Dict[str, Path], num_jobs: int, pairs: int, seed: int
) -> Dict[str, Any]:
    """Faults off on this tree against the pre-faults tree; faults on for the record."""
    reports = run_pairs({
        "current": child_side(current, SCRIPT, "_faults_side",
                              num_jobs=num_jobs, seed=seed, fault_spec=FAULT_SPEC),
        "pr7": child_side(trees[PRE_FAULTS_REF], SCRIPT, "_faults_side",
                          num_jobs=num_jobs, seed=seed),
    }, pairs)
    off_vs_pr7, passed = judge(f"faults off_vs_pr7 ({PRE_FAULTS_REF})",
                               time_ratios(reports, "pr7", "current", "off"),
                               at_least=MIN_RATIO_VS_REF)
    on_ratio = statistics.median(
        run["on"]["seconds"] / run["off"]["seconds"] for run in reports["current"]
    )
    return {
        "num_jobs": float(num_jobs),
        "fault_spec": FAULT_SPEC,
        "pr7_jobs_per_sec": num_jobs / median_seconds(reports["pr7"], "off"),
        "off_jobs_per_sec": num_jobs / median_seconds(reports["current"], "off"),
        "on_jobs_per_sec": num_jobs / median_seconds(reports["current"], "on"),
        "off_vs_pr7": off_vs_pr7["median"],
        "off_vs_pr7_quartiles": [off_vs_pr7["q1"], off_vs_pr7["q3"]],
        "on_overhead_pct": 100.0 * (on_ratio - 1.0),
        "passed": passed,
    }


def _measure_parallel(
    num_jobs: int, replications: int, jobs: int, seed: int
) -> Dict[str, Any]:
    from repro.core.policies import SchedulingPolicy
    from repro.experiments.parallel import PolicyComparisonExperiment
    from repro.simulation.replication import ReplicationRunner
    from repro.workloads.scenarios import reference_two_priority_scenario

    scenario = reference_two_priority_scenario()
    policies = [
        SchedulingPolicy.preemptive_priority(),
        SchedulingPolicy.differential_approximation(
            {p: (0.2 if p == scenario.lowest_priority else 0.0)
             for p in scenario.priorities}
        ),
    ]
    experiment = PolicyComparisonExperiment(scenario, policies, num_jobs=num_jobs)

    start = time.perf_counter()
    serial = ReplicationRunner(experiment).run(replications, base_seed=seed, jobs=1)
    serial_elapsed = time.perf_counter() - start

    start = time.perf_counter()
    parallel = ReplicationRunner(experiment).run(replications, base_seed=seed, jobs=jobs)
    parallel_elapsed = time.perf_counter() - start

    serial_samples = {name: metric.samples for name, metric in serial.items()}
    parallel_samples = {name: metric.samples for name, metric in parallel.items()}
    return {
        "num_jobs": float(num_jobs),
        "replications": float(replications),
        "jobs": float(jobs),
        "serial_seconds": serial_elapsed,
        "parallel_seconds": parallel_elapsed,
        "speedup": serial_elapsed / parallel_elapsed if parallel_elapsed else float("nan"),
        "bitwise_equal": serial_samples == parallel_samples,
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--jobs", type=int, default=4,
                        help="worker processes for the parallel-speedup section")
    parser.add_argument("--replications", type=int, default=8)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--output", default=str(Path(__file__).resolve().parent / "results"
                                                / "BENCH_perf.json"))
    args = parser.parse_args(argv)

    if args.quick:
        chain_events, storm_events, sim_jobs, par_jobs = 60_000, 30_000, 80, 30
        pairs = QUICK_PAIRS
    else:
        chain_events, storm_events, sim_jobs, par_jobs = 300_000, 200_000, 300, 100
        pairs = FULL_PAIRS

    current = Path(repro.__file__).resolve().parents[1]
    print(f"measuring {repro.__file__}")
    with exported((SEED_REF, PRE_TELEMETRY_REF, PRE_FAULTS_REF)) as trees:
        print(f"== DES kernel event-loop throughput (vs {SEED_REF} and {PRE_TELEMETRY_REF}) ==")
        kernel = _measure_kernel(current, trees, chain_events, storm_events, pairs)
        for name, row in kernel.items():
            print(f"{name}: reference {row['reference_events_per_sec']:,.0f} ev/s   "
                  f"pr3 {row['pr3_events_per_sec']:,.0f} ev/s   "
                  f"optimized {row['optimized_events_per_sec']:,.0f} ev/s   "
                  f"final heap {row['reference_final_heap']:.0f} -> "
                  f"{row['optimized_final_heap']:.0f}")

        print("== DiAS simulation throughput and telemetry overhead "
              "(off = null hub, on = ring sink + samples) ==")
        telemetry = _measure_telemetry(sim_jobs, pairs, args.seed)
        simulation = {"num_jobs": float(sim_jobs), "jobs_per_sec": telemetry["off_jobs_per_sec"]}
        print(f"telemetry off {telemetry['off_jobs_per_sec']:,.1f} jobs/s   "
              f"on {telemetry['on_jobs_per_sec']:,.1f} jobs/s   "
              f"events {telemetry['events_emitted']:,.0f}")

        print(f"== Fault-injection overhead (pr7 = {PRE_FAULTS_REF}, off = faults=None) ==")
        faults = _measure_faults(current, trees, sim_jobs, pairs, args.seed)
        print(f"pr7 {faults['pr7_jobs_per_sec']:,.1f} jobs/s   "
              f"faults off {faults['off_jobs_per_sec']:,.1f} jobs/s   "
              f"on {faults['on_jobs_per_sec']:,.1f} jobs/s   "
              f"on overhead {faults['on_overhead_pct']:.1f}%")

    print(f"== Parallel replication ({args.replications} replications, --jobs {args.jobs}) ==")
    parallel = _measure_parallel(par_jobs, args.replications, args.jobs, args.seed)
    host_cpus = os.cpu_count()
    if host_cpus == 1:
        # The bitwise-equality check below still runs and still gates — only
        # the wall-clock speedup number is meaningless without real cores.
        parallel["unreliable"] = True
        parallel["unreliable_reason"] = (
            "single-CPU host: parallel wall-clock speedup cannot be measured"
        )
    if host_cpus is not None and host_cpus < 4:
        # The recorded speedup target assumes 4 workers on 4 physical cores;
        # fewer cores than that depresses the number without implying a
        # regression, so downstream comparisons should not trend this run.
        parallel["degraded_host"] = True
        parallel["degraded_host_note"] = (
            f"host has {host_cpus} CPU(s) but the speedup target assumes "
            ">= 4; wall-clock speedup is expected to fall short here"
        )
    print(f"serial {parallel['serial_seconds']:.2f}s   parallel {parallel['parallel_seconds']:.2f}s   "
          f"speedup {parallel['speedup']:.2f}x   bitwise_equal {parallel['bitwise_equal']}"
          + ("   [unreliable: single CPU]" if parallel.get("unreliable") else "")
          + (f"   [degraded host: {host_cpus} CPUs]"
             if parallel.get("degraded_host") else ""))

    payload = {
        "benchmark": "bench_kernel_throughput",
        "repro": repro.__file__,
        "refs": {"reference": SEED_REF, "pr3": PRE_TELEMETRY_REF, "pr7": PRE_FAULTS_REF},
        "pairs": pairs,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "quick": args.quick,
        "kernel": kernel,
        "simulation": simulation,
        "telemetry": telemetry,
        "faults": faults,
        "parallel": parallel,
        "targets": {
            "kernel_speedup": 2.0,
            "parallel_speedup_at_4_jobs": 2.5,
            "telemetry_off_vs_pr3_min": MIN_RATIO_VS_REF,
            "telemetry_on_overhead_max_pct": MAX_TELEMETRY_OVERHEAD_PCT,
            "faults_off_vs_pr7_min": MIN_RATIO_VS_REF,
            "note": "gates read the median of per-pair ratios; parallel wall-clock "
                    "speedup requires >= jobs physical cores; bitwise "
                    "serial/parallel equivalence is asserted on every host",
        },
    }
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")

    failed = False
    if not parallel["bitwise_equal"]:
        print("FAIL: parallel metrics differ from serial metrics", file=sys.stderr)
        failed = True
    for name, row in kernel.items():
        if not row["passed"]:
            print(
                f"FAIL: {name}: today's kernel at a median {row['off_vs_pr3']:.3f}x "
                f"of the pre-telemetry kernel ({PRE_TELEMETRY_REF}, threshold "
                f"{MIN_RATIO_VS_REF}) — the disabled probe path must stay zero-cost",
                file=sys.stderr,
            )
            failed = True
    if not telemetry["passed"]:
        print(
            f"FAIL: telemetry-on overhead at a median {telemetry['on_overhead_pct']:.1f}% "
            f"(threshold {MAX_TELEMETRY_OVERHEAD_PCT:.0f}%) — the enabled emit/sink "
            "path has regressed",
            file=sys.stderr,
        )
        failed = True
    if not faults["passed"]:
        print(
            f"FAIL: faults-off simulation at a median {faults['off_vs_pr7']:.3f}x of "
            f"the pre-faults tree ({PRE_FAULTS_REF}, threshold {MIN_RATIO_VS_REF}) — fault "
            "injection must stay zero-cost when disabled",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
