#!/usr/bin/env python
"""Kernel + parallel-engine performance benchmark, recorded to BENCH_perf.json.

Measures, in one run:

1. **DES event-loop throughput** of the optimised kernel against the retained
   pre-PR reference implementation (embedded below verbatim: dataclass
   events, ``itertools.count`` sequencing, ``peek``/``step`` delegation, no
   heap compaction) on two workloads:

   * ``chain`` — self-rescheduling ticks over a small steady-state heap; the
     classic "event loop overhead" measurement.
   * ``timeout_storm`` — every tick arms a far-future timeout event and
     cancels the previously armed one, the sprint-timeout/preemption/DVFS
     pattern that motivates heap compaction.  The reference kernel's heap
     grows without bound here; the optimised kernel compacts.

   Since the telemetry PR the optimised kernel is additionally compared
   against the retained **PR 3 kernel** (embedded verbatim: the same
   optimised hot loop, but with no telemetry attribute or probe site).  The
   benchmark **fails (exit 1) when the telemetry-off kernel falls below 95%
   of the PR 3 kernel's throughput** — the probes must stay zero-cost when
   disabled.

2. **Simulation throughput** (jobs/sec) of a full DiAS run on the reference
   two-priority scenario, with a telemetry-off vs telemetry-on column: the
   same run once with the disabled null hub and once streaming probes plus
   periodic samples into an in-memory ring sink.

3. **Fault-injection overhead**: the same DiAS run against the retained
   **PR 7 execution module** (``benchmarks/_pr7_execution.py``, verbatim:
   no fault branches), with faults disabled and with a mixed
   crash/straggler/taskfail plan enabled.  The benchmark **fails (exit 1)
   when the faults-off run falls below 95% of the PR 7 baseline** —
   injection must stay zero-cost when disabled, like telemetry.

4. **Parallel replication speedup**: eight replications of a policy
   comparison executed serially and with ``--jobs N`` worker processes, plus
   a bitwise-equality check between the serial and parallel metric samples.
   The benchmark **fails (exit 1) if serial/parallel equivalence is
   violated** — wall-clock speedup depends on the host's core count (recorded
   in the output), equivalence must hold everywhere.  On a single-CPU host
   the wall-clock section is marked ``"unreliable": true`` (no parallelism
   to measure), but the bitwise-equality check still runs and still gates.

Usage::

    python benchmarks/bench_kernel_throughput.py             # full run
    python benchmarks/bench_kernel_throughput.py --quick     # CI smoke mode
    python benchmarks/bench_kernel_throughput.py --jobs 4 --output BENCH_perf.json
"""

from __future__ import annotations

import argparse
import heapq
import itertools
import json
import os
import platform
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable, Dict, List, Optional

# Measure the tree on PYTHONPATH when there is one (``PYTHONPATH=<tree>/src``);
# otherwise this checkout's own ``src``.  The report names the tree measured.
try:
    import repro
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import repro

from repro.core.policies import SchedulingPolicy  # noqa: E402
from repro.experiments.parallel import PolicyComparisonExperiment  # noqa: E402
from repro.simulation.des import Simulator  # noqa: E402
from repro.simulation.replication import ReplicationRunner  # noqa: E402
from repro.workloads import scenarios as scenario_module  # noqa: E402


# ---------------------------------------------------------------------------
# Retained reference implementation: the pre-PR kernel, verbatim.  Kept here
# (not in src/) so the speedup is measured against the same baseline in every
# future run instead of a number recorded once and never re-validated.
# ---------------------------------------------------------------------------
@dataclass(order=False)
class _LegacyEvent:
    time: float
    priority: int
    seq: int
    callback: Callable[["_LegacySimulator"], None]
    payload: Any = None
    cancelled: bool = field(default=False, compare=False)

    def cancel(self) -> None:
        self.cancelled = True


class _LegacySimulator:
    """The seed kernel: dataclass events, peek/step delegation, no compaction."""

    def __init__(self, start_time: float = 0.0) -> None:
        self._now = float(start_time)
        self._heap: List[tuple] = []
        self._seq = itertools.count()
        self._event_count = 0
        self._processed = 0
        self._running = False
        self._stopped = False

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    def schedule(self, delay, callback, *, priority=0, payload=None):
        if delay < 0:
            raise ValueError(f"negative delay {delay!r}")
        return self.schedule_at(self._now + delay, callback, priority=priority, payload=payload)

    def schedule_at(self, time, callback, *, priority=0, payload=None):
        if time < self._now:
            raise ValueError(f"schedule in the past {time!r}")
        event = _LegacyEvent(
            time=float(time), priority=int(priority), seq=next(self._seq),
            callback=callback, payload=payload,
        )
        heapq.heappush(self._heap, (event.time, event.priority, event.seq, event))
        self._event_count += 1
        return event

    def peek_time(self):
        self._discard_cancelled()
        if not self._heap:
            return None
        return self._heap[0][0]

    def step(self):
        while self._heap:
            event = heapq.heappop(self._heap)[3]
            if event.cancelled:
                continue
            self._now = event.time
            self._processed += 1
            event.callback(self)
            return event
        return None

    def run(self, until=None, max_events=None):
        self._running = True
        self._stopped = False
        executed = 0
        try:
            while True:
                if self._stopped:
                    break
                if max_events is not None and executed >= max_events:
                    break
                next_time = self.peek_time()
                if next_time is None:
                    break
                if until is not None and next_time > until:
                    self._now = until
                    break
                self.step()
                executed += 1
        finally:
            self._running = False
        if until is not None and self._now < until and not self._heap:
            self._now = until
        return self._now

    def stop(self) -> None:
        self._stopped = True

    def _discard_cancelled(self) -> None:
        while self._heap and self._heap[0][3].cancelled:
            heapq.heappop(self._heap)


# ---------------------------------------------------------------------------
# Retained PR 3 kernel, verbatim: the optimised hot loop as it stood before
# the telemetry layer (no ``telemetry`` slot, no probe site in compaction).
# The telemetry-off regression guard measures today's kernel against this.
# ---------------------------------------------------------------------------
_PR3_MIN_COMPACTION_WATERMARK = 64


class _PR3Event:
    __slots__ = ("time", "priority", "seq", "callback", "payload", "cancelled")

    def __init__(self, time, priority, seq, callback, payload=None, cancelled=False):
        self.time = time
        self.priority = priority
        self.seq = seq
        self.callback = callback
        self.payload = payload
        self.cancelled = cancelled

    def cancel(self) -> None:
        self.cancelled = True


class _PR3Simulator:
    """The PR 3 kernel: optimised loops and compaction, no telemetry."""

    __slots__ = (
        "_now", "_heap", "_seq", "_processed", "_running", "_stopped",
        "_compactions", "_compaction_threshold", "_compaction_watermark",
    )

    def __init__(self, start_time: float = 0.0, compaction_threshold: Optional[int] = 512) -> None:
        self._now = float(start_time)
        self._heap: List[tuple] = []
        self._seq = 0
        self._processed = 0
        self._running = False
        self._stopped = False
        self._compactions = 0
        self._compaction_threshold = int(compaction_threshold or 0)
        self._compaction_watermark = _PR3_MIN_COMPACTION_WATERMARK

    @property
    def now(self) -> float:
        return self._now

    @property
    def pending_events(self) -> int:
        return len(self._heap)

    def schedule(self, delay, callback, *, priority=0, payload=None):
        if delay < 0:
            raise ValueError(f"cannot schedule event with negative delay {delay!r}")
        if priority.__class__ is not int:
            priority = int(priority)
        seq = self._seq
        self._seq = seq + 1
        event = _PR3Event(self._now + delay, priority, seq, callback, payload)
        heap = self._heap
        heapq.heappush(heap, (event.time, priority, seq, event))
        if len(heap) >= self._compaction_watermark:
            self._maybe_compact()
        return event

    def run(self, until=None, max_events=None):
        self._running = True
        self._stopped = False
        executed = 0
        heap = self._heap
        pop = heapq.heappop
        try:
            if until is None and max_events is None:
                while heap:
                    if self._stopped:
                        break
                    event = pop(heap)[3]
                    if event.cancelled:
                        continue
                    self._now = event.time
                    executed += 1
                    event.callback(self)
            elif until is None:
                while heap:
                    if self._stopped or executed >= max_events:
                        break
                    event = pop(heap)[3]
                    if event.cancelled:
                        continue
                    self._now = event.time
                    executed += 1
                    event.callback(self)
            else:
                while heap:
                    if self._stopped:
                        break
                    if max_events is not None and executed >= max_events:
                        break
                    entry = heap[0]
                    event = entry[3]
                    if event.cancelled:
                        pop(heap)
                        continue
                    event_time = entry[0]
                    if until is not None and event_time > until:
                        self._now = until
                        break
                    pop(heap)
                    self._now = event_time
                    executed += 1
                    event.callback(self)
        finally:
            self._running = False
            self._processed += executed
        if until is not None and self._now < until and not heap:
            self._now = until
        return self._now

    def stop(self) -> None:
        self._stopped = True

    def _maybe_compact(self) -> None:
        heap = self._heap
        threshold = self._compaction_threshold
        if threshold:
            dead = 0
            for entry in heap:
                if entry[3].cancelled:
                    dead += 1
            if dead >= threshold and dead * 2 >= len(heap):
                heap[:] = [entry for entry in heap if not entry[3].cancelled]
                heapq.heapify(heap)
                self._compactions += 1
        self._compaction_watermark = max(len(self._heap) * 2, _PR3_MIN_COMPACTION_WATERMARK)


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


def _best_of(repeats: int, run_once: Callable[[], float]) -> float:
    return min(run_once() for _ in range(repeats))


def _measure_kernel(
    workload: Callable, num_events: int, repeats: int
) -> Dict[str, float]:
    results: Dict[str, float] = {}
    kernels = (
        ("reference", _LegacySimulator),
        ("pr3", _PR3Simulator),
        ("optimized", Simulator),
    )
    # Rounds are interleaved across kernels (A B C, A B C, ...) rather than
    # measured back-to-back per kernel: on busy or frequency-scaled hosts a
    # monotonic drift over the measurement window would otherwise bias the
    # pairwise ratios — exactly what the off_vs_pr3 guard must not inherit.
    best: Dict[str, float] = {}
    final_heap: Dict[str, int] = {}
    for _ in range(repeats):
        for label, factory in kernels:
            sim = factory()
            start = time.perf_counter()
            workload(sim, num_events)
            elapsed = time.perf_counter() - start
            if label not in best or elapsed < best[label]:
                best[label] = elapsed
            final_heap[label] = sim.pending_events
    for label, _factory in kernels:
        results[f"{label}_events_per_sec"] = num_events / best[label]
        results[f"{label}_final_heap"] = float(final_heap[label])
    results["speedup"] = (
        results["optimized_events_per_sec"] / results["reference_events_per_sec"]
    )
    # Telemetry-off regression guard: today's kernel (probes present but the
    # null hub disabled) against the retained PR 3 kernel (no probes at all).
    results["off_vs_pr3"] = (
        results["optimized_events_per_sec"] / results["pr3_events_per_sec"]
    )
    results["num_events"] = float(num_events)
    return results


# ---------------------------------------------------------------------------
# Simulation + parallel benchmarks
# ---------------------------------------------------------------------------
def _measure_simulation(num_jobs: int, repeats: int, seed: int) -> Dict[str, float]:
    from repro.experiments.harness import run_policies

    scenario = scenario_module.reference_two_priority_scenario()
    policy = [SchedulingPolicy.preemptive_priority()]

    def run_once() -> float:
        start = time.perf_counter()
        run_policies(scenario, policy, seed=seed, num_jobs=num_jobs)
        return time.perf_counter() - start

    elapsed = _best_of(repeats, run_once)
    return {"num_jobs": float(num_jobs), "jobs_per_sec": num_jobs / elapsed}


def _measure_telemetry(
    num_jobs: int, repeats: int, seed: int, sample_interval: float = 5.0
) -> Dict[str, float]:
    """Same DiAS run with telemetry off (null hub) vs on (ring sink + samples)."""
    from repro.core.dias import DiASSimulation
    from repro.engine.cluster import Cluster
    from repro.telemetry import NULL_HUB, RingBufferSink, TelemetryHub

    scenario = scenario_module.reference_two_priority_scenario()
    policy = SchedulingPolicy.preemptive_priority()
    trace = scenario.generate_trace(seed=seed, num_jobs=num_jobs)
    source = scenario.cluster

    def run_once(make_hub: Callable) -> Callable[[], float]:
        def once() -> float:
            hub = make_hub()
            cluster = Cluster(
                config=source.config, dvfs=source.dvfs, power_model=source.power_model
            )
            simulation = DiASSimulation(
                policy=policy, jobs=trace, cluster=cluster, seed=seed, telemetry=hub
            )
            start = time.perf_counter()
            simulation.run()
            elapsed = time.perf_counter() - start
            once.events = getattr(hub, "events_emitted", 0)  # type: ignore[attr-defined]
            return elapsed
        return once

    def on_hub() -> TelemetryHub:
        hub = TelemetryHub(sample_interval=sample_interval)
        hub.add_sink(RingBufferSink(capacity=1 << 16))
        return hub

    off = run_once(lambda: NULL_HUB)
    on = run_once(on_hub)
    # Interleave off/on repeats (rather than two sequential _best_of blocks)
    # so a transient noise window — CI neighbours, frequency scaling — hits
    # both sides instead of skewing the overhead ratio one way.
    off_elapsed = float("inf")
    on_elapsed = float("inf")
    # Each run is tens of milliseconds, so a higher repeat floor is cheap and
    # keeps the gated overhead ratio stable on noisy shared machines.
    for _ in range(max(repeats, 5)):
        off_elapsed = min(off_elapsed, off())
        on_elapsed = min(on_elapsed, on())
    return {
        "num_jobs": float(num_jobs),
        "sample_interval_s": sample_interval,
        "off_jobs_per_sec": num_jobs / off_elapsed,
        "on_jobs_per_sec": num_jobs / on_elapsed,
        "on_overhead_pct": 100.0 * (on_elapsed - off_elapsed) / off_elapsed,
        "events_emitted": float(on.events),  # type: ignore[attr-defined]
    }


def _measure_faults(num_jobs: int, repeats: int, seed: int) -> Dict[str, float]:
    """Fault-injection overhead: PR 7 baseline vs faults-off vs faults-on.

    ``pr7`` swaps in the retained pre-fault-injection ``JobExecution``
    (``benchmarks/_pr7_execution.py``, verbatim) for the same DiAS run —
    the faults-off regression gate measures today's hot path (fault branches
    present but ``faults=None``) against it.  ``faults_on`` runs a mixed
    crash/straggler/taskfail plan to record what injection actually costs.
    """
    import repro.core.dias as dias_module
    from repro.engine.cluster import Cluster

    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import _pr7_execution

    class _PR7JobExecution(_pr7_execution.JobExecution):
        # Today's DiASSimulation always passes the fault kwargs; with no
        # injector they carry no information, so strip them for the
        # retained constructor.  Per-job, not per-event: negligible.
        def __init__(self, *args, faults=None, on_give_up=None, **kwargs):
            assert faults is None and on_give_up is None
            super().__init__(*args, **kwargs)

    scenario = scenario_module.reference_two_priority_scenario()
    policy = SchedulingPolicy.preemptive_priority()
    trace = scenario.generate_trace(seed=seed, num_jobs=num_jobs)
    source = scenario.cluster
    fault_spec = (
        "crash:mttf=2000,repair=40;stragglers:p=0.1,slowdown=3,speculate=1.5;"
        "taskfail:p=0.05,retries=2"
    )

    def run_once(execution_cls, faults) -> float:
        cluster = Cluster(
            config=source.config, dvfs=source.dvfs, power_model=source.power_model
        )
        original = dias_module.JobExecution
        dias_module.JobExecution = execution_cls
        try:
            simulation = dias_module.DiASSimulation(
                policy=policy, jobs=trace, cluster=cluster, seed=seed, faults=faults
            )
            start = time.perf_counter()
            simulation.run()
            return time.perf_counter() - start
        finally:
            dias_module.JobExecution = original

    variants = (
        ("pr7", _PR7JobExecution, None),
        ("faults_off", dias_module.JobExecution, None),
        ("faults_on", dias_module.JobExecution, fault_spec),
    )
    # Interleaved rounds for the same reason as _measure_kernel: the 5%
    # off_vs_pr7 gate must not inherit monotonic host drift.
    best: Dict[str, float] = {}
    for _ in range(max(repeats, 5)):
        for label, execution_cls, faults in variants:
            elapsed = run_once(execution_cls, faults)
            if label not in best or elapsed < best[label]:
                best[label] = elapsed
    results = {
        "num_jobs": float(num_jobs),
        "fault_spec": fault_spec,
        "pr7_jobs_per_sec": num_jobs / best["pr7"],
        "off_jobs_per_sec": num_jobs / best["faults_off"],
        "on_jobs_per_sec": num_jobs / best["faults_on"],
    }
    results["off_vs_pr7"] = results["off_jobs_per_sec"] / results["pr7_jobs_per_sec"]
    results["on_overhead_pct"] = 100.0 * (
        best["faults_on"] - best["faults_off"]
    ) / best["faults_off"]
    return results


def _measure_parallel(
    num_jobs: int, replications: int, jobs: int, seed: int
) -> Dict[str, Any]:
    scenario = scenario_module.reference_two_priority_scenario()
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
    parser.add_argument("--output", default=str(Path(__file__).resolve().parents[1] / "BENCH_perf.json"))
    args = parser.parse_args(argv)

    if args.quick:
        chain_events, storm_events, sim_jobs, par_jobs, repeats = 60_000, 30_000, 80, 30, 2
    else:
        chain_events, storm_events, sim_jobs, par_jobs, repeats = 300_000, 200_000, 300, 100, 3

    print(f"measuring {repro.__file__}")
    print("== DES kernel event-loop throughput (vs retained pre-PR reference) ==")
    # The off_vs_pr3 gate compares two near-identical kernels at a 5% margin;
    # best-of needs more rounds than the coarse sections to beat host noise.
    kernel_repeats = max(repeats, 7)
    chain = _measure_kernel(_chain_workload, chain_events, kernel_repeats)
    print(f"chain:         reference {chain['reference_events_per_sec']:,.0f} ev/s   "
          f"pr3 {chain['pr3_events_per_sec']:,.0f} ev/s   "
          f"optimized {chain['optimized_events_per_sec']:,.0f} ev/s   "
          f"speedup {chain['speedup']:.2f}x   off_vs_pr3 {chain['off_vs_pr3']:.3f}")
    storm = _measure_kernel(_timeout_storm_workload, storm_events, kernel_repeats)
    print(f"timeout_storm: reference {storm['reference_events_per_sec']:,.0f} ev/s   "
          f"pr3 {storm['pr3_events_per_sec']:,.0f} ev/s   "
          f"optimized {storm['optimized_events_per_sec']:,.0f} ev/s   "
          f"speedup {storm['speedup']:.2f}x   off_vs_pr3 {storm['off_vs_pr3']:.3f}   "
          f"final heap {storm['reference_final_heap']:.0f} -> {storm['optimized_final_heap']:.0f}")

    print("== DiAS simulation throughput ==")
    simulation = _measure_simulation(sim_jobs, repeats, args.seed)
    print(f"reference scenario: {simulation['jobs_per_sec']:,.1f} jobs/s")

    print("== Telemetry overhead (off = null hub, on = ring sink + samples) ==")
    telemetry = _measure_telemetry(sim_jobs, repeats, args.seed)
    print(f"telemetry off {telemetry['off_jobs_per_sec']:,.1f} jobs/s   "
          f"on {telemetry['on_jobs_per_sec']:,.1f} jobs/s   "
          f"overhead {telemetry['on_overhead_pct']:.1f}%   "
          f"events {telemetry['events_emitted']:,.0f}")

    print("== Fault-injection overhead (pr7 = retained baseline, off = faults=None) ==")
    faults = _measure_faults(sim_jobs, repeats, args.seed)
    print(f"pr7 {faults['pr7_jobs_per_sec']:,.1f} jobs/s   "
          f"faults off {faults['off_jobs_per_sec']:,.1f} jobs/s   "
          f"on {faults['on_jobs_per_sec']:,.1f} jobs/s   "
          f"off_vs_pr7 {faults['off_vs_pr7']:.3f}   "
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
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "cpu_count": os.cpu_count(),
        "quick": args.quick,
        "kernel": {"chain": chain, "timeout_storm": storm},
        "simulation": simulation,
        "telemetry": telemetry,
        "faults": faults,
        "parallel": parallel,
        "targets": {
            "kernel_speedup": 2.0,
            "parallel_speedup_at_4_jobs": 2.5,
            "telemetry_off_vs_pr3_min": 0.95,
            "telemetry_on_overhead_max_pct": 60.0,
            "faults_off_vs_pr7_min": 0.95,
            "note": "parallel wall-clock speedup requires >= jobs physical cores; "
                    "bitwise serial/parallel equivalence is asserted on every host",
        },
    }
    output = Path(args.output)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")

    failed = False
    if not parallel["bitwise_equal"]:
        print("FAIL: parallel metrics differ from serial metrics", file=sys.stderr)
        failed = True
    off_vs_pr3 = min(chain["off_vs_pr3"], storm["off_vs_pr3"])
    if off_vs_pr3 < 0.95:
        print(
            f"FAIL: telemetry-off kernel at {off_vs_pr3:.3f}x of the PR 3 kernel "
            f"(threshold 0.95) — the disabled probe path must stay zero-cost",
            file=sys.stderr,
        )
        failed = True
    if telemetry["on_overhead_pct"] > 60.0:
        print(
            f"FAIL: telemetry-on overhead at {telemetry['on_overhead_pct']:.1f}% "
            f"(threshold 60%) — the enabled emit/sink path has regressed",
            file=sys.stderr,
        )
        failed = True
    if faults["off_vs_pr7"] < 0.95:
        print(
            f"FAIL: faults-off simulation at {faults['off_vs_pr7']:.3f}x of the "
            f"retained PR 7 baseline (threshold 0.95) — fault injection must "
            f"stay zero-cost when disabled",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
