#!/usr/bin/env python
"""Learned-policy benchmark: hook overhead gate + bandit-vs-heuristic CRN duel.

Two sections, recorded to ``benchmarks/results/BENCH_learned_policy.json``:

1. **Decision-hook overhead.** The decision-point refactor added one
   attribute check per scheduling/routing decision to the hot paths
   (``DagExecution._fill_slots`` / ``FleetSimulation._route``).  This section
   times the current hookless path against the retained PR 9 bodies
   (``benchmarks/_pr9_decisions.py``, monkeypatched verbatim onto the live
   classes) and **fails (exit 1) when the current path falls below 95% of
   the PR 9 baseline** — an unattached hook must stay effectively free.
   The DAG run streams telemetry to a discarding sink, because an
   unobserved DAG attempt runs on a private heap instead of the per-task
   path timed here; the section also fails when either patched side never
   runs.

2. **Learned policies vs naive heuristics under common random numbers.**
   Trains the contextual bandits in their decision envs, then evaluates the
   frozen policies against heuristic baselines over a shared CRN seed
   stream:

   * routing: LinUCB vs the ``random`` and ``jsq`` dispatchers on fleet
     p95 response time;
   * scheduling: epsilon-greedy vs the ``fifo`` and ``critical_path_first``
     stage schedulers on mean DAG makespan.

   The benchmark **fails (exit 1) unless a learned agent beats at least one
   naive baseline** (LinUCB < random on p95, or epsilon-greedy < fifo on
   makespan) — the envs must be learnable, not merely runnable.

Usage::

    python benchmarks/bench_learned_policy.py             # full run
    python benchmarks/bench_learned_policy.py --quick     # CI smoke mode
"""

from __future__ import annotations

import argparse
import json
import platform
import sys
import time
from pathlib import Path
from typing import Callable, Dict, List, Optional

# Measure the tree on PYTHONPATH when there is one (``PYTHONPATH=<tree>/src``);
# otherwise this checkout's own ``src``.  The report names the tree measured.
try:
    import repro
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import repro
sys.path.insert(0, str(Path(__file__).resolve().parent))

from _pr9_decisions import pr9_fill_slots, pr9_route  # noqa: E402

from repro.core.policies import SchedulingPolicy  # noqa: E402
from repro.dag.execution import DagExecution  # noqa: E402
from repro.dag.simulation import DagSimulation  # noqa: E402
from repro.env import (  # noqa: E402
    BuiltinAgent,
    EnvSpec,
    EpsilonGreedyAgent,
    LinUCBAgent,
    SchedulerAgent,
    evaluate,
    train,
)
from repro.env.learn import summarise  # noqa: E402
from repro.fleet.simulation import FleetSimulation  # noqa: E402
from repro.telemetry import CallbackSink, TelemetryHub  # noqa: E402
from repro.workloads import scenarios as scenario_module  # noqa: E402

HOOK_OVERHEAD_MIN_RATIO = 0.95


def _policy() -> SchedulingPolicy:
    return SchedulingPolicy.differential_approximation({2: 0.0, 0: 0.2})


def _best_of(repeats: int, run_once: Callable[[], float]) -> float:
    return min(run_once() for _ in range(repeats))


# ---------------------------------------------------------------------------
# Section 1: hook overhead vs the retained PR 9 decision sites
# ---------------------------------------------------------------------------
def _discarding_hub() -> TelemetryHub:
    """An enabled hub that drops every event.

    With telemetry off a DAG attempt runs on the execution's private heap,
    not through the one-kernel-event-per-task dispatch the retained
    baseline body implements; an enabled hub keeps both sides on the
    per-task path that this section times.
    """
    hub = TelemetryHub()
    hub.add_sink(CallbackSink(lambda event: None))
    return hub


def _time_dag_run(num_jobs: int, seed: int) -> float:
    scenario = scenario_module.dag_layered_scenario(num_jobs=num_jobs)
    trace = scenario.generate_trace(seed=seed)
    start = time.perf_counter()
    DagSimulation(
        policy=_policy(),
        jobs=trace,
        scheduler="critical_path_first",
        cluster=scenario.cluster,
        seed=seed,
        telemetry=_discarding_hub(),
    ).run()
    return time.perf_counter() - start


def _calls(cls, attr: str, fn: Callable, run_once: Callable[[], float]) -> int:
    """How often ``fn``, patched in as ``cls.attr``, runs in one untimed run."""
    calls = [0]

    def counted(*args, **kwargs):
        calls[0] += 1
        return fn(*args, **kwargs)

    original = getattr(cls, attr)
    setattr(cls, attr, counted)
    try:
        run_once()
    finally:
        setattr(cls, attr, original)
    return calls[0]


def _time_fleet_run(num_jobs: int, seed: int) -> float:
    scenario = scenario_module.fleet_two_priority_scenario(
        num_clusters=4, num_jobs_per_cluster=num_jobs
    )
    trace = scenario.generate_trace(seed=seed)
    clusters = scenario.make_clusters()
    start = time.perf_counter()
    FleetSimulation(
        policy=_policy(),
        jobs=trace,
        clusters=clusters,
        dispatcher="jsq",
        seed=seed,
    ).run()
    return time.perf_counter() - start


def _measure_hook_overhead(
    num_dag_jobs: int, num_fleet_jobs: int, repeats: int, seed: int
) -> Dict[str, Dict[str, float]]:
    """Interleave current/pr9 repeats so host drift hits both sides equally."""
    sections = {}
    patches = {
        "dag": (DagExecution, "_fill_slots", pr9_fill_slots,
                lambda: _time_dag_run(num_dag_jobs, seed)),
        "fleet": (FleetSimulation, "_route", pr9_route,
                  lambda: _time_fleet_run(num_fleet_jobs, seed)),
    }
    for name, (cls, attr, baseline_fn, run_once) in patches.items():
        # A gate that times code neither side runs measures nothing.
        for fn in (getattr(cls, attr), baseline_fn):
            if not _calls(cls, attr, fn, run_once):
                raise SystemExit(
                    f"FAIL: {cls.__name__}.{attr} ({fn.__module__}) never ran in "
                    f"the {name} hook-overhead run"
                )
        current_times: List[float] = []
        baseline_times: List[float] = []
        original = getattr(cls, attr)
        for _ in range(repeats):
            current_times.append(run_once())
            setattr(cls, attr, baseline_fn)
            try:
                baseline_times.append(run_once())
            finally:
                setattr(cls, attr, original)
        current = min(current_times)
        baseline = min(baseline_times)
        sections[name] = {
            "pr9_seconds": baseline,
            "current_seconds": current,
            "current_vs_pr9": baseline / current,
        }
    return sections


# ---------------------------------------------------------------------------
# Section 2: learned policies vs naive heuristics (CRN)
# ---------------------------------------------------------------------------
def _duel(
    spec: EnvSpec,
    agent,
    baselines: Dict[str, Callable[[], tuple]],
    train_episodes: int,
    eval_episodes: int,
    eval_seed: int,
) -> Dict[str, object]:
    """Train ``agent`` on ``spec``, then CRN-evaluate it and every baseline.

    ``baselines`` maps a display name to a ``() -> (spec, agent)`` thunk so
    routing baselines can swap the dispatcher while reusing the seeds.
    """
    history = train(spec, agent, episodes=train_episodes)
    key = spec.key_metric
    summary: Dict[str, Dict[str, float]] = {
        agent.name: summarise(
            evaluate(spec, agent, episodes=eval_episodes, base_seed=eval_seed)
        )
    }
    for name, build in baselines.items():
        base_spec, base_agent = build()
        summary[name] = summarise(
            evaluate(base_spec, base_agent, episodes=eval_episodes,
                     base_seed=eval_seed)
        )
    return {
        "key_metric": key,
        "train_episodes": train_episodes,
        "eval_episodes": eval_episodes,
        "train_first_reward": history[0]["reward"],
        "train_last_reward": history[-1]["reward"],
        "learned": agent.name,
        "summary": summary,
    }


def _routing_duel(quick: bool) -> Dict[str, object]:
    spec = EnvSpec(
        env="routing",
        policy=_policy(),
        scenario="two-priority",
        clusters=4,
        num_jobs=60 if quick else 160,
    )
    return _duel(
        spec,
        LinUCBAgent(alpha=1.0),
        {
            "random": lambda: (spec.with_dispatcher("random"), BuiltinAgent()),
            "jsq": lambda: (spec.with_dispatcher("jsq"), BuiltinAgent()),
        },
        train_episodes=3 if quick else 8,
        eval_episodes=3 if quick else 5,
        eval_seed=1000,
    )


def _scheduling_duel(quick: bool) -> Dict[str, object]:
    spec = EnvSpec(
        env="scheduling",
        policy=_policy(),
        scenario="layered",
        num_jobs=6 if quick else 20,
    )
    return _duel(
        spec,
        EpsilonGreedyAgent(epsilon=0.2, learning_rate=0.05),
        {
            "fifo": lambda: (spec, SchedulerAgent("fifo")),
            "critical_path_first": lambda: (
                spec, SchedulerAgent("critical_path_first")
            ),
        },
        train_episodes=4 if quick else 12,
        eval_episodes=3 if quick else 5,
        eval_seed=1000,
    )


def _wins(duel: Dict[str, object], baseline: str) -> bool:
    key = duel["key_metric"]
    summary = duel["summary"]
    return summary[duel["learned"]][key] < summary[baseline][key]


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--quick", action="store_true",
                        help="small sizes for CI smoke runs")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument(
        "--output",
        default=str(Path(__file__).resolve().parent / "results"
                    / "BENCH_learned_policy.json"),
    )
    args = parser.parse_args(argv)

    # The overhead gate compares two near-identical hot paths at a 5% margin
    # on sub-second runs; best-of needs enough rounds to beat host noise.
    if args.quick:
        dag_jobs, fleet_jobs, repeats = 8, 60, 7
    else:
        dag_jobs, fleet_jobs, repeats = 25, 150, 7

    print(f"measuring {repro.__file__}")
    print("== Decision-hook overhead (current hookless path vs retained PR 9) ==")
    overhead = _measure_hook_overhead(dag_jobs, fleet_jobs, repeats, args.seed)
    for name, section in overhead.items():
        print(f"{name}: pr9 {section['pr9_seconds']:.3f}s   "
              f"current {section['current_seconds']:.3f}s   "
              f"current_vs_pr9 {section['current_vs_pr9']:.3f}")

    print("== Routing duel: LinUCB vs random/jsq (fleet p95, CRN) ==")
    routing = _routing_duel(args.quick)
    for name, row in routing["summary"].items():
        print(f"{name:>8}: p95_response_s {row['p95_response_s']:.2f}   "
              f"mean_response_s {row['mean_response_s']:.2f}")

    print("== Scheduling duel: epsilon-greedy vs fifo/critical_path_first "
          "(DAG makespan, CRN) ==")
    scheduling = _scheduling_duel(args.quick)
    for name, row in scheduling["summary"].items():
        print(f"{name:>20}: mean_makespan_s {row['mean_makespan_s']:.2f}   "
              f"mean_cp_stretch {row['mean_cp_stretch']:.3f}")

    routing_beats_random = _wins(routing, "random")
    scheduling_beats_fifo = _wins(scheduling, "fifo")
    payload = {
        "benchmark": "bench_learned_policy",
        "repro": repro.__file__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        "python": platform.python_version(),
        "platform": platform.platform(),
        "quick": args.quick,
        "hook_overhead": overhead,
        "routing": routing,
        "scheduling": scheduling,
        "gates": {
            "hook_overhead_min_ratio": HOOK_OVERHEAD_MIN_RATIO,
            "routing_linucb_beats_random": routing_beats_random,
            "routing_linucb_beats_jsq": _wins(routing, "jsq"),
            "scheduling_bandit_beats_fifo": scheduling_beats_fifo,
            "scheduling_bandit_beats_cp_first": _wins(
                scheduling, "critical_path_first"
            ),
        },
    }
    output = Path(args.output)
    output.parent.mkdir(parents=True, exist_ok=True)
    output.write_text(json.dumps(payload, indent=2, sort_keys=True) + "\n")
    print(f"wrote {output}")

    failed = False
    worst = min(section["current_vs_pr9"] for section in overhead.values())
    if worst < HOOK_OVERHEAD_MIN_RATIO:
        print(
            f"FAIL: hookless decision path at {worst:.3f}x of the PR 9 "
            f"baseline (threshold {HOOK_OVERHEAD_MIN_RATIO}) — the unattached "
            "hook must stay effectively free",
            file=sys.stderr,
        )
        failed = True
    if not (routing_beats_random or scheduling_beats_fifo):
        print(
            "FAIL: no learned agent beat a naive baseline (LinUCB vs random "
            "on p95, epsilon-greedy vs fifo on makespan) — the decision envs "
            "are not learnable as configured",
            file=sys.stderr,
        )
        failed = True
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
