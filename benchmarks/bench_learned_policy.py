#!/usr/bin/env python
"""Learned-policy benchmark: hook overhead gate + bandit-vs-heuristic CRN duel.

Two sections, recorded to ``benchmarks/results/BENCH_learned_policy.json``:

1. **Decision-hook overhead.**  The decision-point refactor added one
   attribute check per scheduling/routing decision to the hot paths
   (``DagExecution._fill_slots`` / ``FleetSimulation._route``).  This section
   runs a DAG run and a fleet run on this tree and on the tree of
   ``PRE_HOOK_REF``, the last commit before the hook, each side in a fresh child
   process, and **fails (exit 1) when this tree falls below 95% of that
   tree's throughput** on either run, by the median of the per-pair ratios
   (``gate_refs.py``).  It compares whole trees, not the two decision sites
   in isolation.  The DAG run streams telemetry to a discarding sink, so
   both trees run their attempts task by task, through the scheduling
   decision; each child must report the jobs it completed.

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
# Child sides load this module too, so it imports nothing else from ``repro``
# at the top: the reference tree need not have it.
try:
    import repro
except ImportError:
    sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))
    import repro

from gate_refs import (FULL_PAIRS, QUICK_PAIRS, child_side, exported, judge,  # noqa: E402
                       median_seconds, run_pairs, time_ratios)

#: The last tree before the decision hook: the hook gate.
PRE_HOOK_REF = "9bc5bb7"
HOOK_OVERHEAD_MIN_RATIO = 0.95
SCRIPT = Path(__file__).resolve()


def _policy():
    from repro.core.policies import SchedulingPolicy

    return SchedulingPolicy.differential_approximation({2: 0.0, 0: 0.2})


# ---------------------------------------------------------------------------
# Section 1: hook overhead against the tree before the hook
# ---------------------------------------------------------------------------
def _hook_side(num_dag_jobs: int, num_fleet_jobs: int, seed: int) -> Dict[str, Dict[str, float]]:
    """Child side: the DAG and the fleet run on the tree on PYTHONPATH."""
    from repro.dag.simulation import DagSimulation
    from repro.fleet.simulation import FleetSimulation
    from repro.telemetry import CallbackSink, TelemetryHub
    from repro.workloads.scenarios import dag_layered_scenario, fleet_two_priority_scenario

    hub = TelemetryHub()
    hub.add_sink(CallbackSink(lambda event: None))
    dag = dag_layered_scenario(num_jobs=num_dag_jobs)
    fleet = fleet_two_priority_scenario(num_clusters=4, num_jobs_per_cluster=num_fleet_jobs)
    runs = {
        "dag": DagSimulation(
            policy=_policy(), jobs=dag.generate_trace(seed=seed),
            scheduler="critical_path_first", cluster=dag.cluster, seed=seed, telemetry=hub,
        ),
        "fleet": FleetSimulation(
            policy=_policy(), jobs=fleet.generate_trace(seed=seed),
            clusters=fleet.make_clusters(), dispatcher="jsq", seed=seed,
        ),
    }
    report = {}
    for name, simulation in runs.items():
        start = time.perf_counter()
        result = simulation.run()
        report[name] = {"seconds": time.perf_counter() - start,
                        "work": float(result.completed_jobs)}
    return report


def _measure_hook_overhead(
    num_dag_jobs: int, num_fleet_jobs: int, pairs: int, seed: int
) -> Dict[str, Dict[str, float]]:
    current = Path(repro.__file__).resolve().parents[1]
    with exported([PRE_HOOK_REF]) as trees:
        sides = {label: child_side(src, SCRIPT, "_hook_side", num_dag_jobs=num_dag_jobs,
                                   num_fleet_jobs=num_fleet_jobs, seed=seed)
                 for label, src in (("current", current), ("pr9", trees[PRE_HOOK_REF]))}
        reports = run_pairs(sides, pairs)
    sections = {}
    for name in ("dag", "fleet"):
        ratio, passed = judge(f"{name} current_vs_pr9 ({PRE_HOOK_REF})",
                              time_ratios(reports, "pr9", "current", name),
                              at_least=HOOK_OVERHEAD_MIN_RATIO)
        sections[name] = {
            "pr9_seconds": median_seconds(reports["pr9"], name),
            "current_seconds": median_seconds(reports["current"], name),
            "current_vs_pr9": ratio["median"],
            "current_vs_pr9_quartiles": [ratio["q1"], ratio["q3"]],
            "passed": passed,
        }
    return sections


# ---------------------------------------------------------------------------
# Section 2: learned policies vs naive heuristics (CRN)
# ---------------------------------------------------------------------------
def _duel(
    spec,
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
    from repro.env import evaluate, train
    from repro.env.learn import summarise

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
    from repro.env import BuiltinAgent, EnvSpec, LinUCBAgent

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
    from repro.env import EnvSpec, EpsilonGreedyAgent, SchedulerAgent

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

    if args.quick:
        dag_jobs, fleet_jobs, pairs = 8, 60, QUICK_PAIRS
    else:
        dag_jobs, fleet_jobs, pairs = 25, 150, FULL_PAIRS

    print(f"measuring {repro.__file__}")
    print(f"== Decision-hook overhead (current hookless path vs {PRE_HOOK_REF}) ==")
    overhead = _measure_hook_overhead(dag_jobs, fleet_jobs, pairs, args.seed)
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
        "refs": {"pr9": PRE_HOOK_REF},
        "pairs": pairs,
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
    for name, section in overhead.items():
        if section["passed"]:
            continue
        print(
            f"FAIL: {name}: hookless decision path at a median "
            f"{section['current_vs_pr9']:.3f}x of the pre-hook tree ({PRE_HOOK_REF}, "
            f"threshold {HOOK_OVERHEAD_MIN_RATIO}) — the unattached hook must "
            "stay effectively free",
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
