"""Command-line interface for the DiAS reproduction.

Usage (after ``pip install -e .``)::

    python -m repro list                       # list available experiments
    python -m repro figure 7                   # regenerate Figure 7
    python -m repro figure 8 --variant low_load
    python -m repro figure 11 --budget unlimited
    python -m repro table 2
    python -m repro compare --scenario reference --policies P NP "DA(0/20)"
    python -m repro compare --replications 8 --jobs 4   # CI table, 4 workers
    python -m repro sweep --scenario reference --ratios 0 0.1 0.2 0.4 --jobs 4
    python -m repro fleet --clusters 4 --router jsq --scenario three-priority
    python -m repro dag --scenario layered --scheduler critical_path_first
    python -m repro fleet --telemetry run.jsonl --telemetry-interval 1.0
    python -m repro inspect run.jsonl           # summaries + ASCII plots
    python -m repro fleet --trace out.json      # record per-job lifecycle spans
    python -m repro trace out.json --focus-job 7   # waterfall + attribution
    python -m repro fleet --faults "crash:mttf=2000;stragglers:p=0.05"
    python -m repro fleet --checkpoint run.ckpt --checkpoint-every 500
    python -m repro fleet --resume run.ckpt     # bitwise-identical continuation
    python -m repro chaos --faults "crash:mttf=1000" --levels 0 1 2
    python -m repro synth-trace --out t.jsonl --num-jobs 100000   # write a trace
    python -m repro synth-trace --out t.jsonl --mix google --mix-classes 3
    python -m repro fleet --replay t.jsonl      # stream the trace through a fleet
    python -m repro dag --replay dags.jsonl --scheduler critical_path_first

``--num-jobs`` controls the number of *simulated* jobs per trace; ``--jobs N``
fans independent work units (replications, sweep points, policy runs) across
``N`` worker processes with results bitwise-identical to a serial run;
``--replications R`` replicates the experiment over independent seeds and
reports Student-t confidence intervals.

Every command prints the same rows the corresponding paper artefact reports
and returns a non-zero exit code on invalid arguments.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from typing import Callable, Dict, List, Optional, Sequence, Union

from repro.core.policies import SchedulingPolicy
from repro.dag.schedulers import STAGE_SCHEDULERS
from repro.dag.simulation import DagSimulation
from repro.dag.simulation import replicate_dag
from repro.experiments import figures, tables
from repro.experiments.harness import run_policies
from repro.experiments.parallel import (
    PolicyComparisonExperiment,
    RowSweepExperiment,
    interval_rows,
    merge_replication_parts,
    replicate_rows,
)
from repro.experiments.reporting import format_comparison, format_figure, format_rows
from repro.experiments.sweeps import drop_ratio_sweep, load_sweep
from repro.engine.cluster import ClusterCapacityError
from repro.env import (
    AGENTS,
    ENV_IDS,
    Agent,
    BuiltinAgent,
    EnvSpec,
    SchedulerAgent,
    evaluate,
    load_agent,
    make_agent,
    save_agent,
    train,
)
from repro.env.learn import DAG_ENV_SCENARIOS, FLEET_ENV_SCENARIOS, summarise
from repro.faults import load_checkpoint, parse_fault_spec
from repro.faults.chaos import fleet_from_config, run_chaos
from repro.faults.spec import FAULT_KINDS
from repro.fleet.simulation import replicate_fleet
from repro.simulation.replication import ReplicationRunner
from repro.fleet.budget import BUDGET_MODES
from repro.fleet.dispatcher import ROUTERS
from repro.fleet.simulation import FleetSimulation
from repro.telemetry import JsonLinesSink, NULL_HUB, TelemetryHub, Tracer
from repro.traces import (
    CLUSTER_JSONL,
    DAG_JSONL,
    DEFAULT_WAVE_WIDTH,
    TRACE_FORMATS,
    TraceHistogram,
    synthesize_trace,
)
from repro.traces.replay import ReplaySource
from repro.traces.synth import compact_profiles
from repro.workloads import scenarios as scenario_module
from repro.workloads.traces import google_mix_scenario
from repro.workloads.scenarios import (
    DagScenario,
    FleetScenario,
    HIGH,
    LOW,
    Scenario,
)

#: Named scenarios the CLI can build.
SCENARIOS: Dict[str, Callable[[], Scenario]] = {
    "reference": scenario_module.reference_two_priority_scenario,
    "equal-sizes": scenario_module.equal_job_sizes_scenario,
    "more-high-priority": scenario_module.more_high_priority_scenario,
    "low-load": scenario_module.low_load_scenario,
    "three-priority": scenario_module.three_priority_scenario,
    "triangle-count": scenario_module.triangle_count_scenario,
    "validation": scenario_module.validation_datasets_scenario,
}

#: Fleet scenarios the ``fleet`` subcommand can build.
FLEET_SCENARIOS: Dict[str, Callable[..., FleetScenario]] = {
    "two-priority": scenario_module.fleet_two_priority_scenario,
    "three-priority": scenario_module.fleet_three_priority_scenario,
}

#: DAG scenarios the ``dag`` subcommand can build.
DAG_SCENARIOS: Dict[str, Callable[..., DagScenario]] = {
    "layered": scenario_module.dag_layered_scenario,
    "fork-join": scenario_module.dag_fork_join_scenario,
    "triangle-count": scenario_module.dag_triangle_count_scenario,
}


def _check_choice(kind: str, value: str, valid: Sequence[str]) -> str:
    """Validate a CLI name against ``valid``; raise with the full choice list.

    The raised :class:`ValueError` is caught by :func:`main`, which prints the
    message and exits non-zero — no raw traceback for a typo'd router or
    stage-scheduler name.
    """
    if value in valid:
        return value
    raise ValueError(
        f"unknown {kind} {value!r}; valid choices: {', '.join(valid)}"
    )

#: Figures the CLI can regenerate (Fig. 8 and 11 take extra options).
FIGURES = ("4", "5", "6", "7", "8", "9", "10", "11")


def _positive_int(text: str) -> int:
    """argparse type for flags that must be an integer >= 1 (e.g. ``--jobs``)."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _add_parallel_flags(parser: argparse.ArgumentParser) -> None:
    """``--jobs`` (worker processes) and ``--replications`` (independent seeds)."""
    parser.add_argument("--jobs", type=_positive_int, default=1, metavar="N",
                        help="worker processes for independent work units "
                             "(results are bitwise-identical to --jobs 1)")
    parser.add_argument("--replications", type=_positive_int, default=1, metavar="R",
                        help="replicate over R independent seeds and report "
                             "Student-t confidence intervals")


def _positive_float(text: str) -> float:
    """argparse type for flags that must be a float > 0 (e.g. ``--telemetry-interval``)."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number > 0, got {text!r}")
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"must be a finite number > 0, got {text!r}")
    if value <= 0:
        raise argparse.ArgumentTypeError(f"must be > 0, got {value}")
    return value


def _add_telemetry_flags(parser: argparse.ArgumentParser) -> None:
    """``--telemetry PATH`` (JSONL stream) and ``--telemetry-interval T``."""
    parser.add_argument("--telemetry", default=None, metavar="PATH",
                        help="stream run telemetry to a JSON-lines file "
                             "(inspect it with: repro inspect PATH)")
    parser.add_argument("--telemetry-interval", type=_positive_float, default=5.0,
                        metavar="T",
                        help="periodic-sample spacing in simulated seconds "
                             "(default: 5.0)")
    parser.add_argument("--trace", default=None, metavar="PATH",
                        help="record per-job lifecycle spans and export them "
                             "as Chrome-trace/Perfetto JSON to PATH (render "
                             "with: repro trace PATH)")


def _add_replay_flags(parser: argparse.ArgumentParser, mode: str) -> None:
    """``--replay FILE`` plus its time/rate scaling knobs."""
    parser.add_argument("--replay", default=None, metavar="FILE",
                        help=f"stream a trace file through the {mode} "
                             "simulation instead of a synthetic scenario "
                             "(formats: " + ", ".join(TRACE_FORMATS) + "; "
                             "write one with: repro synth-trace; --jobs N "
                             "parallelises the trace parsing with "
                             "byte-identical output)")
    parser.add_argument("--replay-time-scale", type=_positive_float, default=1.0,
                        metavar="S",
                        help="time compression: divide arrival times AND task "
                             "durations by S (same offered load, S x faster)")
    parser.add_argument("--replay-rate-scale", type=_positive_float, default=1.0,
                        metavar="S",
                        help="arrival-rate scaling: divide only arrival times "
                             "by S (S=1.25 offers 25%% more load)")


def _add_fault_flags(parser: argparse.ArgumentParser) -> None:
    """``--faults SPEC`` — deterministic fault injection for this run."""
    parser.add_argument("--faults", default=None, metavar="SPEC",
                        help="inject faults, e.g. "
                             "'crash:mttf=2000,repair=60;stragglers:p=0.05,"
                             "slowdown=4;taskfail:p=0.01,retries=3' "
                             f"(kinds: {', '.join(FAULT_KINDS)})")


def _add_env_flags(parser: argparse.ArgumentParser) -> None:
    """Flags describing a decision environment (shared by ``learn``/``policy``)."""
    parser.add_argument("--env", required=True, choices=list(ENV_IDS),
                        help="decision environment: 'scheduling' picks the "
                             "next DAG stage, 'routing' picks the target "
                             "cluster")
    parser.add_argument("--scenario", default=None,
                        help="workload scenario (scheduling: "
                             + ", ".join(sorted(DAG_ENV_SCENARIOS))
                             + "; routing: "
                             + ", ".join(sorted(FLEET_ENV_SCENARIOS))
                             + "; mutually exclusive with --replay)")
    parser.add_argument("--policy", type=_parse_policy, default=None,
                        help="scheduling policy of the simulated cluster(s) "
                             "(default: DA with 20%% low-priority dropping)")
    parser.add_argument("--num-jobs", type=_positive_int, default=None,
                        metavar="N",
                        help="cap each episode at the first N jobs of the "
                             "trace")
    parser.add_argument("--clusters", type=_positive_int, default=None,
                        help="fleet size for --env routing "
                             "(default: the scenario's)")
    parser.add_argument("--scheduler", default="fifo",
                        help="stage scheduler driving the scheduling env's "
                             "'builtin' agent "
                             f"({', '.join(STAGE_SCHEDULERS)})")
    parser.add_argument("--router", default="round_robin",
                        help="dispatcher driving the routing env's 'builtin' "
                             f"agent ({', '.join(ROUTERS)})")
    parser.add_argument("--power-of-d", type=_positive_int, default=None,
                        help="probe only d random clusters per decision (jsq)")
    parser.add_argument("--seed", type=int, default=0,
                        help="base seed of the training/rollout episode "
                             "stream")
    _add_replay_flags(parser, "decision-env")


def _check_telemetry_path(path: Optional[str]) -> Optional[str]:
    """Fail fast — and with a clear message — on an unwritable telemetry path.

    The probe writers run deep inside (possibly worker-process) simulations;
    surfacing a bad path only after minutes of simulation would be hostile.
    The empty probe file created here is overwritten by the real stream.
    """
    if path is None:
        return None
    try:
        with open(path, "w", encoding="utf-8"):
            pass
    except OSError as error:
        raise ValueError(f"cannot write telemetry file {path!r}: {error}")
    return path


def _telemetry_kwargs(args: argparse.Namespace) -> dict:
    """Keyword arguments threading ``--telemetry`` into the experiment layers."""
    return {
        "telemetry_base": _check_telemetry_path(args.telemetry),
        "telemetry_interval": args.telemetry_interval,
    }


def _check_trace_flag(args: argparse.Namespace) -> Optional[str]:
    """Validate ``--trace``: writable path, single run only (no replications)."""
    trace = getattr(args, "trace", None)
    if trace is None:
        return None
    if getattr(args, "replications", 1) > 1:
        raise ValueError(
            "--trace needs a single run; it cannot be combined with "
            "--replications"
        )
    return _check_telemetry_path(trace)


def _single_run_hub(args: argparse.Namespace):
    """Hub for a single in-process run, plus where its spans are read from.

    Returns ``(hub, spans_from)``.  With ``--telemetry`` the hub streams
    events to that file and ``spans_from`` is its path, read back by the
    Chrome-trace export; with only ``--trace`` a :class:`Tracer` collects
    the spans in memory and is ``spans_from``.  With neither flag the
    disabled null hub and ``None`` are returned.
    """
    path = _check_telemetry_path(args.telemetry)
    trace = _check_trace_flag(args)
    if path is None and trace is None:
        return NULL_HUB, None
    # Periodic sampling stays opt-in via --telemetry; a pure --trace run
    # records spans (and the other probe events) but no samples.
    interval = args.telemetry_interval if path is not None else None
    hub = TelemetryHub(sample_interval=interval, tracing=trace is not None)
    if path is None:
        return hub, hub.add_sink(Tracer())
    hub.add_sink(JsonLinesSink(path))
    return hub, path


def _export_trace(
    args: argparse.Namespace, spans_from: Union[str, Tracer, None]
) -> Optional[str]:
    """Export the recorded spans to ``--trace`` as Chrome-trace JSON."""
    from repro.telemetry.tracing import read_spans, write_chrome_trace

    trace = getattr(args, "trace", None)
    if trace is None or spans_from is None:
        return None
    spans = read_spans(spans_from) if isinstance(spans_from, str) else spans_from.spans
    count = write_chrome_trace(trace, spans)
    return (
        f"Trace: {count} spans -> {trace} "
        "(render: repro trace; load: ui.perfetto.dev or chrome://tracing)"
    )


def _parse_quantiles(text: str) -> tuple:
    """Parse ``--quantiles`` (comma-separated fractions strictly in (0, 1))."""
    try:
        values = tuple(float(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(
            f"expected comma-separated fractions like 0.5,0.9,0.999, got {text!r}"
        )
    if not values or any(not 0.0 < q < 1.0 for q in values):
        raise argparse.ArgumentTypeError(
            f"quantiles must be fractions strictly between 0 and 1, got {text!r}"
        )
    return values


def _parse_policy(name: str) -> SchedulingPolicy:
    """Parse a policy name like ``P``, ``NP``, ``DA(0/20)`` or ``DA(0/10/20)``."""
    cleaned = name.strip()
    if cleaned.upper() == "P":
        return SchedulingPolicy.preemptive_priority()
    if cleaned.upper() == "NP":
        return SchedulingPolicy.non_preemptive_priority()
    upper = cleaned.upper()
    if upper.startswith("DA(") and cleaned.endswith(")"):
        body = cleaned[cleaned.index("(") + 1 : -1]
        percents = [float(part) for part in body.split("/") if part != ""]
        ratios = [p / 100.0 for p in percents]
        priorities = list(range(len(ratios) - 1, -1, -1))
        return SchedulingPolicy.differential_approximation(dict(zip(priorities, ratios)))
    raise argparse.ArgumentTypeError(
        f"unknown policy {name!r}; expected P, NP or DA(<pct>/<pct>[/<pct>])"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Reproduce the DiAS (Middleware 2019) evaluation.",
    )
    subparsers = parser.add_subparsers(dest="command")

    subparsers.add_parser("list", help="list available figures, tables and scenarios")

    figure_parser = subparsers.add_parser("figure", help="regenerate one figure")
    figure_parser.add_argument("number", choices=FIGURES)
    figure_parser.add_argument("--num-jobs", type=int, default=None,
                               help="override the number of simulated jobs per run")
    figure_parser.add_argument("--seed", type=int, default=0)
    figure_parser.add_argument("--variant", default="equal_sizes",
                               choices=["equal_sizes", "more_high_priority", "low_load"],
                               help="Fig. 8 variant")
    figure_parser.add_argument("--budget", default="limited",
                               choices=["limited", "unlimited"], help="Fig. 11 budget")

    table_parser = subparsers.add_parser("table", help="regenerate one table")
    table_parser.add_argument("number", choices=["2"])
    table_parser.add_argument("--num-jobs", type=int, default=300)
    table_parser.add_argument("--seed", type=int, default=0)

    compare_parser = subparsers.add_parser("compare", help="compare policies on a scenario")
    compare_parser.add_argument("--scenario", choices=sorted(SCENARIOS), default="reference")
    compare_parser.add_argument("--policies", nargs="+", default=["P", "NP", "DA(0/20)"])
    compare_parser.add_argument("--num-jobs", type=int, default=400,
                                help="simulated jobs per trace")
    compare_parser.add_argument("--seed", type=int, default=0)
    compare_parser.add_argument("--quantiles", type=_parse_quantiles, default=None,
                                metavar="Q,Q,...",
                                help="extra response-time quantiles tracked by "
                                     "streaming (P²) estimators, e.g. "
                                     "0.9,0.999 (single-run mode only)")
    _add_parallel_flags(compare_parser)
    _add_telemetry_flags(compare_parser)
    _add_fault_flags(compare_parser)

    sweep_parser = subparsers.add_parser("sweep", help="sweep the low-priority drop ratio")
    sweep_parser.add_argument("--scenario", choices=sorted(SCENARIOS), default="reference")
    sweep_parser.add_argument("--ratios", nargs="+", type=float,
                              default=[0.0, 0.1, 0.2, 0.4])
    sweep_parser.add_argument("--num-jobs", type=int, default=300,
                              help="simulated jobs per trace")
    sweep_parser.add_argument("--seed", type=int, default=0)
    _add_parallel_flags(sweep_parser)
    _add_telemetry_flags(sweep_parser)

    load_parser = subparsers.add_parser("load-sweep", help="sweep the system load")
    load_parser.add_argument("--scenario", choices=sorted(SCENARIOS), default="reference")
    load_parser.add_argument("--utilisations", nargs="+", type=float,
                             default=[0.5, 0.65, 0.8])
    load_parser.add_argument("--num-jobs", type=int, default=300,
                             help="simulated jobs per trace")
    load_parser.add_argument("--seed", type=int, default=0)
    _add_parallel_flags(load_parser)

    fleet_parser = subparsers.add_parser(
        "fleet", help="run a multi-cluster fleet behind a routing dispatcher"
    )
    fleet_parser.add_argument("--clusters", type=int, default=4,
                              help="number of DiAS clusters in the fleet")
    fleet_parser.add_argument("--router", default="jsq",
                              help="routing policy of the fleet dispatcher "
                                   f"({', '.join(ROUTERS)})")
    fleet_parser.add_argument("--power-of-d", type=int, default=None,
                              help="probe only d random clusters per decision (jsq)")
    fleet_parser.add_argument("--scenario", choices=sorted(FLEET_SCENARIOS),
                              default=None,
                              help="named fleet scenario (default: two-priority; "
                                   "mutually exclusive with --replay)")
    fleet_parser.add_argument("--policy", type=_parse_policy, default=None,
                              help="per-cluster scheduling policy "
                                   "(default: DA with 20%% low-priority dropping)")
    fleet_parser.add_argument("--num-jobs", type=int, default=None,
                              help="jobs per cluster (default: 200; fleet trace "
                                   "is clusters x num-jobs)")
    _add_replay_flags(fleet_parser, "fleet")
    fleet_parser.add_argument("--budget", choices=BUDGET_MODES, default="per-cluster",
                              help="sprint-budget arbitration across the fleet")
    fleet_parser.add_argument("--utilisation", type=_positive_float, default=None,
                              metavar="U",
                              help="rescale per-cluster offered load to U "
                                   "(default: the scenario's own, ~0.8; "
                                   "checkpoints need the quiescent points a "
                                   "lower load creates)")
    fleet_parser.add_argument("--seed", type=int, default=0)
    fleet_parser.add_argument("--checkpoint", default=None, metavar="PATH",
                              help="snapshot the run to PATH at quiescent "
                                   "points (resume with --resume PATH)")
    fleet_parser.add_argument("--checkpoint-every", type=_positive_float,
                              default=None, metavar="T",
                              help="simulated seconds between checkpoint marks "
                                   "(default: 500 when --checkpoint is given)")
    fleet_parser.add_argument("--resume", default=None, metavar="PATH",
                              help="resume a run from a checkpoint file; the "
                                   "continuation is bitwise-identical to the "
                                   "uninterrupted run")
    fleet_parser.add_argument("--until", type=_positive_float, default=None,
                              metavar="T",
                              help="stop the simulation at simulated time T "
                                   "(with --checkpoint: a deterministic "
                                   "interruption to --resume from)")
    _add_parallel_flags(fleet_parser)
    _add_telemetry_flags(fleet_parser)
    _add_fault_flags(fleet_parser)

    chaos_parser = subparsers.add_parser(
        "chaos", help="fault-intensity ablation: the same fleet run at "
                      "scaled fault levels, with deltas vs the fault-free "
                      "baseline"
    )
    chaos_parser.add_argument("--scenario", choices=sorted(FLEET_SCENARIOS),
                              default="two-priority")
    chaos_parser.add_argument("--clusters", type=int, default=4,
                              help="number of DiAS clusters in the fleet")
    chaos_parser.add_argument("--router", default="round_robin",
                              help="routing policy of the fleet dispatcher "
                                   f"({', '.join(ROUTERS)})")
    chaos_parser.add_argument("--power-of-d", type=int, default=None,
                              help="probe only d random clusters per decision (jsq)")
    chaos_parser.add_argument("--policy", type=_parse_policy, default=None,
                              help="per-cluster scheduling policy "
                                   "(default: DA with 20%% low-priority dropping)")
    chaos_parser.add_argument("--num-jobs", type=int, default=100,
                              help="jobs per cluster (fleet trace is clusters x num-jobs)")
    chaos_parser.add_argument("--budget", choices=BUDGET_MODES, default="per-cluster",
                              help="sprint-budget arbitration across the fleet")
    chaos_parser.add_argument("--utilisation", type=_positive_float, default=None,
                              metavar="U",
                              help="rescale per-cluster offered load to U")
    chaos_parser.add_argument("--seed", type=int, default=0)
    chaos_parser.add_argument("--levels", nargs="+", type=float,
                              default=[0.0, 0.5, 1.0, 2.0],
                              help="fault-intensity multipliers applied to the "
                                   "base --faults spec (0 = fault-free baseline)")
    chaos_parser.add_argument("--faults", required=True, metavar="SPEC",
                              help="base fault spec scaled by each level, e.g. "
                                   "'crash:mttf=2000;stragglers:p=0.05' "
                                   f"(kinds: {', '.join(FAULT_KINDS)})")
    chaos_parser.add_argument("--trace", default=None, metavar="PATH",
                              help="record spans of the highest-level run and "
                                   "export Chrome-trace JSON to PATH")
    chaos_parser.add_argument("--telemetry", default=None, metavar="PATH",
                              help=argparse.SUPPRESS)
    chaos_parser.add_argument("--telemetry-interval", type=_positive_float,
                              default=5.0, help=argparse.SUPPRESS)

    dag_parser = subparsers.add_parser(
        "dag", help="run stage-DAG jobs under a pluggable stage scheduler"
    )
    dag_parser.add_argument("--scenario", choices=sorted(DAG_SCENARIOS),
                            default=None,
                            help="named DAG scenario (default: layered; "
                                 "mutually exclusive with --replay)")
    dag_parser.add_argument("--scheduler", default="critical_path_first",
                            help="stage scheduler "
                                 f"({', '.join(STAGE_SCHEDULERS)})")
    dag_parser.add_argument("--policy", type=_parse_policy, default=None,
                            help="scheduling policy "
                                 "(default: DA with 20%% low-priority dropping)")
    dag_parser.add_argument("--slack-biased", action="store_true",
                            help="bias task dropping toward off-critical-path "
                                 "stages using per-stage slack")
    dag_parser.add_argument("--num-jobs", type=int, default=None,
                            help="simulated DAG jobs per trace (default: 150)")
    dag_parser.add_argument("--seed", type=int, default=0)
    _add_replay_flags(dag_parser, "dag")
    _add_parallel_flags(dag_parser)
    _add_telemetry_flags(dag_parser)
    _add_fault_flags(dag_parser)

    learn_parser = subparsers.add_parser(
        "learn",
        help="train a contextual-bandit policy in a decision env and "
             "evaluate it against heuristic baselines under CRN",
    )
    _add_env_flags(learn_parser)
    learn_parser.add_argument("--agent", default="epsilon_greedy",
                              choices=["epsilon_greedy", "linucb"],
                              help="learned agent to train "
                                   "(default: epsilon_greedy)")
    learn_parser.add_argument("--episodes", type=_positive_int, default=20,
                              help="training episodes (default: 20)")
    learn_parser.add_argument("--eval-episodes", type=_positive_int, default=5,
                              help="CRN evaluation episodes per policy "
                                   "(default: 5)")
    learn_parser.add_argument("--eval-seed", type=int, default=1000,
                              help="base seed of the evaluation episode "
                                   "stream (disjoint from training; "
                                   "default: 1000)")
    learn_parser.add_argument("--epsilon", type=float, default=0.2,
                              help="epsilon-greedy exploration rate "
                                   "(default: 0.2)")
    learn_parser.add_argument("--learning-rate", type=float, default=0.05,
                              help="epsilon-greedy SGD step size "
                                   "(default: 0.05)")
    learn_parser.add_argument("--alpha", type=float, default=1.0,
                              help="LinUCB exploration bonus (default: 1.0)")
    learn_parser.add_argument("--baseline", action="append", default=None,
                              metavar="NAME",
                              help="heuristic baseline evaluated under the "
                                   "same seeds (stage scheduler for "
                                   "--env scheduling, router for --env "
                                   "routing; repeatable; defaults: "
                                   "fifo+critical_path_first / random+jsq)")
    learn_parser.add_argument("--save", default=None, metavar="PATH",
                              help="write the trained agent as JSON "
                                   "(replay it with: repro policy --load)")
    learn_parser.add_argument("--out", default=None, metavar="PATH",
                              help="write training history + evaluation "
                                   "rows as machine-readable JSON")
    learn_parser.add_argument("--jobs", type=_positive_int, default=1,
                              metavar="N",
                              help="worker processes for evaluation episodes "
                                   "(byte-identical to --jobs 1)")

    policy_parser = subparsers.add_parser(
        "policy",
        help="roll a saved or scripted policy through a decision env",
    )
    _add_env_flags(policy_parser)
    source = policy_parser.add_mutually_exclusive_group()
    source.add_argument("--agent", default="builtin",
                        help="scripted agent: " + ", ".join(AGENTS)
                             + ", or scheduler:<"
                             + "|".join(STAGE_SCHEDULERS) + ">")
    source.add_argument("--load", default=None, metavar="PATH",
                        help="load an agent saved by: repro learn --save")
    policy_parser.add_argument("--episodes", type=_positive_int, default=5,
                               help="CRN rollout episodes (default: 5)")
    policy_parser.add_argument("--out", default=None, metavar="PATH",
                               help="write per-episode rows as JSON")
    policy_parser.add_argument("--jobs", type=_positive_int, default=1,
                               metavar="N",
                               help="worker processes for episodes "
                                    "(byte-identical to --jobs 1)")

    synth_parser = subparsers.add_parser(
        "synth-trace", help="synthesize a deterministic trace file to replay "
                            "with 'repro fleet/dag --replay'"
    )
    synth_parser.add_argument("--out", required=True, metavar="PATH",
                              help="trace file to write")
    synth_parser.add_argument("--format", default=CLUSTER_JSONL,
                              help="trace format "
                                   f"({', '.join(TRACE_FORMATS)}; default: "
                                   f"{CLUSTER_JSONL})")
    synth_parser.add_argument("--scenario", default=None,
                              help="workload scenario (cluster formats: "
                                   + ", ".join(sorted(SCENARIOS))
                                   + ", default reference; dag-jsonl: "
                                   + ", ".join(sorted(DAG_SCENARIOS))
                                   + ", default layered)")
    synth_parser.add_argument("--mix", default=None, choices=["google"],
                              help="use the Google 12-level priority mix "
                                   "collapsed onto --mix-classes dominant "
                                   "classes instead of --scenario")
    synth_parser.add_argument("--mix-classes", type=int, default=3,
                              choices=[2, 3],
                              help="dominant classes the Google mix collapses "
                                   "onto (default: 3)")
    synth_parser.add_argument("--clusters", type=_positive_int, default=None,
                              metavar="N",
                              help="scale arrival rates for a fleet of N "
                                   "clusters (cluster formats only)")
    synth_parser.add_argument("--tasks-per-job", type=_positive_int, default=None,
                              metavar="T",
                              help="shrink jobs to T map tasks (recalibrated "
                                   "load; keeps million-job traces cheap)")
    synth_parser.add_argument("--num-jobs", type=_positive_int, default=1000,
                              help="trace length in jobs (default: 1000)")
    synth_parser.add_argument("--wave-width", type=_positive_int,
                              default=DEFAULT_WAVE_WIDTH,
                              help="dag-jsonl first-wave width (default: "
                                   f"{DEFAULT_WAVE_WIDTH})")
    synth_parser.add_argument("--seed", type=int, default=0)

    trace_parser = subparsers.add_parser(
        "trace", help="render a span trace: waterfall, latency attribution, "
                      "observed-vs-predicted critical paths"
    )
    trace_parser.add_argument("path", help="Chrome-trace JSON written by --trace, "
                                           "or a span-carrying telemetry JSONL file")
    trace_parser.add_argument("--focus-job", type=int, default=None, metavar="ID",
                              help="render the waterfall for this job "
                                   "(default: the slowest traced job)")
    trace_parser.add_argument("--validate", action="store_true",
                              help="only validate the file as a Chrome-trace "
                                   "document, print no report")
    trace_parser.add_argument("--width", type=_positive_int, default=100,
                              help="waterfall width in character columns")

    inspect_parser = subparsers.add_parser(
        "inspect", help="summarise and plot a telemetry JSON-lines file"
    )
    inspect_parser.add_argument("path", help="telemetry JSONL file written by "
                                             "--telemetry")
    inspect_parser.add_argument("--validate", action="store_true",
                                help="only validate every line against the "
                                     "event schema, print no report")
    inspect_parser.add_argument("--width", type=_positive_int, default=60,
                                help="plot width in character columns")
    inspect_parser.add_argument("--height", type=_positive_int, default=10,
                                help="plot height in character rows")
    return parser


def _run_figure(args: argparse.Namespace) -> str:
    number = args.number
    jobs = args.num_jobs
    if number == "4":
        result = figures.figure4_processing_time_validation(
            num_jobs=jobs or 25, seed=args.seed
        )
        return format_figure(result, "Figure 4")
    if number == "5":
        result = figures.figure5_response_time_validation(
            num_jobs=jobs or 300, seed=args.seed
        )
        return format_figure(result, "Figure 5")
    if number == "6":
        result = figures.figure6_accuracy_loss(seed=args.seed)
        return format_figure(result, "Figure 6")
    if number == "7":
        comparison = figures.figure7_two_priority_reference(
            num_jobs=jobs or 400, seed=args.seed
        )
        return format_comparison(comparison, "Figure 7")
    if number == "8":
        comparison = figures.figure8_sensitivity(
            args.variant, num_jobs=jobs or 400, seed=args.seed
        )
        return format_comparison(comparison, f"Figure 8 ({args.variant})")
    if number == "9":
        comparison = figures.figure9_three_priority(num_jobs=jobs or 500, seed=args.seed)
        return format_comparison(comparison, "Figure 9")
    if number == "10":
        comparison = figures.figure10_triangle_count(num_jobs=jobs or 300, seed=args.seed)
        return format_comparison(comparison, "Figure 10")
    if number == "11":
        comparison = figures.figure11_dias_sprinting(
            budget=args.budget, num_jobs=jobs or 300, seed=args.seed
        )
        energy = figures.figure11_energy_comparison(num_jobs=jobs or 300, seed=args.seed)
        return "\n\n".join(
            [
                format_comparison(comparison, f"Figure 11 ({args.budget} sprinting)"),
                "Figure 11c — energy\n" + format_rows(energy["rows"]),
            ]
        )
    raise ValueError(f"unknown figure {number!r}")


def _run_list() -> str:
    lines = ["figures: " + ", ".join(FIGURES)]
    lines.append("tables: 2")
    lines.append("scenarios: " + ", ".join(sorted(SCENARIOS)))
    lines.append("fleet scenarios: " + ", ".join(sorted(FLEET_SCENARIOS)))
    lines.append("fleet routers: " + ", ".join(ROUTERS))
    lines.append("dag scenarios: " + ", ".join(sorted(DAG_SCENARIOS)))
    lines.append("dag stage schedulers: " + ", ".join(STAGE_SCHEDULERS))
    lines.append("policies: P, NP, DA(<pct>/<pct>[/<pct>]) e.g. DA(0/20)")
    lines.append("decision envs (learn, policy): " + ", ".join(ENV_IDS))
    lines.append("decision agents (policy --agent): " + ", ".join(AGENTS)
                 + ", scheduler:<stage scheduler>")
    lines.append("learnable agents (learn --agent): epsilon_greedy, linucb")
    lines.append("fault kinds (--faults): " + ", ".join(FAULT_KINDS)
                 + "  e.g. 'crash:mttf=2000,repair=60;stragglers:p=0.05'")
    lines.append("trace formats (synth-trace, --replay): " + ", ".join(TRACE_FORMATS)
                 + "  e.g. repro synth-trace --out t.jsonl; repro fleet --replay t.jsonl")
    return "\n".join(lines)


def _quantile_rows(comparison, quantiles: Sequence[float]) -> List[dict]:
    """Per-(policy, priority) rows of the extra streaming quantiles."""
    rows: List[dict] = []
    for name, result in comparison.results.items():
        for priority in comparison.priorities:
            row = {"policy": name, "priority": priority}
            for q in quantiles:
                row[f"p{100 * q:g}_response_s"] = result.tail_response_time(
                    priority, q=100.0 * q
                )
            rows.append(row)
    return rows


def _graduated_da(priorities: Sequence[int]) -> SchedulingPolicy:
    """Graduated DA over ``priorities``, highest first: 0 % for the top class
    up to 20 % for the bottom one."""
    if len(priorities) == 1:
        ratios = {priorities[0]: 0.0}
    else:
        step = 0.2 / (len(priorities) - 1)
        ratios = {p: round(i * step, 3) for i, p in enumerate(priorities)}
    return SchedulingPolicy.differential_approximation(ratios)


def _fleet_scenario(args: argparse.Namespace) -> FleetScenario:
    """Build the fleet scenario, applying the optional ``--utilisation``."""
    scenario = FLEET_SCENARIOS[args.scenario](
        num_clusters=args.clusters, num_jobs_per_cluster=args.num_jobs
    )
    utilisation = getattr(args, "utilisation", None)
    if utilisation is None:
        return scenario
    if utilisation >= 1.0:
        raise ValueError(
            f"--utilisation must be strictly below 1, got {utilisation!r}"
        )
    return FleetScenario(
        base=scenario.base.with_utilisation(utilisation),
        num_clusters=args.clusters,
        name=f"{scenario.name}-u{utilisation:g}",
        description=scenario.description,
    )


def _fleet_report(title: str, result, simulation: FleetSimulation) -> List[str]:
    """The standard single-run fleet report: latency, load, summary, faults."""
    summary_rows = [{"metric": key, "value": value} for key, value in result.summary().items()]
    lines = [
        title,
        "=" * len(title),
        "",
        "Per-class latency (fleet-wide)",
        format_rows(result.class_rows()),
        "",
        "Per-cluster load",
        format_rows(result.cluster_rows()),
        "",
        "Summary",
        format_rows(summary_rows),
    ]
    counters = simulation.fault_counters()
    if counters:
        lines += [
            "",
            "Faults & recovery",
            format_rows(
                [{"counter": name, "count": float(value)}
                 for name, value in counters.items()]
            ),
        ]
    return lines


def _resume_fleet(args: argparse.Namespace) -> str:
    """Continue an interrupted ``repro fleet`` run from its checkpoint file."""
    if args.replications > 1:
        raise ValueError(
            "--resume continues one interrupted run; it cannot be combined "
            "with --replications"
        )
    if args.trace is not None or args.telemetry is not None:
        raise ValueError(
            "--resume cannot record --trace/--telemetry: events from before "
            "the snapshot are not replayed, so the stream would be partial"
        )
    import pickle

    try:
        payload = load_checkpoint(args.resume)
    except (OSError, pickle.PickleError) as error:
        raise ValueError(f"cannot read checkpoint {args.resume!r}: {error}")
    config = payload.get("config")
    if config is None:
        raise ValueError(
            f"checkpoint {args.resume!r} carries no embedded run "
            "configuration; it was written through the API, not the CLI — "
            "rebuild the simulation in code and call restore()"
        )
    simulation = fleet_from_config(config)
    simulation.restore(payload)
    result = simulation.run()
    scenario_name = config.get("scenario_name", "fleet")
    title = (
        f"Fleet: {scenario_name}  router={result.dispatcher_name}  "
        f"policy={simulation.policy.name}  budget={config['sprint_budget']}  "
        f"(resumed from t={payload['time']:.1f}s)"
    )
    return "\n".join(_fleet_report(title, result, simulation))


def _replay_policy(shares: Dict[int, float]) -> SchedulingPolicy:
    """Default replay policy: graduated DA over the trace's declared classes.

    Headerless traces declare no classes; they fall back to 20 % dropping on
    priority 0 (unknown priorities drop nothing — ``map_drop_ratio`` defaults
    absent classes to 0.0).
    """
    if not shares:
        return SchedulingPolicy.differential_approximation({0: 0.2})
    return _graduated_da(sorted(shares, reverse=True))


def _check_replay_conflicts(args: argparse.Namespace, flags: Sequence[tuple]) -> None:
    """Reject flags that contradict driving the run from a trace file."""
    for flag, value in flags:
        if value is not None:
            raise ValueError(
                f"--replay drives the run from the trace file; {flag} "
                "conflicts with it"
            )
    if args.replications > 1:
        raise ValueError(
            "--replay replays one recorded trace; it cannot be combined "
            "with --replications"
        )


def _run_fleet_replay(args: argparse.Namespace) -> str:
    """Stream a cluster trace file through the fleet (constant memory)."""
    _check_replay_conflicts(args, (
        ("--scenario", args.scenario),
        ("--num-jobs", args.num_jobs),
        ("--utilisation", args.utilisation),
        ("--checkpoint", args.checkpoint),
        ("--checkpoint-every", args.checkpoint_every),
        ("--resume", args.resume),
    ))
    _check_choice("router", args.router, list(ROUTERS))
    fault_spec = parse_fault_spec(args.faults)
    # The header is validated here — malformed or DAG-format files fail
    # before any simulation state exists.
    source = ReplaySource(
        args.replay,
        mode="fleet",
        jobs=args.jobs,
        time_scale=args.replay_time_scale,
        rate_scale=args.replay_rate_scale,
    )
    shares = source.class_shares()
    policy = args.policy if args.policy is not None else _replay_policy(shares)
    hub, spans_from = _single_run_hub(args)
    simulation = FleetSimulation(
        policy=policy,
        jobs=(),
        num_clusters=args.clusters,
        dispatcher=args.router,
        power_of_d=args.power_of_d,
        seed=args.seed,
        sprint_budget=args.budget,
        telemetry=hub,
        faults=fault_spec,
        job_source=source,
        streaming_metrics=True,
        traffic_shares=shares,
    )
    result = simulation.run(until=args.until)
    hub.close()
    trace_note = _export_trace(args, spans_from)
    title = (
        f"Fleet replay: {args.replay} ({source.meta.format}, "
        f"{source.jobs_ingested} jobs)  router={result.dispatcher_name}  "
        f"policy={policy.name}  budget={args.budget}"
    )
    lines = _fleet_report(title, result, simulation)
    if trace_note is not None:
        lines += ["", trace_note]
    return "\n".join(lines)


def _run_fleet(args: argparse.Namespace) -> str:
    if args.replay is not None:
        return _run_fleet_replay(args)
    if args.scenario is None:
        args.scenario = "two-priority"
    if args.num_jobs is None:
        args.num_jobs = 200
    if args.resume is not None:
        return _resume_fleet(args)
    _check_choice("router", args.router, list(ROUTERS))
    _check_trace_flag(args)
    # Validate the fault spec up front: a typo exits non-zero with the valid
    # kind/key choices before any simulation work starts.
    fault_spec = parse_fault_spec(args.faults)
    checkpoint_every = args.checkpoint_every
    if args.checkpoint is not None and checkpoint_every is None:
        checkpoint_every = 500.0
    if args.checkpoint is None and args.checkpoint_every is not None:
        raise ValueError("--checkpoint-every needs --checkpoint PATH")
    scenario = _fleet_scenario(args)
    policy = args.policy if args.policy is not None else _graduated_da(scenario.priorities)
    if args.replications > 1:
        if args.checkpoint is not None:
            raise ValueError(
                "--checkpoint needs a single run; it cannot be combined "
                "with --replications"
            )
        if args.until is not None:
            raise ValueError(
                "--until needs a single run; it cannot be combined "
                "with --replications"
            )
        metrics = replicate_fleet(
            scenario,
            policy,
            args.replications,
            dispatcher=args.router,
            power_of_d=args.power_of_d,
            sprint_budget=args.budget,
            base_seed=args.seed,
            jobs=args.jobs,
            faults=fault_spec,
            **_telemetry_kwargs(args),
        )
        title = (
            f"Fleet: {scenario.name}  router={args.router}  policy={policy.name}  "
            f"budget={args.budget}  replications={args.replications}"
        )
        return "\n".join(
            [title, "=" * len(title), "", "Replicated fleet metrics (95% CI)",
             format_rows(interval_rows(metrics))]
        )
    trace = scenario.generate_trace(seed=args.seed)
    hub, spans_from = _single_run_hub(args)
    simulation = FleetSimulation(
        policy=policy,
        jobs=trace,
        clusters=scenario.make_clusters(),
        dispatcher=args.router,
        power_of_d=args.power_of_d,
        seed=args.seed,
        sprint_budget=args.budget,
        telemetry=hub,
        faults=fault_spec,
        checkpoint_every=checkpoint_every,
        checkpoint_path=args.checkpoint,
    )
    if args.checkpoint is not None:
        # Embedded in every snapshot so `repro fleet --resume PATH` can
        # rebuild the identical simulation from the file alone.
        simulation.checkpoint_config = {
            "scenario": scenario,
            "scenario_name": scenario.name,
            "policy": policy,
            "dispatcher": args.router,
            "power_of_d": args.power_of_d,
            "seed": args.seed,
            "sprint_budget": args.budget,
            "faults": fault_spec,
            "checkpoint_every": checkpoint_every,
            "checkpoint_path": args.checkpoint,
        }
    result = simulation.run(until=args.until)
    hub.close()
    trace_note = _export_trace(args, spans_from)
    title = (
        f"Fleet: {scenario.name}  router={result.dispatcher_name}  "
        f"policy={policy.name}  budget={args.budget}"
    )
    lines = _fleet_report(title, result, simulation)
    if trace_note is not None:
        lines += ["", trace_note]
    return "\n".join(lines)


def _run_chaos(args: argparse.Namespace) -> str:
    """Fault-intensity ablation over one fleet configuration."""
    _check_choice("router", args.router, list(ROUTERS))
    spec = parse_fault_spec(args.faults)
    scenario = _fleet_scenario(args)
    policy = args.policy if args.policy is not None else _graduated_da(scenario.priorities)
    hub, spans_from = _single_run_hub(args)
    rows = run_chaos(
        scenario,
        policy,
        spec,
        levels=args.levels,
        dispatcher=args.router,
        power_of_d=args.power_of_d,
        sprint_budget=args.budget,
        seed=args.seed,
        telemetry=hub,
        telemetry_level=max(args.levels) if hub is not NULL_HUB else None,
    )
    hub.close()
    trace_note = _export_trace(args, spans_from)
    title = (
        f"Chaos: {scenario.name}  router={args.router}  policy={policy.name}  "
        f"faults='{args.faults}'"
    )
    lines = [
        title,
        "=" * len(title),
        "",
        "Sensitivity to fault intensity (deltas vs level-0 baseline)",
        format_rows(rows),
    ]
    if trace_note is not None:
        lines += ["", trace_note]
    return "\n".join(lines)


def _dag_report(title: str, result, simulation: DagSimulation) -> List[str]:
    """The standard single-run DAG report: per-class latency, summary, faults."""
    class_rows = []
    for priority in sorted(result.priorities(), reverse=True):
        metrics = result.class_metrics(priority)
        class_rows.append(
            {
                "priority": priority,
                "jobs": float(metrics.job_count),
                "mean_response_s": metrics.response_time.mean,
                "p95_response_s": metrics.response_time.p95,
                "mean_makespan_s": result.mean_makespan(priority),
                "accuracy_loss_pct": 100.0 * metrics.accuracy_loss_mean,
            }
        )
    summary_rows = [
        {"metric": "completed_jobs", "value": float(result.completed_jobs)},
        {"metric": "mean_makespan_s", "value": result.mean_makespan()},
        {"metric": "mean_cp_stretch", "value": result.mean_critical_path_stretch()},
        {"metric": "mean_response_s", "value": result.mean_response_time()},
        {"metric": "p95_response_s", "value": result.tail_response_time()},
        {"metric": "utilisation", "value": result.utilisation},
        {"metric": "energy_kj", "value": result.total_energy_kilojoules},
    ]
    lines = [
        title,
        "=" * len(title),
        "",
        "Per-class latency",
        format_rows(class_rows),
        "",
        "Summary (cp_stretch = makespan over per-job lower bound)",
        format_rows(summary_rows),
    ]
    if simulation.faults is not None:
        lines += [
            "",
            "Faults & recovery",
            format_rows(
                [{"counter": name, "count": float(value)}
                 for name, value in simulation.faults.counters.items()]
            ),
        ]
    return lines


def _run_dag_replay(args: argparse.Namespace) -> str:
    """Stream a DAG trace file through the DAG simulation (constant memory)."""
    _check_replay_conflicts(args, (
        ("--scenario", args.scenario),
        ("--num-jobs", args.num_jobs),
    ))
    _check_choice("stage scheduler", args.scheduler, list(STAGE_SCHEDULERS))
    fault_spec = parse_fault_spec(args.faults)
    source = ReplaySource(
        args.replay,
        mode="dag",
        jobs=args.jobs,
        time_scale=args.replay_time_scale,
        rate_scale=args.replay_rate_scale,
    )
    policy = (
        args.policy
        if args.policy is not None
        else _replay_policy(source.class_shares())
    )
    hub, spans_from = _single_run_hub(args)
    simulation = DagSimulation(
        policy=policy,
        scheduler=args.scheduler,
        seed=args.seed,
        slack_biased=args.slack_biased,
        telemetry=hub,
        faults=fault_spec,
        job_source=source,
        streaming_metrics=True,
    )
    result = simulation.run()
    hub.close()
    trace_note = _export_trace(args, spans_from)
    title = (
        f"DAG replay: {args.replay} ({source.meta.format}, "
        f"{source.jobs_ingested} jobs)  scheduler={result.scheduler_name}  "
        f"policy={policy.name}  slack_biased={args.slack_biased}"
    )
    lines = _dag_report(title, result, simulation)
    if trace_note is not None:
        lines += ["", trace_note]
    return "\n".join(lines)


def _run_dag(args: argparse.Namespace) -> str:
    if args.replay is not None:
        return _run_dag_replay(args)
    if args.scenario is None:
        args.scenario = "layered"
    if args.num_jobs is None:
        args.num_jobs = 150
    _check_choice("stage scheduler", args.scheduler, list(STAGE_SCHEDULERS))
    _check_trace_flag(args)
    fault_spec = parse_fault_spec(args.faults)
    scenario = DAG_SCENARIOS[args.scenario](num_jobs=args.num_jobs)
    policy = (
        args.policy
        if args.policy is not None
        else SchedulingPolicy.differential_approximation({HIGH: 0.0, LOW: 0.2})
    )
    if args.replications > 1:
        metrics = replicate_dag(
            scenario,
            policy,
            args.replications,
            scheduler=args.scheduler,
            slack_biased=args.slack_biased,
            base_seed=args.seed,
            jobs=args.jobs,
            faults=fault_spec,
            **_telemetry_kwargs(args),
        )
        title = (
            f"DAG: {scenario.name}  scheduler={args.scheduler}  policy={policy.name}  "
            f"slack_biased={args.slack_biased}  replications={args.replications}"
        )
        return "\n".join(
            [title, "=" * len(title), "", "Replicated DAG metrics (95% CI)",
             format_rows(interval_rows(metrics))]
        )
    trace = scenario.generate_trace(seed=args.seed)
    hub, spans_from = _single_run_hub(args)
    simulation = DagSimulation(
        policy=policy,
        jobs=trace,
        scheduler=args.scheduler,
        cluster=scenario.cluster,
        seed=args.seed,
        slack_biased=args.slack_biased,
        telemetry=hub,
        faults=fault_spec,
    )
    result = simulation.run()
    hub.close()
    trace_note = _export_trace(args, spans_from)
    title = (
        f"DAG: {scenario.name}  scheduler={result.scheduler_name}  "
        f"policy={policy.name}  slack_biased={args.slack_biased}"
    )
    lines = _dag_report(title, result, simulation)
    if trace_note is not None:
        lines += ["", trace_note]
    return "\n".join(lines)


def _env_spec(args: argparse.Namespace) -> EnvSpec:
    """Build the picklable environment recipe shared by ``learn``/``policy``."""
    scenario = args.scenario
    if scenario is None and args.replay is None:
        scenario = "layered" if args.env == "scheduling" else "two-priority"
    _check_choice("stage scheduler", args.scheduler, list(STAGE_SCHEDULERS))
    _check_choice("router", args.router, list(ROUTERS))
    policy = (
        args.policy
        if args.policy is not None
        else SchedulingPolicy.differential_approximation({HIGH: 0.0, LOW: 0.2})
    )
    return EnvSpec(
        env=args.env,
        policy=policy,
        scenario=scenario,
        replay=args.replay,
        num_jobs=args.num_jobs,
        clusters=args.clusters,
        scheduler=args.scheduler,
        dispatcher=args.router,
        power_of_d=args.power_of_d,
        time_scale=args.replay_time_scale,
        rate_scale=args.replay_rate_scale,
    )


def _default_baselines(env: str) -> List[str]:
    """Heuristics a learned policy is compared against when --baseline is absent."""
    return (
        ["fifo", "critical_path_first"] if env == "scheduling"
        else ["random", "jsq"]
    )


def _baseline_rows(
    spec: EnvSpec, name: str, episodes: int, base_seed: int, jobs: int
) -> List[Dict[str, float]]:
    """CRN-evaluate one heuristic baseline: a named stage scheduler on the
    scheduling env, or the built-in dispatcher ``name`` on the routing env."""
    if spec.env == "scheduling":
        _check_choice("baseline stage scheduler", name, list(STAGE_SCHEDULERS))
        agent: Agent = SchedulerAgent(name)
    else:
        _check_choice("baseline router", name, list(ROUTERS))
        spec = spec.with_dispatcher(name)
        agent = BuiltinAgent()
    return evaluate(spec, agent, episodes=episodes, base_seed=base_seed,
                    jobs=jobs)


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as handle:
        json.dump(payload, handle, indent=2, sort_keys=True)
        handle.write("\n")


def _run_learn(args: argparse.Namespace) -> str:
    spec = _env_spec(args)
    agent = make_agent(
        args.agent,
        seed=args.seed,
        epsilon=args.epsilon,
        learning_rate=args.learning_rate,
        alpha=args.alpha,
    )
    history = train(spec, agent, episodes=args.episodes, base_seed=args.seed)
    if args.save is not None:
        save_agent(agent, args.save)

    baselines = args.baseline or _default_baselines(spec.env)
    evaluations = {
        agent.name: evaluate(spec, agent, episodes=args.eval_episodes,
                             base_seed=args.eval_seed, jobs=args.jobs)
    }
    for name in baselines:
        evaluations.setdefault(
            f"baseline:{name}",
            _baseline_rows(spec, name, args.eval_episodes, args.eval_seed,
                           args.jobs),
        )

    key = spec.key_metric
    summary = [
        {"policy": name, **summarise(rows)}
        for name, rows in evaluations.items()
    ]
    best_heuristic = min(
        (row for row in summary if row["policy"] != agent.name),
        key=lambda row: row[key],
    )
    learned = next(row for row in summary if row["policy"] == agent.name)
    margin = best_heuristic[key] - learned[key]

    title = (
        f"learn: env={spec.env}  agent={agent.name}  "
        f"episodes={args.episodes}  eval={args.eval_episodes}x"
        f"@seed{args.eval_seed}"
    )
    lines = [title, "=" * len(title), ""]
    lines.append(
        f"training reward: first={history[0]['reward']:.3f}  "
        f"last={history[-1]['reward']:.3f}"
    )
    lines += ["", "CRN evaluation (mean over episodes, lower "
                  f"{key} is better)", format_rows(summary)]
    verdict = (
        f"{agent.name} beats {best_heuristic['policy']} on {key} "
        f"by {margin:.3f}"
        if margin > 0
        else f"{agent.name} trails {best_heuristic['policy']} on {key} "
             f"by {-margin:.3f}"
    )
    lines += ["", verdict]
    if args.save is not None:
        lines.append(f"agent saved to {args.save}")
    if args.out is not None:
        _write_json(args.out, {
            "env": spec.env,
            "agent": agent.name,
            "key_metric": key,
            "train": {
                "episodes": args.episodes,
                "base_seed": args.seed,
                "history": history,
            },
            "eval": {
                "episodes": args.eval_episodes,
                "base_seed": args.eval_seed,
                "rows": evaluations,
                "summary": summary,
            },
        })
        lines.append(f"results written to {args.out}")
    return "\n".join(lines)


def _run_policy(args: argparse.Namespace) -> str:
    spec = _env_spec(args)
    if args.load is not None:
        agent = load_agent(args.load)
    else:
        agent = make_agent(args.agent, seed=args.seed)
    if spec.env == "routing" and agent.name.startswith("scheduler:"):
        raise ValueError(
            f"{agent.name} only handles stage decisions; use it with "
            "--env scheduling"
        )
    rows = evaluate(spec, agent, episodes=args.episodes, base_seed=args.seed,
                    jobs=args.jobs)
    summary = summarise(rows)
    title = f"policy: env={spec.env}  agent={agent.name}  episodes={args.episodes}"
    lines = [title, "=" * len(title), "", format_rows(rows), ""]
    lines.append(
        "mean: " + "  ".join(f"{k}={v:.3f}" for k, v in summary.items())
    )
    if args.out is not None:
        _write_json(args.out, {
            "env": spec.env,
            "agent": agent.name,
            "base_seed": args.seed,
            "rows": rows,
            "summary": summary,
        })
        lines.append(f"results written to {args.out}")
    return "\n".join(lines)


def _run_synth_trace(args: argparse.Namespace) -> str:
    """Synthesize a deterministic trace file and print its composition."""
    fmt = _check_choice("trace format", args.format, list(TRACE_FORMATS))
    if fmt == DAG_JSONL:
        if args.mix is not None:
            raise ValueError(
                "--mix synthesizes linear cluster traces; use a cluster "
                "format (or --scenario) for dag-jsonl"
            )
        if args.clusters is not None:
            raise ValueError("--clusters applies to cluster formats only")
        name = args.scenario or "layered"
        _check_choice("dag scenario", name, sorted(DAG_SCENARIOS))
        scenario = DAG_SCENARIOS[name]()
    elif args.mix is not None:
        if args.scenario is not None:
            raise ValueError("pass either --scenario or --mix, not both")
        scenario = google_mix_scenario(num_classes=args.mix_classes)
    else:
        name = args.scenario or "reference"
        _check_choice("scenario", name, sorted(SCENARIOS))
        scenario = SCENARIOS[name]()
    if args.tasks_per_job is not None:
        scenario = compact_profiles(scenario, args.tasks_per_job)
    if args.clusters is not None and args.clusters > 1:
        scenario = FleetScenario(base=scenario, num_clusters=args.clusters)
    histogram = TraceHistogram()
    meta = synthesize_trace(
        args.out,
        scenario,
        args.num_jobs,
        seed=args.seed,
        fmt=fmt,
        wave_width=args.wave_width,
        histogram=histogram,
    )
    title = (
        f"Synthesized {meta.jobs} jobs -> {args.out}  "
        f"(format={fmt}, scenario={scenario.name}, seed={args.seed})"
    )
    return "\n".join([title, "=" * len(title), "", histogram.format_table()])


def _run_trace(args: argparse.Namespace) -> str:
    """Validate or render a span trace written by ``--trace`` (or JSONL spans)."""
    from repro.telemetry.tracing import (
        load_spans,
        render_trace_report,
        validate_chrome_trace,
    )

    try:
        if args.validate:
            count = validate_chrome_trace(args.path)
            return (
                f"OK: {args.path} is a valid Chrome-trace document "
                f"({count} spans)"
            )
        spans = load_spans(args.path)
    except OSError as error:
        raise ValueError(f"cannot read trace file {args.path!r}: {error}")
    return render_trace_report(spans, width=args.width, focus_job=args.focus_job)


def _run_inspect(args: argparse.Namespace) -> str:
    """Validate and render a telemetry JSONL file written by ``--telemetry``."""
    from repro.telemetry.inspect import inspect_file

    try:
        return inspect_file(
            args.path,
            width=args.width,
            height=args.height,
            validate_only=args.validate,
        )
    except OSError as error:
        raise ValueError(f"cannot read telemetry file {args.path!r}: {error}")


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command is None:
        parser.print_help()
        return 2
    try:
        if args.command == "list":
            output = _run_list()
        elif args.command == "figure":
            output = _run_figure(args)
        elif args.command == "table":
            result = tables.table2_latency_decomposition(num_jobs=args.num_jobs, seed=args.seed)
            output = "Table 2\n" + format_rows(result["rows"])
        elif args.command == "compare":
            scenario = SCENARIOS[args.scenario]()
            policies = [_parse_policy(name) for name in args.policies]
            compare_faults = parse_fault_spec(args.faults)
            if args.replications > 1:
                if args.quantiles is not None:
                    raise ValueError(
                        "--quantiles needs a single streaming run; it cannot "
                        "be combined with --replications"
                    )
                experiment = PolicyComparisonExperiment(
                    scenario, policies, baseline=policies[0].name,
                    num_jobs=args.num_jobs, faults=compare_faults,
                    **_telemetry_kwargs(args),
                )
                metrics = ReplicationRunner(experiment).run(
                    args.replications, base_seed=args.seed, jobs=args.jobs
                )
                merge_replication_parts(args.telemetry, args.seed, args.replications)
                output = (
                    f"Scenario {args.scenario} — {args.replications} replications (95% CI)\n"
                    + format_rows(interval_rows(metrics))
                )
            else:
                trace_path = _check_trace_flag(args)
                telemetry_kwargs = _telemetry_kwargs(args)
                events_path = None
                events_are_temporary = False
                if trace_path is not None:
                    telemetry_kwargs["telemetry_trace"] = True
                    if telemetry_kwargs["telemetry_base"] is None:
                        events_path = trace_path + ".events.jsonl"
                        events_are_temporary = True
                        telemetry_kwargs["telemetry_base"] = events_path
                        telemetry_kwargs["telemetry_interval"] = None
                    else:
                        events_path = telemetry_kwargs["telemetry_base"]
                comparison = run_policies(scenario, policies, baseline=policies[0].name,
                                          seed=args.seed, num_jobs=args.num_jobs,
                                          jobs=args.jobs, quantiles=args.quantiles,
                                          faults=compare_faults,
                                          **telemetry_kwargs)
                output = format_comparison(comparison, f"Scenario {args.scenario}")
                if args.quantiles is not None:
                    output += "\n\nStreaming response-time quantiles (P² estimates)\n"
                    output += format_rows(_quantile_rows(comparison, args.quantiles))
                trace_note = _export_trace(args, events_path)
                if events_are_temporary:
                    os.remove(events_path)
                if trace_note is not None:
                    output += "\n\n" + trace_note
        elif args.command == "sweep":
            scenario = SCENARIOS[args.scenario]()
            if args.replications > 1:
                experiment = RowSweepExperiment(
                    drop_ratio_sweep,
                    {"scenario": scenario, "drop_ratios": args.ratios,
                     "num_jobs": args.num_jobs},
                    **_telemetry_kwargs(args),
                )
                rows = replicate_rows(experiment, args.replications,
                                      base_seed=args.seed, jobs=args.jobs)
                merge_replication_parts(args.telemetry, args.seed, args.replications)
            else:
                rows = drop_ratio_sweep(scenario, args.ratios, num_jobs=args.num_jobs,
                                        seed=args.seed, jobs=args.jobs,
                                        **_telemetry_kwargs(args))
            output = format_rows(rows)
        elif args.command == "load-sweep":
            scenario = SCENARIOS[args.scenario]()
            if args.replications > 1:
                experiment = RowSweepExperiment(
                    load_sweep,
                    {"scenario": scenario, "utilisations": args.utilisations,
                     "num_jobs": args.num_jobs},
                )
                rows = replicate_rows(experiment, args.replications,
                                      base_seed=args.seed, jobs=args.jobs)
            else:
                rows = load_sweep(scenario, args.utilisations, num_jobs=args.num_jobs,
                                  seed=args.seed, jobs=args.jobs)
            output = format_rows(rows)
        elif args.command == "fleet":
            output = _run_fleet(args)
        elif args.command == "chaos":
            output = _run_chaos(args)
        elif args.command == "dag":
            output = _run_dag(args)
        elif args.command == "learn":
            output = _run_learn(args)
        elif args.command == "policy":
            output = _run_policy(args)
        elif args.command == "synth-trace":
            output = _run_synth_trace(args)
        elif args.command == "trace":
            output = _run_trace(args)
        elif args.command == "inspect":
            output = _run_inspect(args)
        else:  # pragma: no cover - argparse prevents this
            parser.error(f"unknown command {args.command!r}")
            return 2
    except (ValueError, KeyError, ClusterCapacityError) as error:
        print(f"error: {error}", file=sys.stderr)
        return 1
    print(output)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
