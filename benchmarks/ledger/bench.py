"""Benchmark of record: host time of five CLI surfaces, layer by layer.

Usage, from the repository root::

    python benchmarks/ledger/bench.py                        # every workload, one run each
    python benchmarks/ledger/bench.py --workload fleet-jsq --seed 3 --seconds 20
    python benchmarks/ledger/bench.py --trace 1              # per-layer profile pass
    python benchmarks/ledger/bench.py compare --against HEAD~1 --pairs 10
    python benchmarks/ledger/bench.py record                 # rewrite baseline.json

A run of one workload starts three fresh single-threaded child processes
(``ledger_child.py``), one at a time, against ``src/`` of this checkout
(``compare`` also runs them against ``src/`` of an exported ref).  Each child
runs the workload in cycles for a third of the run.  The end-to-end metrics
are medians over the cycles (``jobs_per_s``) or the children (``setup_s``,
``peak_rss_mb``); the first child ends with one traced cycle that gives
``peak_heap_mb``.  ``--trace 1`` runs one plain child and one cProfile'd
cycle and reports the per-layer metrics instead.  Every cycle is checked:
conservation laws on every seed, and the output digest against
``expected.json`` on seed 0.  The last stdout line is one JSON object
``{"correct", "attempted", "failed", "metrics"}``; the exit code is non-zero
when a check failed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, Iterator, List, Mapping, Optional, Sequence

from ledger_profile import COUNTED, LAYERS
from ledger_workloads import COUNTERS, DEFAULT_SEED, WORKLOADS

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parent.parent
EXPECTED = LEDGER / "expected.json"
BASELINE = LEDGER / "baseline.json"
#: Scratch space inside the checkout (replay traces, exported refs).
WORK = ROOT / ".ledger_work"
#: Child processes per run; each gives one set-up sample.
CHILDREN_PER_RUN = 3
#: Runs per workload that ``record`` summarises.
RECORD_RUNS = 5
#: A child that takes longer than this counts as crashed.
CHILD_TIMEOUT_S = 150.0
#: Thread-pool variables pinned to 1 so each child uses one core.
THREAD_VARS = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
)


@dataclass(frozen=True)
class Metric:
    name: str
    unit: str
    better: str
    #: Share of the parent's median by which the metric may worsen.
    bound: float


#: End-to-end metrics are never 0, because their bounds are shares of the
#: parent's median.  Per-layer metrics have no bound and may read 0 (a layer
#: a workload never enters).  Failed jobs are not a metric: every run reports
#: them as ``attempted``/``failed`` and any failure fails the run outright.
END_TO_END = (
    Metric("jobs_per_s", "jobs/s", "higher", 0.15),
    Metric("setup_s", "s", "lower", 0.25),
    Metric("peak_rss_mb", "MB", "lower", 0.05),
    Metric("peak_heap_mb", "MB", "lower", 0.15),
)

#: Per-layer metrics (name -> unit), in report order.
PER_LAYER: Dict[str, str] = {
    **{f"{layer}.self_share": "%" for layer in LAYERS},
    **{name: "count" for name in COUNTED},
    **{name: "count" for name in COUNTERS},
    "simulation.des.host_us_per_event": "us",
    "dag.scans_per_select": "scans/select",
    "traces.ingest_share": "%",
    "env.us_per_decision": "us",
    "setup.import_s": "s",
    "setup.build_s": "s",
    "workloads.gen_s": "s",
    "host.slowdown": "x",
    "profile.overhead_pct": "%",
    "profile.attributed_share": "%",
}


class LedgerError(RuntimeError):
    """The benchmark cannot run here (no source tree, bad ref, ...)."""


# ---------------------------------------------------------------------------
# Child processes
# ---------------------------------------------------------------------------
def require_source(src: Path) -> None:
    if not (src / "repro" / "__init__.py").is_file():
        raise LedgerError(f"no repro package under {src}; run from a full checkout")


def _spawn(request: Mapping, src: Path) -> Dict:
    """Run ``ledger_child.py`` once; returns its JSON or ``{"error": ...}``."""
    env = dict(os.environ, **{name: "1" for name in THREAD_VARS})
    inherited = env.get("PYTHONPATH")
    env["PYTHONPATH"] = str(src) + (os.pathsep + inherited if inherited else "")
    env["LEDGER_SPAWNED_AT"] = repr(time.time())
    try:
        proc = subprocess.run(
            [sys.executable, str(LEDGER / "ledger_child.py"), json.dumps(request)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {CHILD_TIMEOUT_S:.0f} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = proc.stderr.strip().splitlines()[-3:]
        return {"error": f"exit {proc.returncode}: " + " | ".join(tail)}
    return json.loads(lines[-1])


def compile_sources(src: Path) -> None:
    """Byte-compile once so no child pays for it (users do not, per run)."""
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(src / "repro")],
                   capture_output=True, timeout=CHILD_TIMEOUT_S)


@contextmanager
def work_dir() -> Iterator[Path]:
    WORK.mkdir(exist_ok=True)
    path = Path(tempfile.mkdtemp(prefix="run-", dir=WORK))
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass


# ---------------------------------------------------------------------------
# Measuring one workload
# ---------------------------------------------------------------------------
@dataclass
class Measurement:
    """Child processes of one workload on one seed against one source tree."""

    workload: str
    seed: int
    children: List[Dict] = field(default_factory=list)
    profiled: Optional[Dict] = None
    gen_s: float = 0.0

    @property
    def good(self) -> List[Dict]:
        return [child for child in self.children if "error" not in child]

    @property
    def cycles(self) -> List[Dict]:
        return [cycle for child in self.good for cycle in child["cycles"]]


def prepare(name: str, seed: int, src: Path, work: Path) -> Dict:
    """Generate a workload's once-per-invocation inputs under ``work``.

    Returns ``{"inputs", "gen_s"}``, or ``{"error"}`` when generation failed.
    """
    if WORKLOADS[name].prepare is None:
        return {"inputs": {}, "gen_s": 0.0}
    work.mkdir(exist_ok=True)
    return _spawn({"mode": "prepare", "workload": name, "seed": seed,
                   "size": dict(WORKLOADS[name].size), "workdir": str(work)}, src)


def measure(
    name: str, seed: int, src: Path, prepared: Mapping, seconds: float, profile: bool = False
) -> Measurement:
    """One run of ``seconds``: :data:`CHILDREN_PER_RUN` children cycling the
    workload, the first ending with a traced cycle; with ``profile``, one
    untraced child and one profiled cycle."""
    measurement = Measurement(name, seed)
    if "error" in prepared:
        measurement.children.append({"error": f"input generation failed: {prepared['error']}"})
        return measurement
    measurement.gen_s = prepared["gen_s"]
    request = {"mode": "child", "workload": name, "seed": seed,
               "size": dict(WORKLOADS[name].size), "inputs": prepared["inputs"],
               "budget_s": seconds / CHILDREN_PER_RUN, "profile": False, "heap": False}
    if profile:
        measurement.children.append(_spawn(request, src))
        measurement.profiled = _spawn({**request, "budget_s": 0.0, "profile": True}, src)
        return measurement
    start = time.time()
    for index in range(CHILDREN_PER_RUN):
        # Each child gets an equal share of the time left, so the first
        # one's traced cycle comes out of the later ones' time.
        budget = (seconds - (time.time() - start)) / (CHILDREN_PER_RUN - index)
        measurement.children.append(_spawn({**request, "budget_s": budget, "heap": index == 0},
                                           src))
    return measurement


@dataclass
class Assessment:
    attempted: int
    failed: int
    problems: List[str]
    digest: Optional[str]

    @property
    def correct(self) -> bool:
        return not self.problems

    @property
    def failed_pct(self) -> float:
        return 100.0 * self.failed / self.attempted if self.attempted else 100.0


def assess(measurement: Measurement, expected: Optional[Mapping[str, str]]) -> Assessment:
    """Count attempted/failed jobs; a child failing any check fails all its jobs.

    ``expected`` maps workload -> seed-0 digest; it is consulted on the
    default seed only.  All children of one seed must agree on their digest.
    """
    nominal = WORKLOADS[measurement.workload].jobs(WORKLOADS[measurement.workload].size)
    children = measurement.children + ([measurement.profiled] if measurement.profiled else [])
    problems = []
    digests = {child["digest"] for child in children if "error" not in child}
    if len(digests) > 1:
        problems.append(f"children disagree on the output digest ({len(digests)} values)")
    if measurement.seed == DEFAULT_SEED and expected is not None and digests:
        want = expected.get(measurement.workload)
        if want is None:
            problems.append("no committed seed-0 digest in expected.json")
        elif digests != {want}:
            problems.append(f"output digest {sorted(digests)[0][:12]}... != "
                            f"expected {want[:12]}...")
    attempted = failed = 0
    for child in children:
        if "error" in child:
            problems.append(f"child crashed: {child['error']}")
            attempted += nominal
            failed += nominal
            continue
        attempted += child["attempted"]
        problems += child["problems"]
        failed += child["attempted"] - child["completed"]
    if problems:
        failed = attempted
    return Assessment(attempted, failed, problems, min(digests) if digests else None)


def _median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def end_to_end(measurement: Measurement) -> Dict[str, float]:
    children = measurement.good
    values = {
        "jobs_per_s": [cycle["jobs"] / cycle["run_s"] for cycle in measurement.cycles],
        "setup_s": [child["setup_s"] for child in children],
        "peak_rss_mb": [child["peak_rss_mb"] for child in children],
        "peak_heap_mb": [child["peak_heap_mb"] for child in children if "peak_heap_mb" in child],
    }
    return {metric.name: _median(values[metric.name]) for metric in END_TO_END}


def per_layer(measurement: Measurement) -> Dict[str, float]:
    """Per-layer metrics from the profiled cycle and the plain child."""
    plain = measurement.good
    profiled = measurement.profiled
    if not plain or profiled is None or "error" in profiled:
        return {name: 0.0 for name in PER_LAYER}
    report = profiled["profile"]
    total = report["total_s"] or 1.0
    counts = {**dict.fromkeys(COUNTERS, 0), **report["counts"], **profiled["counters"]}
    # On the env path the agent behind the decision hook selects the stage.
    counts["dag.select_calls"] += counts["env.decisions"]
    run_s = _median([cycle["run_s"] for cycle in measurement.cycles])
    metrics = {f"{layer}.self_share": 100.0 * report["self_s"][layer] / total
               for layer in LAYERS}
    metrics.update({name: float(counts[name]) for name in PER_LAYER
                    if PER_LAYER[name] == "count"})
    events = counts["simulation.des.events_processed"]
    selects = counts["dag.select_calls"]
    decisions = counts["env.decisions"]
    metrics.update({
        "simulation.des.host_us_per_event": 1e6 * run_s / events if events else 0.0,
        "dag.scans_per_select": counts["dag.dispatchable_calls"] / selects if selects else 0.0,
        "traces.ingest_share": 100.0 * report["ingest_s"] / total,
        "env.us_per_decision": (
            1e6 * run_s * metrics["env.self_share"] / 100.0 / decisions if decisions else 0.0
        ),
        "setup.import_s": _median([child["import_s"] for child in plain]),
        "setup.build_s": _median([child["build_s"] for child in plain]),
        "workloads.gen_s": measurement.gen_s + _median([child["gen_s"] for child in plain]),
        "host.slowdown": _median([cycle["slowdown"] for cycle in measurement.cycles]),
        "profile.overhead_pct": 100.0 * (profiled["cycles"][0]["run_s"] / run_s - 1.0),
        "profile.attributed_share": 100.0 * sum(report["self_s"].values()) / total,
    })
    return metrics


def load_expected() -> Dict[str, str]:
    return json.loads(EXPECTED.read_text()) if EXPECTED.is_file() else {}


# ---------------------------------------------------------------------------
# run / record
# ---------------------------------------------------------------------------
def cmd_run(args: argparse.Namespace) -> int:
    src = ROOT / "src"
    require_source(src)
    compile_sources(src)
    names = args.workload or list(WORKLOADS)
    seconds = args.seconds if args.seconds is not None else run_seconds()
    profile = args.trace == 1
    expected = load_expected()
    units = PER_LAYER if profile else {m.name: m.unit for m in END_TO_END}
    attempted = failed = 0
    correct = True
    combined: Dict[str, Dict] = {}
    with work_dir() as work:
        for name in names:
            measurement = measure(name, args.seed, src, prepare(name, args.seed, src, work),
                                  seconds, profile=profile)
            verdict = assess(measurement, expected)
            metrics = per_layer(measurement) if profile else end_to_end(measurement)
            attempted += verdict.attempted
            failed += verdict.failed
            correct = correct and verdict.correct
            print(f"{name}  seed={args.seed}  children={len(measurement.children)}"
                  f"  cycles={len(measurement.cycles)}{' + 1 profiled' if profile else ''}"
                  f"  attempted={verdict.attempted}"
                  f"  failed={verdict.failed}  failed_pct={verdict.failed_pct:.3f} %"
                  f"  digest={verdict.digest}")
            print("\n".join(f"  {metric:<38} {value:>14.6g} {units[metric]}"
                             for metric, value in metrics.items()))
            for problem in verdict.problems[:20]:
                print(f"  FAILED CHECK: {problem}", file=sys.stderr)
            prefix = "" if len(names) == 1 else f"{name}."
            for metric, value in metrics.items():
                combined[prefix + metric] = {"value": value, "unit": units[metric]}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0 if correct else 1


def _quartiles(values: Sequence[float]) -> Dict[str, float]:
    if len(values) < 2:
        value = values[0] if values else 0.0
        return {"median": value, "q1": value, "q3": value}
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3}


def run_seconds() -> float:
    """Run length fixed by ``BENCHMARK.json`` (``record`` and ``compare`` use it)."""
    return float(json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"])


def cmd_record(args: argparse.Namespace) -> int:
    """Write ``baseline.json``: the host, quartiles of :data:`RECORD_RUNS` runs
    of every end-to-end metric per workload, and one per-layer profile pass."""
    src = ROOT / "src"
    require_source(src)
    compile_sources(src)
    expected = load_expected()
    seconds = run_seconds()
    record: Dict = {
        "host": {
            "cpus": os.cpu_count(),
            "python": platform.python_version(),
            "platform": platform.platform(),
        },
        "command": f"python3 benchmarks/ledger/bench.py record --seed {args.seed}",
        "runs": RECORD_RUNS,
        "run_seconds": seconds,
        "seed": args.seed,
        "bounds": {m.name: {"unit": m.unit, "better": m.better, "bound": m.bound}
                   for m in END_TO_END},
        "workloads": {},
    }
    ok = True
    with work_dir() as work:
        for name in args.workload or list(WORKLOADS):
            prepared = prepare(name, args.seed, src, work)
            runs = [measure(name, args.seed, src, prepared, seconds)
                    for _ in range(RECORD_RUNS)]
            profiled = measure(name, args.seed, src, prepared, seconds, profile=True)
            verdicts = [assess(m, expected) for m in runs + [profiled]]
            ok = ok and all(v.correct for v in verdicts)
            rows = [end_to_end(m) for m in runs]
            summary = {m.name: {"unit": m.unit, **_quartiles([row[m.name] for row in rows]),
                                "runs": [row[m.name] for row in rows]}
                       for m in END_TO_END}
            record["workloads"][name] = {
                "why": WORKLOADS[name].why,
                "size": dict(WORKLOADS[name].size),
                "failed_pct": 100.0 * sum(v.failed for v in verdicts)
                / sum(v.attempted for v in verdicts),
                "end_to_end": summary,
                "per_layer": {key: {"value": value, "unit": PER_LAYER[key]}
                              for key, value in per_layer(profiled).items()},
            }
            print(f"{name}: " + "  ".join(
                f"{metric}={row['median']:.6g} [{row['q1']:.6g}, {row['q3']:.6g}]"
                for metric, row in summary.items()))
    BASELINE.write_text(json.dumps(record, indent=2) + "\n")
    print(f"wrote {BASELINE.relative_to(ROOT)}")
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------
def export_ref(ref: str, dest: Path) -> Path:
    """Write the tree of ``ref`` to ``dest`` with ``git archive``; returns its ``src``.

    An archive, not a worktree: a compare that is killed leaves nothing in
    ``.git`` to clean up.
    """
    dest.mkdir(parents=True)
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", ref],
                             capture_output=True)
    if archive.returncode != 0:
        raise LedgerError(f"cannot export {ref!r}: {archive.stderr.decode().strip()}")
    subprocess.run(["tar", "-x", "-C", str(dest)], input=archive.stdout, check=True)
    src = dest / "src"
    require_source(src)
    return src


def judge(metric: Metric, parent: Sequence[float], change: Sequence[float]) -> Dict:
    """Compare paired runs of one metric.

    ``improved``: the change wins >= 9/10 of the pairs (ties count for
    neither) and the medians differ by more than the parent's IQR.
    ``unresolved``: the parent's IQR exceeds the bound, unless every change
    run beats every parent run.  ``regressed``: the change's median is worse
    than the parent's by more than the bound.  Otherwise ``unchanged``.
    """
    sign = 1.0 if metric.better == "higher" else -1.0
    wins = sum(1 for p, c in zip(parent, change) if sign * (c - p) > 0)
    p_stats, c_stats = _quartiles(parent), _quartiles(change)
    p_median = p_stats["median"]
    iqr = p_stats["q3"] - p_stats["q1"]
    gain = sign * (c_stats["median"] - p_median)
    every_run_better = min(sign * c for c in change) > max(sign * p for p in parent)
    if wins >= math.ceil(0.9 * len(parent)) and gain > iqr:
        outcome = "improved"
    elif iqr > metric.bound * p_median and not every_run_better:
        outcome = "unresolved"
    elif -gain > metric.bound * p_median:
        outcome = "regressed"
    else:
        outcome = "unchanged"
    return {"metric": metric.name, "unit": metric.unit, "parent": p_stats,
            "change": c_stats, "wins": wins, "pairs": len(parent), "verdict": outcome}


def cmd_compare(args: argparse.Namespace) -> int:
    require_source(ROOT / "src")
    seconds = run_seconds()
    ok = True
    rows = []
    with work_dir() as work:
        # Both trees sit at paths of equal length: every module keeps several
        # copies of its path, so unequal ones alone shift peak RSS by ~0.1 MB.
        change_src = work / "change" / "src"
        shutil.copytree(ROOT / "src", change_src,
                        ignore=shutil.ignore_patterns("__pycache__"))
        sides = {"parent": export_ref(args.against, work / "parent"), "change": change_src}
        for src in sides.values():
            compile_sources(src)
        for name in args.workload or list(WORKLOADS):
            prepared = {side: prepare(name, args.seed, src, work / f"{side}-inputs")
                        for side, src in sides.items()}
            values = {side: {m.name: [] for m in END_TO_END} for side in sides}
            digests = {}
            for pair in range(args.pairs):
                order = ("parent", "change") if pair % 2 == 0 else ("change", "parent")
                for side in order:
                    measurement = measure(name, args.seed, sides[side], prepared[side],
                                          seconds)
                    checked = assess(measurement, None)
                    if not checked.correct:
                        ok = False
                        for problem in checked.problems[:5]:
                            print(f"  {name} {side}: FAILED CHECK: {problem}",
                                  file=sys.stderr)
                    digests.setdefault(side, checked.digest)
                    for metric, value in end_to_end(measurement).items():
                        values[side][metric].append(value)
            same = "identical" if digests["parent"] == digests["change"] else "DIFFER"
            print(f"{name}: {args.pairs} pairs of {seconds:g} s runs, outputs {same}")
            for metric in END_TO_END:
                row = {"workload": name, **judge(metric, values["parent"][metric.name],
                                                 values["change"][metric.name])}
                rows.append(row)
                p, c = row["parent"], row["change"]
                print(f"  {metric.name:<12} parent {p['median']:.6g} [{p['q1']:.6g}, "
                      f"{p['q3']:.6g}]  change {c['median']:.6g} [{c['q1']:.6g}, "
                      f"{c['q3']:.6g}] {metric.unit}  wins {row['wins']}/{args.pairs}  "
                      f"{row['verdict']}")
    print(json.dumps({"against": args.against, "correct": ok, "rows": rows}))
    return 0 if ok else 1


# ---------------------------------------------------------------------------
# Command line
# ---------------------------------------------------------------------------
def build_parser(command: str) -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog=f"bench.py {command}".strip())
    parser.add_argument("--workload", action="append", choices=list(WORKLOADS),
                        help="workload to run (repeatable; default: all)")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    if command == "compare":
        parser.add_argument("--against", required=True, metavar="REF",
                            help="git ref of the parent to compare this checkout with")
        parser.add_argument("--pairs", type=int, default=10)
    elif command in ("", "run"):
        parser.add_argument("--seconds", type=float, default=None,
                            help="run length (default: run_seconds of BENCHMARK.json)")
        parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                            help="1 = the per-layer profile pass instead of the "
                                 "end-to-end metrics")
    return parser


COMMANDS = {"run": cmd_run, "compare": cmd_compare, "record": cmd_record}


def main(argv: Sequence[str]) -> int:
    # SIGTERM unwinds like Ctrl-C: subprocess.run kills and reaps the running
    # child, and work_dir removes its scratch files.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    command = argv[0] if argv and argv[0] in COMMANDS else ""
    args = build_parser(command).parse_args(argv[1:] if command else argv)
    try:
        return COMMANDS[command or "run"](args)
    except LedgerError as error:
        print(f"bench.py: error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
