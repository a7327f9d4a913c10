"""Paired gates against recorded git refs, shared by the gate benchmarks.

A side runs one side function of a gate script in a fresh child process with
``PYTHONPATH=<tree>/src``, on this tree or on a ref exported with the ledger's
``export_ref``, and reports the fastest of ``RUNS_PER_SIDE`` runs.  A side
function imports from ``repro`` only what every reference tree has and returns
``{workload: {"seconds", "work", ...}}``; ``work`` counts what the run did.
:func:`run_pairs` alternates which side goes first, and :func:`judge` gates on
the median of the per-pair values.
"""

from __future__ import annotations

import json
import os
import statistics
import subprocess
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import Callable, Dict, Iterator, List, Mapping, Optional, Sequence, Tuple

sys.path.insert(0, str(Path(__file__).resolve().parent / "ledger"))
from bench import LedgerError, compile_sources, export_ref, work_dir  # noqa: E402

#: Pairs per gate: ``--quick`` and full runs.
QUICK_PAIRS = 10
FULL_PAIRS = 20

#: Runs per side in each pair.  One run of tens of milliseconds varies by a
#: third within one process on a shared 2-core host; the fastest of five
#: narrowed the quartiles of same-tree pair ratios from 0.70-1.15 to 0.92-1.07.
RUNS_PER_SIDE = 5

#: A child that takes longer than this counts as failed.
CHILD_TIMEOUT_S = 300.0

Report = Dict[str, Dict[str, float]]
Side = Callable[[], Report]

_CHILD = """\
import importlib.util, json, os, sys
script, function, kwargs = sys.argv[1], sys.argv[2], json.loads(sys.argv[3])
sys.path.insert(0, os.path.dirname(script))
spec = importlib.util.spec_from_file_location("gate_side", script)
module = sys.modules["gate_side"] = importlib.util.module_from_spec(spec)
spec.loader.exec_module(module)
from gate_refs import fastest
workloads = fastest(lambda: getattr(module, function)(**kwargs))
import repro
print(json.dumps({"repro": repro.__file__, "workloads": workloads}))
"""


@contextmanager
def exported(refs: Sequence[str]) -> Iterator[Dict[str, Path]]:
    """``src`` of each ref, exported and byte-compiled for the block's length.

    A ref that cannot be exported (unknown, or missing from a shallow clone)
    ends the run with a non-zero exit that names it; nothing falls back to
    this tree.
    """
    with work_dir() as work:
        trees = {}
        for ref in refs:
            try:
                trees[ref] = export_ref(ref, work / ref)
            except LedgerError as error:
                raise SystemExit(f"FAIL: cannot measure against {ref}: {error}") from None
            compile_sources(trees[ref])
        yield trees


def run_child(src: Path, script: Path, function: str, **kwargs) -> Dict:
    """Run ``function(**kwargs)`` of ``script`` in a fresh child on ``src``.

    Returns ``{"repro": <package measured>, "workloads": Report}``.  Exits
    non-zero when the child fails, measures another tree, or reports a
    workload that did no work.
    """
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=str(src) + (os.pathsep + inherited if inherited else ""))
    try:
        proc = subprocess.run(
            [sys.executable, "-c", _CHILD, str(script), function, json.dumps(kwargs)],
            cwd=src, env=env, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        raise SystemExit(f"FAIL: {function} on {src} timed out") from None
    if proc.returncode != 0:
        tail = " | ".join(proc.stderr.strip().splitlines()[-3:])
        raise SystemExit(f"FAIL: {function} on {src} exited {proc.returncode}: {tail}")
    report = json.loads(proc.stdout.strip().splitlines()[-1])
    measured = Path(report["repro"]).resolve()
    if Path(src).resolve() not in measured.parents:
        raise SystemExit(f"FAIL: {function} measured {measured}, not the tree {src}")
    for name, row in report["workloads"].items():
        if not row["work"] > 0:
            raise SystemExit(f"FAIL: {function} on {src} never ran its {name} workload")
    return report


def child_side(src: Path, script: Path, function: str, **kwargs) -> Side:
    """A side that measures ``function`` in a fresh child on ``src`` per call."""
    return lambda: run_child(src, script, function, **kwargs)["workloads"]


def fastest(run: Side, runs: int = RUNS_PER_SIDE) -> Report:
    """The fastest of ``runs`` calls of ``run``, workload by workload."""
    best = run()
    for _ in range(runs - 1):
        for name, row in run().items():
            if row["seconds"] < best[name]["seconds"]:
                best[name] = row
    return best


def run_pairs(sides: Mapping[str, Side], pairs: int) -> Dict[str, List[Report]]:
    """Run every side once per round for ``pairs`` rounds.

    Even rounds run the sides in the given order, odd rounds in reverse, so
    host drift and warm-up favour no side.
    """
    names = list(sides)
    reports: Dict[str, List[Report]] = {name: [] for name in names}
    for index in range(pairs):
        for name in names if index % 2 == 0 else names[::-1]:
            reports[name].append(sides[name]())
    return reports


def time_ratios(reports: Mapping[str, List[Report]], numerator: str,
                denominator: str, workload: str) -> List[float]:
    """Per-pair ``numerator`` seconds over ``denominator`` seconds on one workload."""
    return [top[workload]["seconds"] / bottom[workload]["seconds"]
            for top, bottom in zip(reports[numerator], reports[denominator])]


def median_seconds(reports: Sequence[Report], workload: str) -> float:
    return statistics.median(report[workload]["seconds"] for report in reports)


def judge(label: str, values: Sequence[float], *, at_least: Optional[float] = None,
          at_most: Optional[float] = None) -> Tuple[Dict[str, float], bool]:
    """Gate ``values`` (one per pair) on their median; prints the quartiles.

    Returns ``({"median", "q1", "q3", "pairs"}, passed)``.
    """
    q1, median, q3 = statistics.quantiles(values, n=4)
    passed = ((at_least is None or median >= at_least)
              and (at_most is None or median <= at_most))
    rule = ((f" >= {at_least}" if at_least is not None else "")
            + (f" <= {at_most}" if at_most is not None else ""))
    verdict = f"   gate{rule}: {'ok' if passed else 'FAIL'}" if rule else ""
    print(f"{label}: median {median:.3f}   quartiles {q1:.3f}-{q3:.3f}   "
          f"{len(values)} pairs{verdict}")
    return {"median": median, "q1": q1, "q3": q3, "pairs": float(len(values))}, passed
