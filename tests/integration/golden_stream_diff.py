"""Compare the golden runs of two source trees, ignoring kernel counts.

A change to how many events the kernel runs (the kernel's counters are
published once, at the run's end, and the kernel ``run`` span counts the
events it executed) alters the digest of every golden run that writes
telemetry, while it must change nothing else.  This script runs each such
golden run under two ``src`` trees, each in its own process, and checks what
the digest cannot tell apart:

* the report (CLI stdout, or the result summary of an API run) is identical;
* the Chrome-trace export, where there is one, is identical once the
  ``events`` arg of every ``cat == "kernel"`` span is dropped;
* the telemetry JSONL is identical line for line once every event whose
  ``src`` is ``"kernel"`` (kernel samples, heap compactions and the kernel
  ``run`` span) is dropped.

Usage, from the repository root, against a checkout of the parent commit::

    python tests/integration/golden_stream_diff.py --against /path/to/parent/src

It prints one line per golden run and exits 1 if any run differs.  Runs with
no telemetry are covered by their digests in ``test_golden_runs.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import subprocess
import sys
import tempfile
from typing import Dict, List, Tuple

HERE = os.path.dirname(os.path.abspath(__file__))
REPO_SRC = os.path.join(os.path.dirname(os.path.dirname(HERE)), "src")


def _telemetry_runs() -> List[str]:
    import test_golden_runs as golden

    return [
        name for name, argv in golden.CLI_RUNS.items() if "{telemetry}" in argv
    ] + list(golden.API_RUNS)


def _record(name: str, workdir: str) -> None:
    """Run golden ``name`` in this process; write its outputs to ``workdir``."""
    import test_golden_runs as golden
    from repro.cli import main
    from repro.telemetry import JsonLinesSink, TelemetryHub

    telemetry = os.path.join(workdir, "telemetry.jsonl")
    trace = os.path.join(workdir, "trace.json")
    if name in golden.CLI_RUNS:
        paths = dict(
            telemetry=telemetry, trace=trace,
            replay=os.path.join(workdir, "input.jsonl"),
        )
        argv = [a.format(**paths) for a in golden.CLI_RUNS[name]]
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            if name in golden.CLI_INPUTS:
                inputs = [a.format(**paths) for a in golden.CLI_INPUTS[name]]
                if main(inputs) != 0:
                    raise SystemExit(f"{name}: writing its input failed")
                out.truncate(0)
                out.seek(0)
            code = main(argv)
        if code != 0:
            raise SystemExit(f"{name}: exit status {code}")
        report = out.getvalue().replace(workdir, "<dir>").encode()
    else:
        # The same hub as ``test_golden_runs._api_digest``.
        hub = TelemetryHub(sample_interval=15.0, tracing=True)
        hub.add_sink(JsonLinesSink(telemetry))
        result = golden.API_RUNS[name](hub).run()
        hub.close()
        report = golden._summary(result)
    with open(os.path.join(workdir, "report"), "wb") as handle:
        handle.write(report)


def _run_in(src: str, name: str, workdir: str) -> None:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, HERE]))
    subprocess.run(
        [sys.executable, os.path.abspath(__file__), "--record", name, "--out", workdir],
        env=env,
        check=True,
    )


def _read(path: str) -> bytes:
    if not os.path.exists(path):
        return b""
    with open(path, "rb") as handle:
        return handle.read()


def _trace_without_kernel_events(data: bytes) -> Tuple[object, List[int]]:
    """The parsed trace export with the kernel spans' ``events`` args taken
    out, and those counts in order."""
    if not data:
        return None, []
    trace = json.loads(data)
    counts = []
    for event in trace["traceEvents"]:
        if event.get("cat") == "kernel":
            counts.append(event["args"].pop("events"))
    return trace, counts


def _without_kernel(lines: List[bytes]) -> Tuple[List[bytes], int]:
    kept = [line for line in lines if json.loads(line).get("src") != "kernel"]
    return kept, len(lines) - len(kept)


def compare(name: str, parent_src: str, change_src: str) -> Tuple[bool, str]:
    """Run ``name`` under both trees; ``(same, one-line report)``."""
    outputs: Dict[str, str] = {}
    with tempfile.TemporaryDirectory() as root:
        for side, src in (("parent", parent_src), ("change", change_src)):
            outputs[side] = os.path.join(root, side)
            os.makedirs(outputs[side])
            _run_in(src, name, outputs[side])
        files = {
            side: {
                part: _read(os.path.join(workdir, part))
                for part in ("report", "trace.json", "telemetry.jsonl")
            }
            for side, workdir in outputs.items()
        }
    parent, change = files["parent"], files["change"]
    problems = []
    if parent["report"] != change["report"]:
        problems.append("report differs")
    trace_parent, events_parent = _trace_without_kernel_events(parent["trace.json"])
    trace_change, events_change = _trace_without_kernel_events(change["trace.json"])
    if trace_parent != trace_change:
        problems.append("trace export differs")
    kept_parent, dropped_parent = _without_kernel(parent["telemetry.jsonl"].splitlines())
    kept_change, dropped_change = _without_kernel(change["telemetry.jsonl"].splitlines())
    if kept_parent != kept_change:
        first = next(
            (i for i, (a, b) in enumerate(zip(kept_parent, kept_change)) if a != b),
            min(len(kept_parent), len(kept_change)),
        )
        problems.append(
            f"JSONL differs at non-kernel line {first} "
            f"({len(kept_parent)} vs {len(kept_change)} lines)"
        )
    summary = (
        f"{name}: {len(kept_parent)} non-kernel lines; kernel lines "
        f"{dropped_parent} -> {dropped_change}"
    )
    if events_parent or events_change:
        summary += f"; kernel span events {events_parent} -> {events_change}"
    if problems:
        return False, summary + "; " + "; ".join(problems)
    return True, summary + "; report, trace and non-kernel lines identical"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--against", metavar="SRC",
                        help="the other tree's src directory (e.g. the parent's)")
    parser.add_argument("--src", default=REPO_SRC, metavar="SRC",
                        help="the tree under test (default: this repository's src)")
    parser.add_argument("--only", nargs="*", metavar="NAME",
                        help="compare only these golden runs")
    parser.add_argument("--record", help=argparse.SUPPRESS)
    parser.add_argument("--out", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.record:
        _record(args.record, args.out)
        return 0
    if not args.against:
        parser.error("--against is required")
    sys.path.insert(0, HERE)
    sys.path.insert(0, args.src)
    failed = 0
    for name in args.only or _telemetry_runs():
        same, line = compare(name, os.path.abspath(args.against), os.path.abspath(args.src))
        print(("ok   " if same else "FAIL ") + line, flush=True)
        failed += not same
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
