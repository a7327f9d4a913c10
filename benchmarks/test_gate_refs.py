"""The plumbing of the paired gates against recorded git refs.

These tests need no history beyond ``HEAD``, so they run on a shallow clone.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import bench_kernel_throughput  # noqa: E402
import bench_learned_policy  # noqa: E402
import gate_refs  # noqa: E402

UNKNOWN_REF = "0123456789abcdef0123456789abcdef01234567"


def test_an_unexportable_ref_exits_non_zero_and_is_named():
    with pytest.raises(SystemExit) as exit_info:
        with gate_refs.exported([UNKNOWN_REF]):
            pytest.fail("an unknown ref was exported")
    assert UNKNOWN_REF in str(exit_info.value.code)


@pytest.mark.parametrize("module, refs", [
    (bench_kernel_throughput, ("SEED_REF", "PRE_TELEMETRY_REF", "PRE_FAULTS_REF")),
    (bench_learned_policy, ("PRE_HOOK_REF",)),
])
def test_a_gate_on_an_unexportable_ref_measures_nothing(module, refs, monkeypatch, tmp_path):
    for name in refs:
        monkeypatch.setattr(module, name, UNKNOWN_REF)
    output = tmp_path / "bench.json"
    with pytest.raises(SystemExit) as exit_info:
        module.main(["--quick", "--output", str(output)])
    assert exit_info.value.code not in (0, None)
    assert UNKNOWN_REF in str(exit_info.value.code)
    assert not output.exists()


def _fake_side(name, seconds, calls):
    times = iter(seconds)

    def run():
        calls.append(name)
        return {"run": {"seconds": next(times), "work": 1.0}}
    return run


def test_pairs_alternate_which_side_runs_first():
    calls = []
    reports = gate_refs.run_pairs({
        "current": _fake_side("current", [1.0, 2.0, 1.0, 2.0], calls),
        "ref": _fake_side("ref", [0.5, 3.0, 1.0, 4.0], calls),
    }, 4)
    assert calls == ["current", "ref", "ref", "current"] * 2
    assert gate_refs.time_ratios(reports, "ref", "current", "run") == [0.5, 1.5, 1.0, 2.0]
    assert gate_refs.median_seconds(reports["ref"], "run") == 2.0


def test_a_side_reports_its_fastest_run_per_workload():
    runs = iter([
        {"chain": {"seconds": 3.0, "work": 1.0}, "storm": {"seconds": 1.0, "work": 1.0}},
        {"chain": {"seconds": 2.0, "work": 1.0}, "storm": {"seconds": 4.0, "work": 1.0}},
    ])
    best = gate_refs.fastest(lambda: next(runs), runs=2)
    assert (best["chain"]["seconds"], best["storm"]["seconds"]) == (2.0, 1.0)


def test_the_gate_reads_the_median_and_prints_the_quartiles(capsys):
    # Mean 2.47 and best 5.0 would pass; the median does not.
    summary, passed = gate_refs.judge("ratio", [0.5, 0.9, 0.94, 5.0, 5.0], at_least=0.95)
    assert summary["median"] == 0.94 and summary["pairs"] == 5
    assert summary["q1"] <= summary["median"] <= summary["q3"]
    assert not passed
    assert "quartiles" in capsys.readouterr().out
    # The worst pair (0.1) would fail; the median passes.
    assert gate_refs.judge("ratio", [0.1, 0.96, 1.0], at_least=0.95)[1]
    assert gate_refs.judge("overhead %", [10.0, 50.0, 90.0], at_most=60.0)[1]
    assert not gate_refs.judge("overhead %", [10.0, 61.0, 90.0], at_most=60.0)[1]


def test_a_child_on_an_export_of_head_reports_its_time_and_tree():
    script = Path(bench_kernel_throughput.__file__).resolve()
    with gate_refs.exported(["HEAD"]) as trees:
        src = trees["HEAD"].resolve()
        report = gate_refs.run_child(src, script, "_kernel_side",
                                     chain_events=2_000, storm_events=1_000)
        assert src in Path(report["repro"]).resolve().parents
        for name in ("chain", "timeout_storm"):
            assert report["workloads"][name]["seconds"] > 0
            assert report["workloads"][name]["work"] > 0
        # A side that did no work fails the gate instead of timing nothing.
        with pytest.raises(SystemExit, match="never ran its chain workload"):
            gate_refs.run_child(src, script, "_kernel_side", chain_events=0, storm_events=1_000)
