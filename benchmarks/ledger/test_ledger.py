"""Smoke test of the benchmark of record, in-process at tiny sizes.

Checks that the metric names in ``BENCHMARK.json`` are the ones the ledger
emits, that children are deterministic, that a wrong digest fails every
job, that ``peak_heap_mb`` sees retained per-job records, and that every
module of ``src/repro`` belongs to exactly one layer.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

LEDGER = Path(__file__).resolve().parent
ROOT = LEDGER.parents[1]
if str(LEDGER) not in sys.path:
    sys.path.insert(0, str(LEDGER))

import ledger_profile  # noqa: E402
import ledger_workloads  # noqa: E402
from ledger_child import run_child, traced_cycle  # noqa: E402
from ledger_workloads import WORKLOADS  # noqa: E402

_spec = importlib.util.spec_from_file_location("ledger_bench", LEDGER / "bench.py")
bench = sys.modules["ledger_bench"] = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)


@pytest.fixture(scope="module")
def measurements(tmp_path_factory):
    """Two one-cycle children of every workload and two profiled ones of
    fig11-traced, at tiny sizes; host calibration is stubbed out for speed."""
    work = tmp_path_factory.mktemp("ledger")
    result = {}
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(ledger_workloads, "calibrate",
                      lambda: ledger_workloads.REFERENCE_CALIBRATION_S)
        for name, workload in WORKLOADS.items():
            inputs = {}
            if workload.prepare is not None:
                inputs = workload.prepare(0, workload.tiny, str(work))
            measurement = bench.Measurement(name, seed=0)
            measurement.children = [run_child(name, 0, workload.tiny, inputs, heap=first)
                                    for first in (True, False)]
            result[name] = measurement
        tiny = WORKLOADS["fig11-traced"].tiny
        result["profiled"] = [run_child("fig11-traced", 0, tiny, {}, profile=True)
                              for _ in range(2)]
    return result


def test_every_benchmark_json_metric_is_emitted_with_its_unit(measurements):
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    assert declared["end_to_end"] == [
        {"name": m.name, "unit": m.unit, "better": m.better, "bound": m.bound}
        for m in bench.END_TO_END
    ]
    assert {m["name"]: m["unit"] for m in declared["per_layer"]} == bench.PER_LAYER
    measurement = measurements["fig11-traced"]
    emitted = bench.end_to_end(measurement)
    assert set(emitted) == {m["name"] for m in declared["end_to_end"]}
    assert all(value > 0 for value in emitted.values())
    measurement.profiled = measurements["profiled"][0]
    assert set(bench.per_layer(measurement)) == set(bench.PER_LAYER)


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_children_agree_on_digest_and_counts(measurements, name):
    first, second = measurements[name].children
    assert first["problems"] == [] and second["problems"] == []
    assert first["completed"] == first["attempted"] > 0
    assert first["digest"] == second["digest"]
    assert first["counters"] == second["counters"]


def test_profiled_counts_repeat_exactly(measurements):
    one, two = (child["profile"] for child in measurements["profiled"])
    assert one["counts"] == two["counts"]
    assert one["counts"]["core.evictions"] > 0
    assert one["counts"]["engine.executions_started"] > 0
    measurement = bench.Measurement("fig11-traced", seed=0,
                                    children=measurements["fig11-traced"].children,
                                    profiled=measurements["profiled"][0])
    assert bench.per_layer(measurement)["profile.attributed_share"] >= 90.0


def test_corrupted_expected_digest_fails_every_job(measurements):
    measurement = measurements["dag-cpfirst"]
    actual = measurement.children[0]["digest"]
    good = bench.assess(measurement, {"dag-cpfirst": actual})
    assert good.correct and good.failed == 0
    bad = bench.assess(measurement, {"dag-cpfirst": "0" * 64})
    assert not bad.correct
    assert bad.failed_pct == 100.0


def test_peak_heap_sees_retained_job_records(tmp_path, monkeypatch):
    """A streaming collector that keeps every job record must exceed the bound."""
    from repro.simulation.metrics import MetricsCollector

    workload = WORKLOADS["replay-stream"]
    size = {**workload.tiny, "jobs": 300}
    inputs = workload.prepare(0, size, str(tmp_path))
    flat = traced_cycle("replay-stream", 0, size, inputs)[1]
    kept = []
    record_job = MetricsCollector.record_job

    def retaining(self, record):
        record_job(self, record)
        kept.append(record)

    monkeypatch.setattr(MetricsCollector, "record_job", retaining)
    leaky = traced_cycle("replay-stream", 0, size, inputs)[1]
    assert len(kept) >= size["jobs"]
    bound = {m.name: m.bound for m in bench.END_TO_END}["peak_heap_mb"]
    assert leaky > flat * (1.0 + bound)


def test_every_repro_module_belongs_to_exactly_one_layer():
    package = ROOT / "src" / "repro"
    modules = sorted(package.rglob("*.py"))
    assert modules
    for module in modules:
        rel = module.relative_to(package).as_posix()
        assert len(ledger_profile.layers_matching(rel)) == 1, rel
