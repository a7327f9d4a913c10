"""Fault-spec grammar: parsing, defaults, validation messages, scaling."""

from __future__ import annotations

import pytest

from repro.faults.spec import (
    CRASH_DISTS,
    CRASH_RECOVERIES,
    FAULT_KINDS,
    CrashSpec,
    FaultSpec,
    StragglerSpec,
    TaskFailSpec,
    parse_fault_spec,
)


def test_empty_and_none_mean_no_faults():
    assert parse_fault_spec(None) is None
    assert parse_fault_spec("") is None
    assert parse_fault_spec("  ; ; ") is None


def test_parsed_spec_passes_through():
    spec = parse_fault_spec("crash:mttf=100")
    assert parse_fault_spec(spec) is spec
    assert parse_fault_spec(FaultSpec()) is None


def test_full_spec_round_trip():
    spec = parse_fault_spec(
        "crash:mttf=600,repair=30,dist=fixed,recovery=restart,probation=60;"
        "stragglers:p=0.05,slowdown=4,speculate=1.5;"
        "taskfail:p=0.02,retries=3,backoff=1.0,jitter=0.5"
    )
    assert spec.crash == CrashSpec(
        mttf=600.0, repair=30.0, dist="fixed", recovery="restart", probation=60.0
    )
    assert spec.stragglers == StragglerSpec(
        probability=0.05, slowdown=4.0, speculate=1.5
    )
    assert spec.taskfail == TaskFailSpec(
        probability=0.02, retries=3, backoff=1.0, jitter=0.5
    )


def test_defaults_applied():
    spec = parse_fault_spec("crash:mttf=100;stragglers:p=0.1;taskfail:p=0.05")
    assert spec.crash.repair == 60.0
    assert spec.crash.dist == "exp"
    assert spec.crash.recovery == "requeue"
    assert spec.crash.probation == 0.0
    assert not spec.crash.permanent
    assert spec.stragglers.slowdown == 4.0
    assert spec.stragglers.speculate == 1.5
    assert spec.taskfail.retries == 3
    assert spec.taskfail.backoff == 1.0
    assert spec.taskfail.jitter == 0.5


def test_repair_zero_is_permanent():
    assert parse_fault_spec("crash:mttf=100,repair=0").crash.permanent


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("flood:p=0.1", "valid choices: " + ", ".join(FAULT_KINDS)),
        ("crash:mtbf=10", "valid keys: mttf, repair, dist, recovery, probation"),
        ("crash:mttf=10,dist=weird", "valid choices: " + ", ".join(CRASH_DISTS)),
        (
            "crash:mttf=10,recovery=panic",
            "valid choices: " + ", ".join(CRASH_RECOVERIES),
        ),
        ("crash:repair=5", "crash requires mttf=<value>"),
        ("crash:mttf=ten", "must be a number"),
        ("crash:mttf=-3", "must be positive"),
        ("stragglers:p=1.5", "must be in [0, 1]"),
        ("stragglers:p=0.1,slowdown=0.5", "must be > 1"),
        ("taskfail:p=0.1,retries=2.5", "must be an integer"),
        ("taskfail:p=0.1,jitter=2", "must be in [0, 1]"),
        ("crash:mttf=10;crash:mttf=20", "duplicate crash segment"),
        ("crash:mttf=10,mttf=20", "duplicate crash key"),
        ("crash:mttf", "expected key=value"),
    ],
)
def test_invalid_specs_name_the_valid_choices(text, fragment):
    with pytest.raises(ValueError) as excinfo:
        parse_fault_spec(text)
    assert fragment in str(excinfo.value)


@pytest.mark.parametrize(
    "text, fragment",
    [
        ("crash:mttf=nan", "crash mttf must be a finite number"),
        ("crash:mttf=inf", "crash mttf must be a finite number"),
        ("crash:mttf=100,repair=nan", "crash repair must be a finite number"),
        ("crash:mttf=100,repair=inf", "crash repair must be a finite number"),
        ("crash:mttf=100,probation=nan", "crash probation must be a finite number"),
        ("stragglers:p=nan", "must be in [0, 1]"),
        ("stragglers:p=0.1,slowdown=nan", "slowdown must be a finite number"),
        ("stragglers:p=0.1,slowdown=inf", "slowdown must be a finite number"),
        ("stragglers:p=0.1,speculate=nan", "speculate factor must be a finite number"),
        ("stragglers:p=0.1,speculate=inf", "speculate factor must be a finite number"),
        ("taskfail:p=nan", "must be in [0, 1]"),
        ("taskfail:p=0.1,backoff=nan", "backoff must be a finite number"),
        ("taskfail:p=0.1,backoff=-inf", "backoff must be a finite number"),
        ("taskfail:p=0.1,jitter=nan", "must be in [0, 1]"),
    ],
)
def test_non_finite_numbers_are_rejected(text, fragment):
    with pytest.raises(ValueError) as excinfo:
        parse_fault_spec(text)
    assert fragment in str(excinfo.value)


@pytest.mark.parametrize(
    "build",
    [
        lambda: CrashSpec(mttf=float("nan")),
        lambda: CrashSpec(mttf=100.0, repair=float("inf")),
        lambda: StragglerSpec(probability=0.1, slowdown=float("nan")),
        lambda: StragglerSpec(probability=0.1, speculate=float("inf")),
        lambda: TaskFailSpec(probability=0.1, backoff=float("nan")),
    ],
)
def test_specs_built_in_code_reject_non_finite_numbers(build):
    with pytest.raises(ValueError, match="must be a finite number"):
        build()


def test_scaled_level_zero_disables_everything():
    spec = parse_fault_spec("crash:mttf=100;stragglers:p=0.1;taskfail:p=0.05")
    assert spec.scaled(0.0).is_empty


def test_scaled_doubles_rates_and_caps_probabilities():
    spec = parse_fault_spec("crash:mttf=100;stragglers:p=0.6;taskfail:p=0.05")
    doubled = spec.scaled(2.0)
    assert doubled.crash.mttf == 50.0
    assert doubled.stragglers.probability == 1.0  # capped
    assert doubled.taskfail.probability == 0.1
    # Severity knobs are untouched: the sweep varies frequency only.
    assert doubled.crash.repair == spec.crash.repair
    assert doubled.stragglers.slowdown == spec.stragglers.slowdown
    assert doubled.taskfail.retries == spec.taskfail.retries


def test_scaled_rejects_negative_level():
    with pytest.raises(ValueError):
        parse_fault_spec("crash:mttf=100").scaled(-1.0)


def test_describe_mentions_every_active_kind():
    spec = parse_fault_spec("crash:mttf=100,repair=0;stragglers:p=0.1,speculate=0")
    text = spec.describe()
    assert "permanent" in text
    assert "no speculation" in text
    assert FaultSpec().describe() == "none"
