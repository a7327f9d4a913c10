"""Tests for the canonical paper scenarios."""

from __future__ import annotations

import dataclasses

import pytest

import repro.workloads.scenarios as scenarios
from repro.workloads.arrivals import expected_utilisation
from repro.workloads.scenarios import (
    HIGH,
    LOW,
    MEDIUM,
    FleetScenario,
    Scenario,
    equal_job_sizes_scenario,
    fleet_three_priority_scenario,
    fleet_two_priority_scenario,
    low_load_scenario,
    more_high_priority_scenario,
    reference_two_priority_scenario,
    sprinting_scenario,
    three_priority_scenario,
    triangle_count_scenario,
    validation_datasets_scenario,
)


def test_reference_scenario_matches_paper_setup():
    scenario = reference_two_priority_scenario()
    assert scenario.profiles[LOW].mean_size_mb == pytest.approx(1117.0)
    assert scenario.profiles[HIGH].mean_size_mb == pytest.approx(473.0)
    assert scenario.class_ratio[LOW] / scenario.class_ratio[HIGH] == pytest.approx(9.0)
    assert scenario.target_utilisation == 0.8
    assert scenario.cluster.slots == 20
    # The low-priority dataset is 2.36x larger, as in §4.3.
    ratio = scenario.profiles[LOW].mean_size_mb / scenario.profiles[HIGH].mean_size_mb
    assert ratio == pytest.approx(2.36, abs=0.01)


def test_reference_scenario_calibrated_to_80_percent():
    scenario = reference_two_priority_scenario()
    achieved = expected_utilisation(scenario.profiles, scenario.arrival_rates,
                                    scenario.cluster.slots)
    assert achieved == pytest.approx(0.8, rel=1e-9)


def test_reference_scenario_accuracy_tolerances():
    scenario = reference_two_priority_scenario()
    assert scenario.profiles[HIGH].max_accuracy_loss == 0.0
    assert scenario.profiles[LOW].max_accuracy_loss > 0.0


def test_equal_sizes_scenario_uses_same_profile_size():
    scenario = equal_job_sizes_scenario()
    assert scenario.profiles[LOW].mean_size_mb == scenario.profiles[HIGH].mean_size_mb


def test_more_high_priority_scenario_inverts_ratio():
    scenario = more_high_priority_scenario()
    assert scenario.class_ratio[HIGH] / scenario.class_ratio[LOW] == pytest.approx(9.0)


def test_low_load_scenario_is_half_utilisation():
    scenario = low_load_scenario()
    achieved = expected_utilisation(scenario.profiles, scenario.arrival_rates,
                                    scenario.cluster.slots)
    assert achieved == pytest.approx(0.5, rel=1e-9)


def test_three_priority_scenario_has_three_classes_and_145_ratio():
    scenario = three_priority_scenario()
    assert scenario.priorities == [HIGH, MEDIUM, LOW]
    assert scenario.class_ratio[MEDIUM] / scenario.class_ratio[HIGH] == pytest.approx(4.0)
    assert scenario.class_ratio[LOW] / scenario.class_ratio[HIGH] == pytest.approx(5.0)


def test_triangle_count_scenario_is_multi_stage():
    scenario = triangle_count_scenario()
    assert scenario.profiles[LOW].num_stages == 6
    assert scenario.class_ratio[HIGH] / scenario.class_ratio[LOW] == pytest.approx(3.0 / 7.0)
    assert scenario.profiles[LOW].mean_size_mb == scenario.profiles[HIGH].mean_size_mb


def test_sprinting_scenario_reuses_triangle_count_workload():
    scenario = sprinting_scenario()
    assert scenario.name == "dias-sprinting"
    assert scenario.profiles[LOW].num_stages == 6


def test_validation_scenario_has_both_dataset_sizes():
    scenario = validation_datasets_scenario()
    sizes = {scenario.profiles[p].mean_size_mb for p in scenario.priorities}
    assert sizes == {473.0, 1117.0}


def test_scenario_trace_generation_is_reproducible():
    scenario = reference_two_priority_scenario(num_jobs=40)
    a = scenario.generate_trace(seed=1)
    b = scenario.generate_trace(seed=1)
    assert [j.arrival_time for j in a] == [j.arrival_time for j in b]
    assert len(a) == 40


def test_scenario_trace_override_job_count():
    scenario = reference_two_priority_scenario(num_jobs=40)
    trace = scenario.generate_trace(seed=0, num_jobs=15)
    assert len(trace) == 15


def test_with_utilisation_rescales_rates():
    scenario = reference_two_priority_scenario()
    lighter = scenario.with_utilisation(0.4)
    assert lighter.total_arrival_rate() < scenario.total_arrival_rate()
    assert lighter.total_arrival_rate() == pytest.approx(scenario.total_arrival_rate() / 2,
                                                         rel=1e-9)


def test_scenario_priority_helpers():
    scenario = three_priority_scenario()
    assert scenario.highest_priority == HIGH
    assert scenario.lowest_priority == LOW


def test_graph_jobs_take_longer_than_high_priority_text_jobs():
    # Sanity: the triangle-count profile produces ~100+ second jobs on the
    # default 20-slot cluster, matching Table 2's execution times.
    scenario = triangle_count_scenario()
    mean_service = scenario.profiles[LOW].mean_service_time(scenario.cluster.slots)
    assert 80.0 < mean_service < 300.0


def test_fleet_scenario_scales_rates_and_jobs_with_fleet_size():
    fleet = fleet_two_priority_scenario(num_clusters=4, num_jobs_per_cluster=50)
    base = fleet.base
    assert fleet.num_jobs == 200
    assert fleet.total_arrival_rate() == pytest.approx(4 * base.total_arrival_rate())
    for priority, rate in base.arrival_rates.items():
        assert fleet.arrival_rates[priority] == pytest.approx(4 * rate)
    assert fleet.priorities == base.priorities


def test_fleet_scenario_trace_is_fleet_sized_and_deterministic():
    fleet = fleet_three_priority_scenario(num_clusters=3, num_jobs_per_cluster=20)
    first = fleet.generate_trace(seed=4)
    second = fleet.generate_trace(seed=4)
    assert len(first) == 60
    assert [j.arrival_time for j in first] == [j.arrival_time for j in second]
    assert len(fleet.generate_trace(seed=4, num_jobs=10)) == 10


def test_fleet_scenario_builds_fresh_clusters_per_member():
    fleet = fleet_two_priority_scenario(num_clusters=3)
    clusters = fleet.make_clusters()
    assert len(clusters) == 3
    assert len({id(c) for c in clusters}) == 3
    assert all(c.slots == fleet.base.cluster.slots for c in clusters)


def test_fleet_scenario_naming_and_validation():
    fleet = fleet_two_priority_scenario(num_clusters=2)
    assert fleet.name == "fleet-reference-two-priority-x2"
    assert "2 clusters" in fleet.description
    with pytest.raises(ValueError):
        FleetScenario(base=reference_two_priority_scenario(), num_clusters=0)


# ------------------------------------------------- derived arrival rates
#: ``repr`` of each factory's calibrated rates, recorded before the rates
#: became a derived (``init=False``) field; deriving them must not move them.
FACTORY_RATES = {
    "reference_two_priority_scenario": {0: "0.012655201991085113", 2: "0.0014061335545650126"},
    "equal_job_sizes_scenario": {0: "0.01998445653380704", 2: "0.0022204951704230045"},
    "more_high_priority_scenario": {0: "0.002086245384182088", 2: "0.018776208457638794"},
    "low_load_scenario": {0: "0.007909501244428196", 2: "0.0008788334716031328"},
    "three_priority_scenario": {
        0: "0.007643974255094709", 1: "0.006115179404075767", 2: "0.0015287948510189417",
    },
    "triangle_count_scenario": {0: "0.00380952380952381", 2: "0.0016326530612244899"},
    "sprinting_scenario": {0: "0.00380952380952381", 2: "0.0016326530612244899"},
    "validation_datasets_scenario": {0: "0.012655201991085113", 2: "0.0014061335545650126"},
    "fleet_two_priority_scenario": {0: "0.05062080796434045", 2: "0.00562453421826005"},
    "fleet_three_priority_scenario": {
        0: "0.030575897020378835", 1: "0.024460717616303067", 2: "0.006115179404075767",
    },
    "dag_layered_scenario": {0: "0.00112970036042821", 2: "0.0001255222622698011"},
    "dag_fork_join_scenario": {0: "0.0011836265000821963", 2: "0.00013151405556468846"},
    "dag_triangle_count_scenario": {0: "0.00380952380952381", 2: "0.0016326530612244899"},
}


@pytest.mark.parametrize("factory", sorted(FACTORY_RATES))
def test_factory_arrival_rates_are_unchanged(factory):
    rates = getattr(scenarios, factory)().arrival_rates
    assert {k: repr(v) for k, v in rates.items()} == FACTORY_RATES[factory]


@pytest.mark.parametrize("factory", ["reference_two_priority_scenario", "dag_layered_scenario"])
def test_replace_recalibrates_arrival_rates(factory):
    scenario = getattr(scenarios, factory)()
    lighter = dataclasses.replace(scenario, target_utilisation=0.5)
    assert lighter.total_arrival_rate() == pytest.approx(
        scenario.total_arrival_rate() * 0.5 / 0.8, rel=1e-9
    )
    if isinstance(scenario, Scenario):
        assert lighter.arrival_rates == scenario.with_utilisation(0.5).arrival_rates
    # The copy's rates are its own, not the original's dict.
    assert lighter.arrival_rates is not scenario.arrival_rates


def test_arrival_rates_cannot_be_passed():
    scenario = reference_two_priority_scenario()
    with pytest.raises(TypeError):
        Scenario(
            name="x", description="", profiles=scenario.profiles,
            class_ratio=scenario.class_ratio, target_utilisation=0.8,
            arrival_rates={HIGH: 1.0, LOW: 1.0},
        )
