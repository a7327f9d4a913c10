"""Tests for the power model and energy meter."""

from __future__ import annotations

import pytest

from repro.engine.energy import EnergyMeter, PowerModel


def test_power_model_defaults_match_paper():
    model = PowerModel()
    assert model.power("busy") == 180.0
    assert model.power("sprint") == 270.0
    assert model.power("sprint") / model.power("busy") == pytest.approx(1.5)


def test_power_model_scales_with_servers():
    model = PowerModel(active_servers=10)
    assert model.power("busy") == 1800.0


def test_power_model_rejects_unknown_mode():
    with pytest.raises(ValueError):
        PowerModel().power("turbo")


def test_power_model_rejects_sprint_below_busy():
    with pytest.raises(ValueError):
        PowerModel(busy_watts=200.0, sprint_watts=100.0)


def test_meter_charges_interval_to_previous_mode():
    meter = EnergyMeter(PowerModel(idle_watts=10.0, busy_watts=100.0, sprint_watts=200.0))
    meter.set_mode("busy", 5.0)   # 0-5 idle
    meter.set_mode("idle", 15.0)  # 5-15 busy
    meter.advance(20.0)           # 15-20 idle
    assert meter.account.idle_joules == pytest.approx(5 * 10.0 + 5 * 10.0)
    assert meter.account.busy_joules == pytest.approx(10 * 100.0)
    assert meter.total_joules == pytest.approx(100.0 + 1000.0)


def test_meter_sprint_mode_charged_at_sprint_power():
    meter = EnergyMeter(PowerModel(idle_watts=0.0, busy_watts=100.0, sprint_watts=300.0))
    meter.set_mode("sprint", 0.0)
    meter.advance(10.0)
    assert meter.account.sprint_joules == pytest.approx(3000.0)


def test_meter_rejects_time_going_backwards():
    meter = EnergyMeter(PowerModel())
    meter.advance(10.0)
    with pytest.raises(ValueError):
        meter.advance(5.0)


def test_meter_rejects_unknown_mode():
    meter = EnergyMeter(PowerModel())
    with pytest.raises(ValueError):
        meter.set_mode("overdrive", 1.0)


def test_meter_total_kilojoules():
    meter = EnergyMeter(PowerModel(idle_watts=100.0))
    meter.advance(100.0)
    assert meter.total_kilojoules == pytest.approx(10.0)


def test_zero_length_interval_adds_no_energy():
    meter = EnergyMeter(PowerModel())
    meter.set_mode("busy", 0.0)
    meter.set_mode("sprint", 0.0)
    assert meter.total_joules == 0.0


def test_restore_charges_the_restored_mode():
    source = EnergyMeter(PowerModel(active_servers=2))
    source.set_mode("sprint", 0.0)
    source.advance(10.0)
    meter = EnergyMeter(PowerModel(active_servers=2))
    meter.restore(source.account, "sprint", 10.0)
    assert meter.mode == "sprint"
    assert meter.projected_joules(12.0) == source.projected_joules(12.0) == 6.0 * 1080.0
    meter.advance(12.0)
    assert meter.account.sprint_joules == 12.0 * 540.0
