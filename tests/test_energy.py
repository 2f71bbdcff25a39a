"""Power formulas and battery stepping against independently derived values."""

import math

import numpy as np
import pytest

from skymarket.energy import GRAVITY, ascend_power, descend_power, flight_power, hover_power
from skymarket.types import Activity

from conftest import PowerBreakdown, altitude_feasible, charge_duration, charging_urgency, soc_step


def test_hover_power_reference_value():
    # 0.01 * (2 * 9.8)^1.5, evaluated independently
    assert hover_power(2.0, 0.005, 0.005) == pytest.approx(0.8677289899502034, abs=1e-12)


def test_hover_power_zero_coefficients():
    assert hover_power(2.0, 0.0, 0.0) == 0.0


def test_hover_power_mass_homogeneity():
    # (mg)^{3/2} scaling: doubling mass multiplies power by 2^1.5
    p1 = hover_power(3.0, 0.004, 0.006)
    p2 = hover_power(6.0, 0.004, 0.006)
    assert p2 / p1 == pytest.approx(2.0 ** 1.5, rel=1e-12)


def test_hover_power_rejects_nonpositive_mass():
    with pytest.raises(ValueError):
        hover_power(0.0, 0.005, 0.005)


def test_flight_power_reference_value():
    p = flight_power(10.0, 19.6, 0.001, 0.005, 0.005)
    assert p == pytest.approx(1.8677289899502034, abs=1e-12)


def test_flight_power_at_rest_is_thrust_term_only():
    p = flight_power(0.0, 12.5, 0.3, 0.004, 0.006)
    assert p == pytest.approx(0.01 * 12.5 ** 1.5, rel=1e-12)


def test_flight_power_with_weight_thrust_matches_hover():
    m = 2.7
    p = flight_power(0.0, m * GRAVITY, 0.002, 0.005, 0.005)
    assert p == pytest.approx(hover_power(m, 0.005, 0.005), rel=1e-14)


def test_flight_power_rejects_negative_speed():
    with pytest.raises(ValueError):
        flight_power(-1.0, 19.6, 0.001, 0.005, 0.005)


def test_descend_power_reference_value():
    # 0.5*19.6*(sqrt(0.25 + 19.6) - 0.5) + 0.005*19.6^1.5
    p = descend_power(1.0, 2.0, 0.5, 1.0, 0.005)
    assert p == pytest.approx(39.19613653846822, abs=1e-9)


def test_vertical_powers_equal_at_zero_speed():
    d = descend_power(0.0, 2.0, 0.5, 1.0, 0.005)
    a = ascend_power(0.0, 2.0, 0.5, 1.0, 0.005)
    assert d == a


def test_ascend_minus_descend_identity():
    # P_asc(v) - P_desc(v) = eps1 * m * g * v for all v
    for v in (0.5, 1.0, 2.0):
        diff = ascend_power(v, 2.0, 0.5, 1.0, 0.005) - descend_power(v, 2.0, 0.5, 1.0, 0.005)
        assert diff == pytest.approx(0.5 * 2.0 * GRAVITY * v, abs=1e-12)


def test_ascend_dominates_descend():
    rng = np.random.default_rng(5)
    for _ in range(200):
        v = float(rng.uniform(0.0, 5.0))
        m = float(rng.uniform(0.5, 10.0))
        a = ascend_power(v, m, 0.5, 1.0, 0.005)
        d = descend_power(v, m, 0.5, 1.0, 0.005)
        assert a >= d
        if v > 0:
            assert a > d


def test_vertical_power_rejects_zero_eps2():
    with pytest.raises(ValueError):
        descend_power(1.0, 2.0, 0.5, 0.0, 0.005)


POWERS = PowerBreakdown(fly=1.8677, hover=0.8677, descend=39.196, ascend=58.796, receive=600.0)


def test_soc_step_charging_reference_value():
    s = soc_step(50.0, Activity.CHARGING, POWERS, 0.95, 0.8, 1.0, 97.58)
    assert s == pytest.approx(50.0 + 456.0 / 3600.0, abs=1e-9)


def test_soc_step_zero_power_hover():
    p = PowerBreakdown(0, 0, 0, 0, 0)
    assert soc_step(40.0, Activity.HOVERING, p, 0.95, 0.8, 1.0, 97.58) == 40.0


def test_soc_step_clamps_at_capacity():
    s = soc_step(97.58, Activity.CHARGING, POWERS, 0.95, 0.8, 1.0, 97.58)
    assert s == 97.58


def test_soc_step_clamps_at_zero():
    p = PowerBreakdown(fly=1e9, hover=0, descend=0, ascend=0, receive=0)
    assert soc_step(1.0, Activity.FLYING, p, 1.0, 1.0, 1.0, 97.58) == 0.0


def test_soc_step_accounting_matches_per_step_oracle():
    # over an arbitrary clamp-free activity sequence, the final SoC equals
    # the initial SoC plus the signed sum of per-step energies
    rng = np.random.default_rng(11)
    acts = [Activity.FLYING, Activity.HOVERING, Activity.DESCENDING,
            Activity.ASCENDING, Activity.CHARGING]
    p = PowerBreakdown(fly=2.0, hover=1.0, descend=40.0, ascend=60.0, receive=600.0)
    eta_i, eta_j, dt, cap = 0.95, 0.8, 1.0, 97.58
    signed = {
        Activity.FLYING: -eta_i * p.fly * dt / 3600.0,
        Activity.HOVERING: -eta_i * p.hover * dt / 3600.0,
        Activity.DESCENDING: -eta_i * p.descend * dt / 3600.0,
        Activity.ASCENDING: -eta_i * p.ascend * dt / 3600.0,
        Activity.CHARGING: eta_i * eta_j * p.receive * dt / 3600.0,
    }
    soc = 50.0
    total = 0.0
    for _ in range(500):
        a = acts[rng.integers(0, len(acts))]
        soc = soc_step(soc, a, p, eta_i, eta_j, dt, cap)
        total += signed[a]
        assert 0.0 <= soc <= cap
    assert soc == pytest.approx(50.0 + total, abs=1e-9)


def test_charging_urgency_reference_values():
    assert charging_urgency(19.516, 19.516, 97.58) == 1.0
    assert charging_urgency(48.79, 19.516, 97.58) == pytest.approx(0.7, abs=1e-12)
    # a full battery still carries positive urgency: s_min / C
    assert charging_urgency(100.0, 20.0, 100.0) == pytest.approx(0.2, abs=1e-12)


def test_charging_urgency_strictly_decreasing():
    socs = np.linspace(19.516, 97.58, 40)
    vals = [charging_urgency(float(s), 19.516, 97.58) for s in socs]
    assert all(a > b for a, b in zip(vals, vals[1:]))
    assert min(vals) >= 19.516 / 97.58 - 1e-12
    assert max(vals) <= 1.0


def test_charging_urgency_rejects_below_alert():
    with pytest.raises(ValueError):
        charging_urgency(10.0, 19.516, 97.58)


def test_altitude_feasible_bounds():
    # cot(pi/4) = 1 -> lower bound equals the sensing radius
    assert altitude_feasible(250.0, 200.0, math.pi / 4, 500.0)
    assert altitude_feasible(500.0, 200.0, math.pi / 4, 500.0)  # closed upper bound
    assert not altitude_feasible(200.0 - 1e-9, 200.0, math.pi / 4, 500.0)
    with pytest.raises(ValueError):
        altitude_feasible(250.0, 200.0, math.pi, 500.0)


def test_charge_duration_reference_value():
    assert charge_duration(80.0, 90.0, 600.0, 0.95, 0.8) == pytest.approx(78.94736842105263, abs=1e-9)


def test_charge_duration_zero_gap_and_scaling():
    assert charge_duration(90.0, 90.0, 600.0, 0.95, 0.8) == 0.0
    assert charge_duration(95.0, 90.0, 600.0, 0.95, 0.8) == 0.0
    full = charge_duration(80.0, 90.0, 600.0, 0.95, 0.8)
    half = charge_duration(80.0, 90.0, 300.0, 0.95, 0.8)
    assert half == pytest.approx(2.0 * full, rel=1e-12)


def test_power_breakdown_rejects_negative_components():
    with pytest.raises(ValueError):
        PowerBreakdown(fly=-1.0, hover=0, descend=0, ascend=0, receive=0)
