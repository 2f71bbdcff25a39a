"""Valuation and service-quality maps."""

import numpy as np
import pytest

from skymarket.valuation import qors_from_distance

from conftest import ValuationSeries, average_valuation, charging_urgency, instant_valuation


def test_instant_valuation_reference_values():
    assert instant_valuation(0.0, 1.0, 5.0) == 1.0
    assert instant_valuation(0.7, 1.0, 5.0) == pytest.approx(4.5, abs=1e-12)
    assert instant_valuation(1.0, 1.0, 5.0) == pytest.approx(6.0, abs=1e-12)


def test_instant_valuation_domain():
    with pytest.raises(ValueError):
        instant_valuation(1.2, 1.0, 5.0)
    with pytest.raises(ValueError):
        instant_valuation(0.5, -1.0, 5.0)


def test_valuation_decreasing_in_soc():
    # composing with urgency flips the direction: more charge, less value
    socs = np.linspace(19.516, 97.58, 25)
    vals = [instant_valuation(charging_urgency(float(s), 19.516, 97.58), 1.0, 5.0) for s in socs]
    assert all(a > b for a, b in zip(vals, vals[1:]))


def test_average_valuation_singleton_and_pair():
    assert average_valuation(ValuationSeries(0, ((3, 4.5),))) == 4.5
    assert average_valuation(ValuationSeries(0, ((1, 1.0), (2, 6.0)))) == 3.5


def test_average_valuation_of_draining_uav():
    # 8 slots, urgency stepping 0.60..0.67 -> mean Phi = 1 + 5 * 0.635
    samples = tuple((t, instant_valuation(0.60 + 0.01 * t, 1.0, 5.0)) for t in range(8))
    assert average_valuation(ValuationSeries(7, samples)) == pytest.approx(4.175, abs=1e-12)


def test_average_valuation_constant_series():
    series = ValuationSeries(1, tuple((t, 2.5) for t in range(10)))
    assert average_valuation(series) == pytest.approx(2.5, abs=1e-12)


def test_valuation_series_rejects_empty():
    with pytest.raises(ValueError):
        ValuationSeries(0, ())


def test_qors_linear_map():
    assert qors_from_distance(0.0, 2500.0) == 1.0
    assert qors_from_distance(1250.0, 2500.0) == pytest.approx(0.5, abs=1e-12)
    assert qors_from_distance(2500.0, 2500.0) == 0.05  # clamp at the floor


def test_qors_monotone_and_positive():
    ds = np.linspace(0.0, 2500.0, 60)
    qs = [qors_from_distance(float(d), 2500.0) for d in ds]
    assert all(a >= b for a, b in zip(qs, qs[1:]))
    assert all(q > 0 for q in qs)


def test_qors_rejects_out_of_range():
    with pytest.raises(ValueError):
        qors_from_distance(2500.1, 2500.0)
    with pytest.raises(ValueError):
        qors_from_distance(-1.0, 2500.0)
