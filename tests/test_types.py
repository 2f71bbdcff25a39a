"""Domain type invariants, config files and their round trips."""

import math
import pathlib
import typing

import pytest

from skymarket.types import (
    Activity,
    AuctionOutcome,
    Match,
    PowerParams,
    ScenarioConfig,
    UavState,
    UgvState,
    config_hash,
    config_to_text,
    load_config,
    parse_config_text,
    save_config,
    validate,
)

BASELINE_CFG = pathlib.Path(__file__).resolve().parents[1] / "configs" / "baseline.cfg"
FLOAT_FIELDS = [name for name, hint in typing.get_type_hints(ScenarioConfig).items()
                if hint in (float, typing.Optional[float])]


def make_uav(uid, soc=40.0):
    return UavState(
        id=uid, position=(0.0, 0.0, 8.0), velocity_max=10.0,
        battery_capacity=97.58, soc=soc, soc_alert=19.516, soc_satisfactory=87.822,
        activity=Activity.HOVERING, mass=2.0, power_params=PowerParams(),
        discharge_efficiency=0.95, sensing_radius=200.0, detection_angle=1.55,
        altitude_max=10.0,
    )


def make_ugv(uid, q, supply=3000.0):
    return UgvState(
        id=uid, position=(100.0, 100.0), speed_kmh=40.0, supply_capacity=3000.0,
        supply_remaining=supply, transfer_power=600.0, transfer_efficiency=0.8, qors=q,
    )


def test_default_config_is_valid():
    assert validate(ScenarioConfig()) == []


def test_window_must_be_positive():
    bad = ScenarioConfig(window_len=0.0)
    msgs = validate(bad)
    assert any("window length must be positive" in m for m in msgs)


def test_window_must_divide_into_slots():
    bad = ScenarioConfig(window_len=7.5, slot_len=2.0)
    assert any("multiple of slot_len" in m for m in validate(bad))
    ok = ScenarioConfig(window_len=8.0, slot_len=1.0)
    assert validate(ok) == []


def test_reversed_soc_bounds_flagged():
    bad = ScenarioConfig(uav_soc_frac_min=0.9, uav_soc_frac_max=0.3)
    assert any("SoC lower bound exceeds upper" in m for m in validate(bad))


def test_violations_name_the_field():
    bad = ScenarioConfig(task_radius=-5.0, qors_floor=1.5)
    msgs = validate(bad)
    assert any(m.startswith("task_radius") for m in msgs)
    assert any(m.startswith("qors_floor") for m in msgs)


@pytest.mark.parametrize("mu0, mu1, field", [
    (-10.0, 5.0, "mu0"), (1.0, -5.0, "mu1"), (-1.0, 0.5, "mu0"),
    (float("nan"), 5.0, "mu0"), (1.0, float("nan"), "mu1"),
])
def test_negative_or_nan_valuation_coefficients_rejected(mu0, mu1, field):
    # a negative coefficient makes negative bids, which the auction's
    # payment check rejects mid-run; validate() must stop the config first
    bad = ScenarioConfig(mu0=mu0, mu1=mu1, uav_count=20, ugv_count=4,
                         uav_soc_frac_min=0.2, uav_soc_frac_max=0.5, horizon_slots=64)
    assert [m.split(":")[0] for m in validate(bad)] == [field]
    assert validate(ScenarioConfig(mu0=0.0, mu1=0.0)) == []


def test_uav_state_invariants():
    with pytest.raises(ValueError):
        make_uav(0, soc=200.0)  # above capacity
    with pytest.raises(ValueError):
        UavState(
            id=1, position=(0, 0, 5), velocity_max=10.0, battery_capacity=100.0,
            soc=50.0, soc_alert=60.0, soc_satisfactory=90.0,  # soc below alert
            activity=Activity.HOVERING, mass=2.0, power_params=PowerParams(),
            discharge_efficiency=0.95, sensing_radius=200.0,
            detection_angle=1.0, altitude_max=10.0,
        )


def test_uav_alert_below_satisfactory_required():
    with pytest.raises(ValueError):
        UavState(
            id=1, position=(0, 0, 5), velocity_max=10.0, battery_capacity=100.0,
            soc=50.0, soc_alert=20.0, soc_satisfactory=15.0,
            activity=Activity.HOVERING, mass=2.0, power_params=PowerParams(),
            discharge_efficiency=0.95, sensing_radius=200.0,
            detection_angle=1.0, altitude_max=10.0,
        )


def test_ugv_state_invariants():
    with pytest.raises(ValueError):
        make_ugv(0, q=0.0)  # q must be strictly positive
    with pytest.raises(ValueError):
        make_ugv(0, q=0.5, supply=5000.0)  # above capacity


def test_outcome_rejects_duplicate_columns():
    m1 = Match(rank=1, uav_id=0, ugv_id=0, bid=4.0, q=0.9)
    m2 = Match(rank=2, uav_id=1, ugv_id=0, bid=2.0, q=0.5)  # same pad twice
    with pytest.raises(ValueError):
        AuctionOutcome(
            window_id=1, winners=(m1, m2), losers=(), payments=(0.0, 0.0),
            uav_utilities={0: 1.0, 1: 1.0}, ugv_utilities={0: 0.0},
            social_surplus=2.0,
        )


def test_outcome_rejects_negative_payment():
    m1 = Match(rank=1, uav_id=0, ugv_id=0, bid=4.0, q=0.9)
    with pytest.raises(ValueError):
        AuctionOutcome(
            window_id=1, winners=(m1,), losers=(), payments=(-0.1,),
            uav_utilities={0: 1.0}, ugv_utilities={0: -0.1}, social_surplus=3.6,
        )


def test_agent_states_survive_dict_round_trips():
    # every value object rebuilds bit-exactly from its field dict
    import dataclasses

    uav = make_uav(3, soc=61.123456789)
    d = dataclasses.asdict(uav)
    d["power_params"] = PowerParams(**d["power_params"])
    d["activity"] = Activity(d["activity"].value)
    d["position"] = tuple(d["position"])
    assert UavState(**d) == uav

    ugv = make_ugv(2, q=0.7321)
    d = dataclasses.asdict(ugv)
    d["position"] = tuple(d["position"])
    assert type(ugv)(**d) == ugv


def test_config_text_round_trip_is_bit_exact(tmp_path):
    cfg = ScenarioConfig(uav_capacity_wh=97.58, mu1=5.0, seed=42, thrust_newton=19.6)
    path = tmp_path / "scenario.cfg"
    save_config(cfg, path)
    assert load_config(path) == cfg


def test_config_defaults_fill_missing_keys():
    cfg = parse_config_text("ugv_count = 14\nmu1 = 7.5\n")
    assert cfg.ugv_count == 14 and cfg.mu1 == 7.5
    assert cfg.uav_count == ScenarioConfig().uav_count


def test_config_comments_and_blank_lines():
    cfg = parse_config_text("# comment\n\nseed = 5  # trailing\n")
    assert cfg.seed == 5


def test_config_rejects_unknown_key():
    with pytest.raises(ValueError, match="unknown config key"):
        parse_config_text("warp_factor = 9\n")


def test_config_rejects_malformed_line():
    with pytest.raises(ValueError, match="expected 'key = value'"):
        parse_config_text("this is not a config\n")


def test_config_value_errors_name_the_line_and_key():
    # int and float values are covered through `skymarket validate`
    with pytest.raises(ValueError, match="^line 2: base_station needs three numbers x,y,z"):
        parse_config_text("seed = 1\nbase_station = 1,x,3\n")


@pytest.mark.parametrize("window_len, slot_len", [
    (float("inf"), 1.0), (1e300, 1e-300), (8.0, 1e-320),
])
def test_validate_reports_a_window_with_infinitely_many_slots(window_len, slot_len):
    # the window/slot ratio overflows to inf; validate reports it rather
    # than letting round() raise
    problems = validate(ScenarioConfig(window_len=window_len, slot_len=slot_len))
    assert problems == ["window_len: must be a positive multiple of slot_len"]


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan], ids=["inf", "-inf", "nan"])
@pytest.mark.parametrize("name", FLOAT_FIELDS)
def test_validate_names_every_non_finite_number(name, value):
    problems = validate(ScenarioConfig().replace(**{name: value}))
    assert any(p.startswith(f"{name}:") for p in problems), problems


def test_config_hash_is_pinned():
    # base_station is read by nothing but kept in the hashed text, so the
    # config digest of every provenance line stays as it was
    assert config_hash(ScenarioConfig()) == "a191e5dc8ab2"
    assert config_hash(load_config(BASELINE_CFG)) == "a191e5dc8ab2"


def test_config_hash_tracks_content():
    a = ScenarioConfig()
    b = ScenarioConfig(ugv_count=14)
    assert config_hash(a) != config_hash(b)
    assert config_hash(a) == config_hash(ScenarioConfig())


def test_shipped_default_config_matches_defaults():
    cfg = load_config(BASELINE_CFG)
    assert cfg == ScenarioConfig()
    assert validate(cfg) == []


def test_spot_is_area_center():
    cfg = ScenarioConfig(area_width=5000.0, area_height=5000.0)
    assert cfg.spot == (2500.0, 2500.0)


def test_base_station_round_trips():
    text = config_to_text(ScenarioConfig(base_station=(1.5, 2.5, 3.5)))
    cfg = parse_config_text(text)
    assert cfg.base_station == (1.5, 2.5, 3.5)
