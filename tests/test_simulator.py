"""World generation, slot dynamics, window clearing, and the sweep harness."""

import dataclasses
import itertools
import math

import numpy as np
import pytest

import conftest
from conftest import (
    aggregate_row_objects,
    agent_arrays_per_agent,
    close_window_loop,
    csv_writer_text,
    outcome_rows,
    rendezvous,
    run_world_windowwise,
    satisfaction_level,
)
import skymarket._kernels as K
import skymarket.simulator as simulator
from skymarket.simulator import (
    ALL_SCHEMES,
    SCHEME_OURS,
    SCHEME_STATIC,
    MetricsRow,
    advance_slot,
    aggregate_rows,
    close_window,
    generate_scenario,
    run_experiment,
    run_world,
    run_worlds,
)
from skymarket.audit import UTILITY_TOL
from skymarket.baselines import optimal_scheme_outcome
from skymarket.mechanism import DemandEntry, SupplyEntry, WindowMarket, run_auction
from skymarket.types import ScenarioConfig


def test_generation_is_deterministic():
    cfg = ScenarioConfig()
    a = generate_scenario(cfg, seed=42)
    b = generate_scenario(cfg, seed=42)
    assert np.array_equal(a.uav_f, b.uav_f)
    assert np.array_equal(a.ugv_f, b.ugv_f)
    c = generate_scenario(cfg, seed=43)
    assert not np.array_equal(a.uav_f, c.uav_f)


@pytest.mark.parametrize("scheme", [SCHEME_OURS, SCHEME_STATIC])
def test_generation_matches_per_agent_oracle(scheme):
    # every array byte-identical to one seeded Generator per agent, across
    # slot lengths, fleet sizes, starts below the alert level and a set thrust
    configs = [
        ScenarioConfig(),
        ScenarioConfig(slot_len=0.5, uav_count=1, ugv_count=30),
        ScenarioConfig(slot_len=2.0, window_len=8.0, uav_count=30, ugv_count=1),
        ScenarioConfig(uav_count=17, ugv_count=9,
                       uav_soc_frac_min=0.02, uav_soc_frac_max=0.15),
        ScenarioConfig(uav_count=3, ugv_count=4, thrust_newton=42.5),
    ]
    names = ("uav_f", "uav_i", "ugv_f", "ugv_i", "ugv_speed_kmh")
    for cfg in configs:
        for seed in (0, 1, 97):
            world = generate_scenario(cfg, seed, scheme)
            for name, expected in zip(names, agent_arrays_per_agent(cfg, seed, scheme)):
                got = getattr(world, name)
                assert got.dtype == expected.dtype and got.shape == expected.shape, name
                assert got.tobytes() == expected.tobytes(), name
                assert got.flags.f_contiguous, name


def test_sweep_draws_each_substream_once(monkeypatch):
    # a seed's worlds share its substreams: 5 fleet sizes x 3 schemes need
    # only the 10 UAV and 14 vehicle substreams of the largest fleet
    real = np.random.SeedSequence
    keys = []

    def counting(entropy, *args, **kwargs):
        keys.append(tuple(entropy))
        return real(entropy, *args, **kwargs)

    monkeypatch.setattr(np.random, "SeedSequence", counting)
    cfg = ScenarioConfig(horizon_slots=16)
    res = run_experiment(cfg, {"ugv_count": [6, 8, 10, 12, 14]}, replications=3,
                         schemes=ALL_SCHEMES, base_seed=4)
    assert len(keys) == 3 * (10 + 14) and len(set(keys)) == len(keys)
    assert len(res.rows) == 5 * 3 * 3 * 2

    # smaller fleets on either side take a prefix of the shared draws
    monkeypatch.undo()
    sweep = {"uav_count": [3, 7], "ugv_count": [2, 5]}
    res = run_experiment(cfg, sweep, replications=2, schemes=("ours", "static"),
                         base_seed=4)
    alone = []
    for n, m in itertools.product(*sweep.values()):
        for seed in (4, 5):
            for scheme in ("ours", "static"):
                world = generate_scenario(cfg.replace(uav_count=n, ugv_count=m), seed, scheme)
                alone += run_world(world)[0]
    assert res.rows == alone


def test_generation_respects_configured_ranges():
    cfg = ScenarioConfig()
    world = generate_scenario(cfg, seed=11)
    soc = world.uav_f[:, K.F_SOC]
    assert np.all(soc >= 0.3 * 97.58) and np.all(soc <= 97.58)
    assert np.all(world.soc_alert == pytest.approx(19.516))
    z = world.uav_f[:, K.F_Z]
    assert np.all((z >= 5.0) & (z <= 10.0))
    dist = np.hypot(world.ugv_f[:, K.G_X] - 2500.0, world.ugv_f[:, K.G_Y] - 2500.0)
    assert np.all((dist >= 300.0) & (dist <= 2500.0))
    speed = world.ugv_speed_kmh
    assert np.all((speed >= 20.0) & (speed <= 60.0))


def test_agent_substreams_extend_across_fleet_sizes():
    # adding vehicles must not reshuffle the existing draws (paired sweeps)
    small = generate_scenario(ScenarioConfig(ugv_count=6), seed=5)
    large = generate_scenario(ScenarioConfig(ugv_count=14), seed=5)
    assert np.array_equal(small.ugv_f[:6], large.ugv_f[:6])
    assert np.array_equal(small.uav_f, large.uav_f)


def test_generation_rejects_invalid_config():
    with pytest.raises(ValueError, match="invalid scenario config"):
        generate_scenario(ScenarioConfig(window_len=0.0), seed=1)


def test_rendezvous_midpoint():
    assert rendezvous((2500.0, 2500.0), (2500.0, 4500.0)) == (2500.0, 3500.0)
    assert rendezvous((10.0, 20.0), (10.0, 20.0)) == (10.0, 20.0)
    spot, ugv = (0.0, 0.0), (30.0, 40.0)
    mid = rendezvous(spot, ugv)
    d1 = math.hypot(mid[0] - spot[0], mid[1] - spot[1])
    d2 = math.hypot(mid[0] - ugv[0], mid[1] - ugv[1])
    assert d1 == pytest.approx(d2, abs=1e-12)


def test_satisfaction_level_reference_value():
    market = WindowMarket.from_values([4.0, 2.0], [4.0, 2.0], [0.9, 0.5])
    outcome = run_auction(market)
    sl = satisfaction_level(outcome, {0: 0.7, 1: 0.4})
    assert sl == pytest.approx(0.9 * 0.7 + 0.5 * 0.4, abs=1e-12)  # 0.83
    empty = run_auction(WindowMarket.from_values([], [], []))
    assert satisfaction_level(empty, {}) == 0.0


def test_hover_drain_per_slot():
    from skymarket.energy import hover_power

    cfg = ScenarioConfig()
    world = generate_scenario(cfg, seed=2)
    before = world.uav_f[:, K.F_SOC].copy()
    advance_slot(world)
    expected = cfg.uav_discharge_eff * hover_power(cfg.uav_mass_kg, cfg.kappa2, cfg.kappa3) / 3600.0
    drained = before - world.uav_f[:, K.F_SOC]
    assert drained == pytest.approx(np.full(world.num_uavs, expected), abs=1e-12)


def test_ugv_reaches_rendezvous_in_three_slots():
    # 30 m away at 36 km/h (10 m/s) with 1 s slots
    world = generate_scenario(ScenarioConfig(), seed=2)
    j = 0
    world.ugv_f[j, K.G_X] = 1000.0
    world.ugv_f[j, K.G_Y] = 1000.0
    world.ugv_f[j, K.G_TX] = 1030.0
    world.ugv_f[j, K.G_TY] = 1000.0
    world.ugv_f[j, K.G_STEP] = 10.0
    world.ugv_i[j, K.GI_STATE] = K.UGV_ENROUTE
    for arrived_at in range(1, 6):
        advance_slot(world)
        if world.ugv_i[j, K.GI_STATE] == K.UGV_SERVING:
            break
    assert arrived_at == 3
    assert world.ugv_f[j, K.G_X] == 1030.0


def test_idle_world_only_clock_advances():
    # threshold 1.0 is unreachable while batteries stay above the alert
    # level, so nobody ever bids
    cfg = ScenarioConfig(enter_urgency=1.0)
    world = generate_scenario(cfg, seed=4)
    pos_before = world.uav_f[:, (K.F_X, K.F_Y)].copy()
    for _ in range(16):
        advance_slot(world)
    assert world.clock == 16
    assert not world.bidder.any()
    assert np.array_equal(world.uav_f[:, (K.F_X, K.F_Y)], pos_before)


def test_windows_close_on_schedule():
    cfg = ScenarioConfig()
    world = generate_scenario(cfg, seed=1)
    closes = []
    for _ in range(24):
        advance_slot(world)
        if world.clock % cfg.slots_per_window == 0:
            close_window(world)
            closes.append(world.clock)
    assert closes == [8, 16, 24]


def test_close_window_requires_boundary():
    world = generate_scenario(ScenarioConfig(), seed=1)
    advance_slot(world)
    with pytest.raises(ValueError, match="window boundary"):
        close_window(world)


def test_winner_count_capped_by_supply():
    # 10 eager bidders, 6 vehicles -> exactly 6 winners in window 1
    cfg = ScenarioConfig(ugv_count=6, uav_soc_frac_min=0.3, uav_soc_frac_max=0.55)
    world = generate_scenario(cfg, seed=8)
    rows, _, _ = run_world(world, horizon_slots=8)
    assert rows[0].winners == 6


def test_matched_pairs_are_exclusive_and_tracked():
    cfg = ScenarioConfig(uav_soc_frac_min=0.3, uav_soc_frac_max=0.55)
    world = generate_scenario(cfg, seed=8)
    rows, _, _ = run_world(world, horizon_slots=8)
    partners = world.uav_i[:, K.I_PARTNER]
    matched = partners[partners >= 0]
    assert len(set(matched.tolist())) == len(matched)  # no pad double-booked
    for i in np.flatnonzero(partners >= 0):
        j = partners[i]
        assert world.ugv_i[j, K.GI_PARTNER] == i
        assert world.ugv_i[j, K.GI_STATE] in (K.UGV_ENROUTE, K.UGV_SERVING)


def test_soc_stays_bounded_and_charging_completes():
    cfg = ScenarioConfig(uav_soc_frac_min=0.3, uav_soc_frac_max=0.5)
    world = generate_scenario(cfg, seed=15)
    cap = cfg.uav_capacity_wh
    saw_charging = False
    peak = 0.0
    for _ in range(600):
        advance_slot(world)
        if world.clock % cfg.slots_per_window == 0:
            close_window(world)
        soc = world.uav_f[:, K.F_SOC]
        assert np.all(soc >= 0.0) and np.all(soc <= cap + 1e-12)
        peak = max(peak, float(soc.max()))
        if (world.uav_i[:, K.I_ACT] == K.ACT_CHARGE).any():
            saw_charging = True
    assert saw_charging
    # someone finished a session: its battery crossed the satisfactory level
    assert peak >= 0.9 * cap


def test_supply_drawdown_matches_delivered_energy():
    # per slot, each pad's stock drops by exactly (battery gain) / eta_j
    cfg = ScenarioConfig(uav_soc_frac_min=0.3, uav_soc_frac_max=0.5)
    world = generate_scenario(cfg, seed=15)
    eta_j = cfg.ugv_transfer_eff
    total_drawn = 0.0
    total_delivered = 0.0
    for _ in range(600):
        charging = np.flatnonzero(world.uav_i[:, K.I_ACT] == K.ACT_CHARGE)
        soc_before = world.uav_f[charging, K.F_SOC].copy()
        supply_before = world.ugv_f[:, K.G_SUPPLY].copy()
        advance_slot(world)
        if world.clock % cfg.slots_per_window == 0:
            close_window(world)
        delivered = float((world.uav_f[charging, K.F_SOC] - soc_before).sum())
        drawn = float((supply_before - world.ugv_f[:, K.G_SUPPLY]).sum())
        assert drawn == pytest.approx(delivered / eta_j, abs=1e-12)
        assert np.all(world.ugv_f[:, K.G_SUPPLY] >= 0.0)
        total_drawn += drawn
        total_delivered += delivered
    assert total_delivered > 0.0
    assert total_drawn == pytest.approx(total_delivered / eta_j, abs=1e-9)


def test_session_length_tracks_charge_duration_estimate():
    # once a UAV lands, the pad stays occupied for about
    # charge_duration(soc, s_sat, P_e, eta_i, eta_j) seconds
    from conftest import charge_duration

    cfg = ScenarioConfig(uav_soc_frac_min=0.3, uav_soc_frac_max=0.45)
    world = generate_scenario(cfg, seed=13)
    landed_at = {}
    sessions = []
    for _ in range(600):
        advance_slot(world)
        if world.clock % cfg.slots_per_window == 0:
            close_window(world)
        charging = world.uav_i[:, K.I_ACT] == K.ACT_CHARGE
        for i in np.flatnonzero(charging):
            if i not in landed_at:
                landed_at[int(i)] = (world.clock, float(world.uav_f[i, K.F_SOC]))
        for i, (t0, soc0) in list(landed_at.items()):
            if world.uav_i[i, K.I_ACT] == K.ACT_ASCEND:
                sessions.append((world.clock - t0, soc0))
                del landed_at[i]
    assert sessions
    for slots, soc0 in sessions:
        predicted = charge_duration(
            soc0, 0.9 * cfg.uav_capacity_wh, cfg.ugv_transfer_power_w,
            cfg.uav_discharge_eff, cfg.ugv_transfer_eff,
        ) / cfg.slot_len
        assert slots == pytest.approx(predicted, abs=2.0)  # slot quantization


def test_urgency_matches_scalar_oracle():
    # at or above its alert level a UAV's urgency is the scalar formula to
    # the bit; below it the simulator pins urgency to 1. With an entry
    # urgency of 0 every sensing UAV bids from the first slot, so after
    # one slot its sums hold that slot's urgency and valuation
    from conftest import charging_urgency, instant_valuation

    cfg = ScenarioConfig(uav_count=40, uav_soc_frac_min=0.1, uav_soc_frac_max=0.9,
                         enter_urgency=0.0)
    world = advance_slot(generate_scenario(cfg, seed=4))
    assert world.sample_count.tolist() == [1] * world.num_uavs
    rho, phi = world.rho_sum.tolist(), world.phi_sum.tolist()
    below = 0
    for i in range(world.num_uavs):
        soc = float(world.uav_f[i, K.F_SOC])
        alert = float(world.soc_alert[i])
        if soc >= alert:
            assert rho[i] == charging_urgency(soc, alert, float(world.uav_f[i, K.F_CAP]))
        else:
            assert rho[i] == 1.0
            below += 1
        assert phi[i] == instant_valuation(rho[i], cfg.mu0, cfg.mu1)
    assert 0 < below < world.num_uavs


def test_generated_cruise_altitudes_are_feasible():
    from conftest import altitude_feasible

    cfg = ScenarioConfig(uav_count=50)
    world = generate_scenario(cfg, seed=8)
    for z in world.uav_f[:, K.F_CRUISE_Z].tolist():
        assert altitude_feasible(
            z, cfg.uav_sensing_radius, cfg.uav_detection_angle, cfg.uav_altitude_max
        )


def test_window_metrics_surplus_identity_enforced():
    with pytest.raises(ValueError, match="surplus must equal"):
        MetricsRow(
            scheme="ours", ugv_count=10, tau=8.0, seed=0, window=1,
            sl=0.1, uav_utility=1.0, ugv_utility=0.5, surplus=2.0,
            non_envy_ratio=1.0, winners=1,
        )


def test_surplus_identity_scales_with_the_surplus():
    # mu0 = mu1 = 1e6 puts surpluses near 1e7, where one ulp is about
    # 2e-9: an absolute 1e-9 once failed every run of this config on
    # rounding alone
    cfg = ScenarioConfig(mu0=1e6, mu1=1e6, uav_soc_frac_min=0.1, uav_soc_frac_max=0.3)
    result = run_experiment(cfg, {"ugv_count": [6, 14]}, replications=5, with_audit=True)
    rows = result.rows
    assert any(r.winners and r.surplus > 1e6 for r in rows)
    reports = result.audits
    assert len(reports) == len(rows)
    assert sum(r.ir_violations + r.ic_violations + r.blocking_pairs for r in reports) == 0
    # a mismatch of 1e-6 of the surplus is no rounding
    with pytest.raises(ValueError, match="surplus must equal"):
        MetricsRow(
            scheme="ours", ugv_count=10, tau=8.0, seed=0, window=1, sl=0.1,
            uav_utility=6e6, ugv_utility=4e6 - 10.0, surplus=1e7, non_envy_ratio=1.0,
            winners=25,
        )


def test_audit_tolerance_scales_with_the_market():
    # mu0 = mu1 = 1e7 puts utilities near 1e7, where the IC probe's
    # rounding reaches 3.7e-9: an absolute 1e-9 reported 29 IC violations
    # and 63 blocking pairs on rounding alone
    cfg = ScenarioConfig(mu0=1e7, mu1=1e7, uav_soc_frac_min=0.1, uav_soc_frac_max=0.3)
    reports = run_experiment(cfg, {"ugv_count": [6, 14]}, replications=5,
                             with_audit=True).audits
    assert sum(r.ir_violations + r.ic_violations + r.blocking_pairs for r in reports) == 0
    assert min(r.non_envy_ratio for r in reports) == 1.0
    # worst_ic_gain stays the raw maximum: the rounding still shows there
    assert max(r.worst_ic_gain for r in reports) > UTILITY_TOL


def test_static_scheme_vehicles_never_move():
    cfg = ScenarioConfig(uav_soc_frac_min=0.3, uav_soc_frac_max=0.5)
    world = generate_scenario(cfg, seed=6, scheme=SCHEME_STATIC)
    pos_before = world.ugv_f[:, (K.G_X, K.G_Y)].copy()
    run_world(world, horizon_slots=200)
    assert np.array_equal(world.ugv_f[:, (K.G_X, K.G_Y)], pos_before)


def test_static_scores_below_mobile_scores_at_window_one():
    cfg = ScenarioConfig()
    mobile = generate_scenario(cfg, seed=9, scheme=SCHEME_OURS)
    static = generate_scenario(cfg, seed=9, scheme=SCHEME_STATIC)
    for j in range(cfg.ugv_count):
        assert static.qors([j])[0] <= mobile.qors([j])[0] + 1e-12


@pytest.mark.parametrize("scheme", [SCHEME_OURS, SCHEME_STATIC])
def test_one_qors_call_scores_as_math_hypot_per_vehicle(scheme):
    # a trade's vehicles scored in one call, in any order, bit for bit as
    # math.hypot on each vehicle's numpy scalars scores them; np.hypot
    # differs from math.hypot on about 0.6% of pairs, so 2,000 vehicles
    # would show it
    cfg = ScenarioConfig(ugv_count=2000)
    world = generate_scenario(cfg, seed=4, scheme=scheme)
    ref, floor = cfg.qors_ref_distance, cfg.qors_floor

    def score(j):
        d = math.hypot(world.ugv_f[j, K.G_X] - cfg.spot[0], world.ugv_f[j, K.G_Y] - cfg.spot[1])
        d = d if scheme == SCHEME_STATIC else d / 2.0
        return max(1.0 - min(d, ref) / ref, floor)

    ugvs = np.random.default_rng(4).permutation(cfg.ugv_count).tolist()
    want = [score(j) for j in ugvs]
    assert world.qors(ugvs) == want
    assert [world.qors([j])[0] for j in ugvs[:50]] == want[:50]


def test_losers_requeue_next_window():
    cfg = ScenarioConfig(ugv_count=1, uav_soc_frac_min=0.3, uav_soc_frac_max=0.5)
    world = generate_scenario(cfg, seed=21)
    rows, outs, _ = run_world(world, horizon_slots=16, keep_outcomes=True)
    first, second = outs[0], outs[1]
    assert first.losers  # one pad, several bidders
    # pad is busy in window 2, so last window's losers stay queued
    requeued = set(np.flatnonzero(world.bidder).tolist())
    assert set(first.losers) <= requeued | {m.uav_id for m in second.winners}
    assert world.fail_count[list(first.losers)].min() >= 1


def test_loser_exit_after_max_failures():
    cfg = ScenarioConfig(
        ugv_count=1, uav_soc_frac_min=0.3, uav_soc_frac_max=0.5,
        max_failed_windows=2,
    )
    world = generate_scenario(cfg, seed=21)
    run_world(world, horizon_slots=40)
    assert world.excluded.any()
    assert not world.bidder[world.excluded].any()


def test_simulated_outcomes_hold_plain_ints_and_floats():
    # outcomes are written to CSV as they are: no numpy scalar may reach
    # them, from windows with a trade or from windows settled without one
    cfg = ScenarioConfig(ugv_count=3, uav_soc_frac_max=0.55)
    for scheme in (SCHEME_OURS, SCHEME_STATIC):
        _, outcomes, _ = run_world(generate_scenario(cfg, seed=2, scheme=scheme),
                                   horizon_slots=120, keep_outcomes=True)
        assert any(o.winners and o.losers for o in outcomes)
        assert any(o.losers and not o.winners for o in outcomes)
        for o in outcomes:
            ints = [o.window_id, *o.losers, *o.uav_utilities, *o.ugv_utilities]
            floats = [*o.payments, *o.uav_utilities.values(), *o.ugv_utilities.values(),
                      o.social_surplus]
            for m in o.winners:
                ints += [m.rank, m.uav_id, m.ugv_id]
                floats += [m.bid, m.q]
            assert all(type(x) is int for x in ints)
            assert all(type(x) is float for x in floats)


@pytest.mark.parametrize("per_loser", [False, True])
def test_settle_losers_matches_the_per_loser_loop(rng, per_loser):
    # the array settlement of every window a boundary closes, against
    # the loop close_window_loop runs, on failure counts at and around
    # the limit; a limit is the world's (scalar) or each loser's own
    from conftest import settle_losers_loop

    base = generate_scenario(ScenarioConfig(uav_count=40, ugv_count=2), seed=0)
    n = base.num_uavs
    excluded = 0
    for _ in range(40):
        want = dataclasses.replace(base)
        want.bidder = rng.random(n) < 0.7
        want.excluded = ~want.bidder & (rng.random(n) < 0.3)
        want.fail_count = rng.integers(0, 4, n)
        want.sample_count = np.where(want.bidder, rng.integers(1, 9, n), 0)
        want.phi_sum = want.sample_count * rng.uniform(1.0, 6.0, n)
        want.rho_sum = want.sample_count * rng.uniform(0.0, 1.0, n)
        got = dataclasses.replace(want, **{name: getattr(want, name).copy() for name in (
            "bidder", "excluded", "fail_count", "sample_count", "phi_sum", "rho_sum")})
        losers = rng.permutation(np.flatnonzero(want.bidder))[:int(rng.integers(0, n))]
        limits = rng.integers(0, 4, n)
        if per_loser:
            simulator._settle_losers(got, losers, limits[losers])
            for i in losers:
                settle_losers_loop(want, [i], limits[i])
        else:
            simulator._settle_losers(got, losers, int(limits[0]))
            settle_losers_loop(want, losers, int(limits[0]))
        for name in ("bidder", "excluded", "fail_count", "sample_count", "phi_sum",
                     "rho_sum"):
            assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
        excluded += int(got.excluded.sum())
    assert excluded > 0


def test_stack_rejects_a_losing_bidder_soc_beyond_capacity():
    # a bidder of a window with no trade is checked as close_window_loop
    # checks one, and the error names the window of the bidder's own world
    worlds = []
    for window_len in (8.0, 4.0):
        cfg = ScenarioConfig(window_len=window_len, enter_urgency=0.0, ugv_supply_wh=1.0,
                             uav_soc_frac_min=0.3, uav_soc_frac_max=0.5)
        worlds.append(generate_scenario(cfg, seed=4))
    worlds[0].uav_f[3, K.F_SOC] = worlds[0].uav_f[3, K.F_CAP] + 10.0
    with pytest.raises(ValueError, match=r"window 1: a bidder's SoC left \[0, capacity\]"):
        run_worlds(worlds, horizon_slots=16)


def test_run_experiment_shapes_and_aggregates():
    cfg = ScenarioConfig(horizon_slots=16)
    res = run_experiment(cfg, {"ugv_count": [4, 6]}, replications=2,
                         schemes=("ours",), base_seed=0)
    # 2 grid cells x 2 seeds x 2 windows each
    assert len(res.rows) == 8
    assert [a["J"] for a in res.aggregates] == [4, 6]
    assert aggregate_rows(res.metrics) == res.aggregates
    assert aggregate_row_objects(res.rows) == res.aggregates
    # groups whose rows interleave with other groups' are gathered in row order
    res = run_experiment(cfg, {"ugv_count": [4, 6], "mu1": [5.0, 2.0]}, replications=3,
                         schemes=ALL_SCHEMES, base_seed=2)
    assert len(res.aggregates) == 3 * 2
    assert [a["windows"] for a in res.aggregates] == [2 * 3 * 2] * 6
    assert aggregate_row_objects(res.rows) == res.aggregates


def test_aggregates_of_groups_of_several_lengths_match_the_row_oracle():
    # a window-length sweep gives its groups different window counts;
    # groups of one length are reduced together, and those of each
    # length must still read what one group reduced alone reads
    cfg = ScenarioConfig(horizon_slots=48)
    res = run_experiment(cfg, {"window_len": [4.0, 8.0, 16.0], "ugv_count": [3, 5]},
                         replications=2, schemes=ALL_SCHEMES, base_seed=6)
    assert len({a["windows"] for a in res.aggregates}) == 3
    assert aggregate_row_objects(res.rows) == res.aggregates


@pytest.mark.parametrize("length", [1, 2, 3, 7, 8, 9, 16, 50, 127, 128, 129, 1000, 7500])
def test_row_reductions_match_the_one_dimensional_ones(length):
    # aggregate_rows relies on numpy reducing each row of a C-contiguous
    # array along axis 1 as it reduces that row alone
    x = np.random.default_rng(length).random((4, length)) * [[1.0], [1e6], [1e-3], [3.0]]
    for reduce in ("mean", "std", "min"):
        rows = np.array([getattr(row.copy(), reduce)() for row in x])
        assert getattr(x, reduce)(1).tobytes() == rows.tobytes(), reduce


def test_ours_and_optimal_agree_under_truthful_bids(monkeypatch):
    # a sweep reads `optimal` off the `ours` world. The oracle runs each
    # world alone with the real welfare planner in place of the auction
    # inside close_window_loop, so its outcomes steer the rendezvous; every
    # row, outcome and audit report must match, including windows of 12
    # eager bidders against 12 idle pads
    cfg = ScenarioConfig(
        uav_count=12, ugv_count=12, horizon_slots=24,
        uav_soc_frac_min=0.3, uav_soc_frac_max=0.55,
    )
    kw = dict(sweep={"ugv_count": [6, 12]}, replications=2, base_seed=3,
              with_audit=True, keep_outcomes=True)
    traded_at_boundaries = []  # trading windows per _close_boundary call
    real_boundary = simulator._close_boundary

    def counting_boundary(*args):
        masks = real_boundary(*args)
        traded_at_boundaries.append(int(masks.trading.sum()))
        return masks

    monkeypatch.setattr(simulator, "_close_boundary", counting_boundary)
    res = run_experiment(cfg, schemes=("ours", "optimal"), **kw)
    ours = [r for r in res.rows if r.scheme == "ours"]
    opt = [r for r in res.rows if r.scheme == "optimal"]
    assert len(ours) == 12 and opt == [dataclasses.replace(r, scheme="optimal") for r in ours]
    assert max(r.winners for r in ours) == 12

    planned = []  # per market the planner clears: does it have both sides?

    def planner(market):
        planned.append(not market.is_empty)
        return optimal_scheme_outcome(market)

    monkeypatch.setattr(conftest, "run_auction", planner)
    rows, outcomes, audits = [], [], []
    for m in kw["sweep"]["ugv_count"]:
        for seed in (3, 4):
            world = generate_scenario(cfg.replace(ugv_count=m), seed, "optimal")
            r, outs, reps = run_world_windowwise(world, cfg.horizon_slots,
                                                 with_audit=True, keep_outcomes=True)
            rows += r
            outcomes += [("optimal", seed, o) for o in outs]
            audits += reps
    # only windows with a bidder and an admitted vehicle trade; windows
    # with no bidder, and with bidders but no trade, occur too
    with_bidders = sum(1 for _, _, o in outcomes if o.uav_utilities)
    traded = sum(1 for _, _, o in outcomes if o.winners)
    assert len(planned) == 12 and sum(planned) == traded
    assert sum(traded_at_boundaries) == traded and 0 < traded < with_bidders < 12
    assert rows == opt
    assert outcomes == [o for o in res.outcomes if o[0] == "optimal"]
    assert audits == [a for a in res.audits if a.instance.startswith("optimal-")]
    assert [a.instance for a in audits][:3] == [
        "optimal-seed3-w1", "optimal-seed3-w2", "optimal-seed3-w3"]


def test_sweep_builds_one_mobile_world_per_cell_and_seed(monkeypatch):
    real_generate = simulator.generate_scenario
    real_build = simulator._build_stack
    built = []

    def counting(worlds, draws):
        built.extend(w.scheme for w in worlds)
        return real_build(worlds, draws)

    monkeypatch.setattr(simulator, "_build_stack", counting)
    cfg = ScenarioConfig(horizon_slots=16, uav_soc_frac_min=0.3, uav_soc_frac_max=0.5)
    sweep = {"ugv_count": [3, 8], "window_len": [4.0, 8.0]}
    run_experiment(cfg, sweep, replications=2, schemes=ALL_SCHEMES)
    assert len(built) == 2 * 4 * 2 and set(built) == {"ours", "static"}
    built.clear()
    run_experiment(cfg, sweep, replications=2, schemes=("optimal",))
    assert len(built) == 4 * 2

    # rows keep (cell, seed, schemes) order and equal each scheme's world
    # run alone
    schemes = ("static", "optimal", "ours")
    res = run_experiment(cfg, sweep, replications=2, schemes=schemes, base_seed=1,
                         with_audit=True, keep_outcomes=True)
    rows, outcomes, audits = [], [], []
    for m, tau in itertools.product(*sweep.values()):
        for seed in (1, 2):
            for scheme in schemes:
                world = real_generate(cfg.replace(ugv_count=m, window_len=tau), seed, scheme)
                run_rows, run_outcomes, run_audits = run_world(
                    world, with_audit=True, keep_outcomes=True)
                rows += run_rows
                outcomes += [(scheme, seed, o) for o in run_outcomes]
                audits += run_audits
    assert res.rows == rows and res.outcomes == outcomes and res.audits == audits
    assert [r.scheme for r in res.rows[:6]] == ["static"] * 4 + ["optimal"] * 2


def test_run_experiment_rejects_unknown_scheme():
    with pytest.raises(ValueError, match="unknown scheme"):
        run_experiment(ScenarioConfig(horizon_slots=8), {}, 1, schemes=("ours", "planner"))


def test_coarser_slots_scale_window_schedule_and_drain():
    from skymarket.energy import hover_power

    cfg = ScenarioConfig(window_len=8.0, slot_len=2.0, horizon_slots=8)
    world = generate_scenario(cfg, seed=1)
    assert cfg.slots_per_window == 4
    idle = int(world.uav_f[:, K.F_SOC].argmax())  # fullest battery never bids
    before = world.uav_f[idle, K.F_SOC]
    rows, _, _ = run_world(world)
    assert len(rows) == 2  # closes at slots 4 and 8
    assert not world.bidder[idle]
    per_slot = cfg.uav_discharge_eff * hover_power(
        cfg.uav_mass_kg, cfg.kappa2, cfg.kappa3) * 2.0 / 3600.0
    assert before - world.uav_f[idle, K.F_SOC] == pytest.approx(8 * per_slot, abs=1e-12)


def test_horizon_shorter_than_window_records_nothing():
    cfg = ScenarioConfig(horizon_slots=5)
    rows, outs, _ = run_world(generate_scenario(cfg, seed=1))
    assert rows == [] and outs == []


def test_single_pair_world_clears_at_zero_price():
    cfg = ScenarioConfig(uav_count=1, ugv_count=1,
                         uav_soc_frac_min=0.3, uav_soc_frac_max=0.5)
    world = generate_scenario(cfg, seed=4)
    rows, outs, _ = run_world(world, horizon_slots=8, keep_outcomes=True)
    out = outs[0]
    assert out.num_winners == 1
    assert out.payments == (0.0,)  # supply covers demand: nothing to pay
    # at zero price the sole winner's utility is the whole surplus
    assert rows[0].surplus == pytest.approx(out.uav_utilities[0], abs=1e-9)


def test_run_experiment_is_reproducible():
    cfg = ScenarioConfig(horizon_slots=24)
    a = run_experiment(cfg, {}, replications=3, schemes=("ours",), base_seed=7)
    b = run_experiment(cfg, {}, replications=3, schemes=("ours",), base_seed=7)
    assert a.rows == b.rows and a.aggregates == b.aggregates


def _sweep_worlds(cfg, seed=4):
    return [
        generate_scenario(cfg.replace(ugv_count=m, window_len=tau), seed, scheme)
        for m in (3, 8) for tau in (4.0, 8.0, 16.0) for scheme in ALL_SCHEMES
    ]


def test_lockstep_sweep_matches_worlds_run_alone():
    # mixed fleet sizes, window lengths and schemes share one stack; each
    # world must evolve bit-identically to a run on its own, and hand back
    # its own arrays with local partner indices. The second leg starts
    # with pairs in flight, so their partners must be offset into the stack.
    cfg = ScenarioConfig(uav_soc_frac_min=0.3, uav_soc_frac_max=0.5)
    together, alone = _sweep_worlds(cfg), _sweep_worlds(cfg)
    kw = dict(horizon_slots=24, with_audit=True, keep_outcomes=True)
    for _ in range(2):
        stacked = run_worlds(together, **kw)
        assert stacked == [run_world(w, **kw) for w in alone]
        assert all(audits for _, _, audits in stacked)
    for a, b in zip(together, alone):
        for name in ("uav_f", "uav_i", "ugv_f", "ugv_i", "soc_alert", "bidder",
                     "excluded", "fail_count", "phi_sum", "rho_sum",
                     "sample_count"):
            assert np.array_equal(getattr(a, name), getattr(b, name)), name
            assert getattr(a, name).base is None, name
        assert (a.uav_base, a.ugv_base, a.clock) == (0, 0, 48)
    # the partner columns were exercised, not left at -1
    assert any((w.uav_i[:, K.I_PARTNER] >= 0).any() for w in together[3:])


def test_a_boundary_with_several_trades_clears_as_each_world_alone(monkeypatch):
    # worlds that trade at the same slot boundary, cleared by one
    # _close_boundary call: mobile and static, windows of 8 and 4 slots
    # (so both lengths fall due at once), UAVs started below the alert
    # level that all join at once and bid the same, and markets with more
    # bidders than vehicles and with more vehicles than bidders; in the
    # first world, losers never leave and short charging sessions free the
    # vehicles, so some winners had lost before. Rows, outcomes, audits,
    # the outcomes.csv text and every world's arrays must be each world's
    # run alone through close_window_loop
    cfg = ScenarioConfig(uav_soc_frac_min=0.05, uav_soc_frac_max=0.15, enter_urgency=0.0,
                         max_failed_windows=3)
    cells = [
        (cfg.replace(uav_count=12, ugv_count=3, max_failed_windows=0,
                     ugv_transfer_power_w=20000.0), 1, SCHEME_OURS),
        (cfg.replace(uav_count=2, ugv_count=6, window_len=4.0), 2, SCHEME_STATIC),
        (cfg.replace(uav_count=9, ugv_count=4, uav_soc_frac_max=0.6), 3, SCHEME_STATIC),
        (cfg.replace(uav_count=3, ugv_count=8, uav_soc_frac_max=0.6), 4, SCHEME_OURS),
        # every pad past the floor distance: all q tie at qors_floor
        (cfg.replace(uav_count=4, ugv_count=6, ugv_distance_min=2400.0), 5, SCHEME_STATIC),
    ]
    horizon = 120

    def worlds():
        return [generate_scenario(c, seed, scheme) for c, seed, scheme in cells]

    trades_per_boundary = []
    real_boundary = simulator._close_boundary

    def counting_boundary(*args):
        masks = real_boundary(*args)
        trades_per_boundary.append(int(masks.trading.sum()))
        return masks

    monkeypatch.setattr(simulator, "_close_boundary", counting_boundary)
    stacked, alone = worlds(), worlds()
    got = run_worlds(stacked, horizon, with_audit=True, keep_outcomes=True)
    cols = simulator._run_columns(worlds(), horizon, True, True)
    want = [run_world_windowwise(w, horizon, with_audit=True, keep_outcomes=True)
            for w in alone]
    # repr, not ==: an int 0 where the oracle writes 0.0 changes the CSVs
    assert repr(got) == repr(want)
    for a, b in zip(stacked, alone):
        for name in simulator._UAV_ARRAYS + simulator._UGV_ARRAYS:
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
    assert max(trades_per_boundary) >= 3
    assert any(kept.vehicles for kept in cols.outcomes)  # some window traded
    text = csv_writer_text([(w.scheme, w.seed, *r) for w, (_, outcomes, _) in zip(worlds(), want)
                            for o in outcomes for r in outcome_rows(o)])
    assert "".join(cols.outcome_text()) == text
    traded = [o for _, outcomes, _ in want for o in outcomes if o.winners]
    assert any(len({m.bid for m in o.winners}) < len(o.winners) for o in traded)  # ties
    assert any(len({m.q for m in o.winners}) < len(o.winners) for o in traded)
    assert any(o.losers for o in traded)  # more bidders than vehicles
    assert any(len(o.ugv_utilities) > len(o.uav_utilities) for o in traded)
    assert all(any(o.winners for o in outcomes) for _, outcomes, _ in want)


def test_block_bookkeeping_matches_slot_by_slot_runs():
    # one stack whose worlds close windows every 5, 8 and 37 slots (more
    # than _run_lockstep buffers, so some blocks are booked on a full
    # buffer), over a horizon that is a multiple of none (the last slots
    # are booked after the loop), with losers excluded after 1, 2 or 40
    # failed windows: rows, outcomes and every world's bookkeeping match
    # the slot-by-slot oracle bit for bit
    assert 37 > simulator._BOOK_SLOTS
    cfg = ScenarioConfig(uav_count=12, uav_soc_frac_min=0.1, uav_soc_frac_max=0.45,
                         ugv_transfer_power_w=6000.0)
    cells = [cfg.replace(window_len=5.0, max_failed_windows=2),
             cfg.replace(slot_len=0.5, window_len=4.0, max_failed_windows=40),
             cfg.replace(window_len=37.0, max_failed_windows=1)]
    horizon = 123

    def worlds():
        return [generate_scenario(c.replace(ugv_count=m), seed, scheme)
                for c in cells for m, seed, scheme in ((2, 3, SCHEME_OURS), (3, 4, SCHEME_STATIC))]

    stacked, alone = worlds(), worlds()
    assert sorted({w.config.slots_per_window for w in stacked}) == [5, 8, 37]
    got = run_worlds(stacked, horizon, keep_outcomes=True)
    want = [run_world_windowwise(w, horizon, keep_outcomes=True) for w in alone]
    # repr, not ==: an int 0 where the oracle writes 0.0 changes the CSVs
    assert repr(got) == repr(want)
    for a, b in zip(stacked, alone):
        for name in ("bidder", "excluded", "fail_count", "phi_sum", "rho_sum",
                     "sample_count"):
            # bytes, not ==: a sum at -0.0 would equal one at +0.0
            assert getattr(a, name).tobytes() == getattr(b, name).tobytes(), name
        assert a.clock == b.clock == horizon
    # exclusions, winners, and bidders with samples pending at the horizon
    assert any(w.excluded.any() for w in alone)
    assert any(o.winners for _, outcomes, _ in want for o in outcomes)
    assert any((w.bidder & (w.sample_count > 0)).any() for w in alone)


def test_agent_arrays_stay_column_contiguous():
    # the numpy kernel gathers one column at a time; on a row-major array
    # it would still step correctly, only several times slower
    names = ("uav_f", "uav_i", "ugv_f", "ugv_i")
    worlds = [generate_scenario(ScenarioConfig(ugv_count=m), 3, scheme)
              for m, scheme in ((4, SCHEME_OURS), (7, SCHEME_STATIC))]
    for w in worlds:
        for name in names:
            assert getattr(w, name).flags.f_contiguous, name
    stack = simulator._stack(worlds)
    for name in names:
        assert getattr(stack, name).flags.f_contiguous, name
        for w in worlds:
            view = getattr(w, name)
            assert view.base is not None, name
            for col in view.T:
                assert col.flags.c_contiguous, name
    simulator._unstack(worlds)
    for w in worlds:
        for name in names:
            arr = getattr(w, name)
            assert arr.base is None and arr.flags.f_contiguous, name


def test_only_windows_with_a_bidder_build_a_market(monkeypatch):
    # the sweep of perfbench's fleet_sweep call 0 (10 worlds, J = 6..14, all
    # schemes, seed 7000): only windows with a sampled bidder and an
    # admitted vehicle are cleared (the sweep builds no market object for
    # them unless it audits), and no vehicle is scored outside one: each
    # cleared window scores exactly its admitted vehicles
    cfg = ScenarioConfig()
    sweep = {"ugv_count": [6, 8, 10, 12, 14]}
    traded = 0
    for m in sweep["ugv_count"]:
        for scheme in (SCHEME_OURS, SCHEME_STATIC):
            world = generate_scenario(cfg.replace(ugv_count=m), 7000, scheme)
            _, outcomes, _ = run_world_windowwise(world, cfg.horizon_slots,
                                                  keep_outcomes=True)
            traded += sum(1 for o in outcomes if o.winners)

    real_boundary = simulator._close_boundary
    real_clear, real_qors = simulator._clear_window, simulator.World.qors
    trading = [0]  # trading windows, by _close_boundary's masks
    offered = [0]  # their admitted vehicles, by the same masks
    cleared = []  # per _clear_window call: its winners
    depth = [0]  # _clear_window calls in progress
    scored_inside = []  # per vehicle scored by World.qors: was it inside _clear_window?

    def counting_boundary(stack, worlds, ks, entry, cols, layout):
        masks = real_boundary(stack, worlds, ks, entry, cols, layout)
        trading[0] += int(masks.trading.sum())
        offered[0] += int((masks.admitted & np.isin(layout.ugv_world,
                                                    ks[masks.trading])).sum())
        return masks

    def counting_clear(*args):
        depth[0] += 1
        trade, row, qs = real_clear(*args)
        depth[0] -= 1
        cleared.append(row.winners)
        return trade, row, qs

    def counting_qors(self, ugvs):
        scored_inside.extend([depth[0] > 0] * len(ugvs))
        return real_qors(self, ugvs)

    monkeypatch.setattr(simulator, "_close_boundary", counting_boundary)
    monkeypatch.setattr(simulator, "_clear_window", counting_clear)
    monkeypatch.setattr(simulator.World, "qors", counting_qors)
    res = run_experiment(cfg, sweep, replications=1, schemes=ALL_SCHEMES, base_seed=7000)
    assert len(res.rows) == 15 * 75
    assert len(cleared) == trading[0] == traded and 0 < traded < 10 * 75 // 2
    assert all(cleared)
    assert len(scored_inside) == offered[0] and all(scored_inside)


def test_run_experiment_groups_worlds_by_slot_constants():
    # worlds whose advance_slot constants or horizons differ cannot share
    # one stack's config; each must still match its run alone, outcomes
    # and audit reports included
    cfg = ScenarioConfig(uav_soc_frac_min=0.3, uav_soc_frac_max=0.6)
    sweep = {"enter_urgency": [0.55, 0.7], "mu1": [5.0, 2.0], "horizon_slots": [16, 24]}
    kw = dict(with_audit=True, keep_outcomes=True)
    res = run_experiment(cfg, sweep, replications=2, schemes=("ours", "static"),
                         base_seed=1, **kw)
    rows, outcomes, audits = [], [], []
    for u, mu1, h in itertools.product(*sweep.values()):
        cell = cfg.replace(enter_urgency=u, mu1=mu1, horizon_slots=h)
        for seed in (1, 2):
            for scheme in ("ours", "static"):
                r, outs, reps = run_world(generate_scenario(cell, seed, scheme), **kw)
                rows += r
                outcomes += [(scheme, seed, o) for o in outs]
                audits += reps
    assert res.rows == rows
    assert res.outcomes == outcomes
    assert res.audits == audits


def test_run_worlds_keeps_outcomes_with_their_world_across_stacks():
    # worlds with different advance_slot constants or horizons step in
    # separate stacks; each world's outcomes and audit reports must still
    # be its own
    cfg = ScenarioConfig(uav_soc_frac_min=0.3, uav_soc_frac_max=0.6)
    cells = [cfg, cfg.replace(mu1=2.0), cfg.replace(enter_urgency=0.55),
             cfg.replace(horizon_slots=16)]
    kw = dict(with_audit=True, keep_outcomes=True)

    def worlds():
        return [generate_scenario(c, seed, scheme)
                for c in cells for seed in (1, 2) for scheme in ("ours", "static")]

    together = run_worlds(worlds(), **kw)
    assert together == [run_world(w, **kw) for w in worlds()]
    assert all(outcomes for _, outcomes, _ in together)


def test_run_worlds_rejects_worlds_at_different_clocks():
    a, b = generate_scenario(ScenarioConfig(), 0), generate_scenario(ScenarioConfig(), 1)
    advance_slot(b)
    with pytest.raises(ValueError, match="same clock"):
        run_worlds([a, b], horizon_slots=8)


def test_worlds_starting_below_the_alert_level_run_to_the_horizon():
    # a config validate() accepts, with UAVs that start below their alert
    # level and bid at once with urgency pinned to 1
    cfg = ScenarioConfig(uav_soc_frac_min=0.05, uav_soc_frac_max=0.3)
    cap = cfg.uav_capacity_wh
    for scheme in ALL_SCHEMES:
        world = generate_scenario(cfg, seed=0, scheme=scheme)
        assert (world.uav_f[:, K.F_SOC] < world.soc_alert).any()
        rows = []
        for _ in range(cfg.horizon_slots):
            advance_slot(world)
            if world.clock % cfg.slots_per_window == 0:
                rows.append(close_window(world)[1])
            soc = world.uav_f[:, K.F_SOC]
            assert np.all(soc >= 0.0) and np.all(soc <= cap), scheme
        assert len(rows) == 75, scheme
        assert sum(r.winners for r in rows) > 0, scheme


def test_close_window_rejects_a_bidder_soc_beyond_capacity(monkeypatch):
    # raised inside _close_boundary, with the scalar loop's message
    clocks = []  # per _close_boundary call: its clock
    real_boundary = simulator._close_boundary

    def spy(stack, worlds, ks, entry, cols, layout):
        clocks.append(stack.clock)
        return real_boundary(stack, worlds, ks, entry, cols, layout)

    monkeypatch.setattr(simulator, "_close_boundary", spy)
    cfg = ScenarioConfig(uav_soc_frac_min=0.3, uav_soc_frac_max=0.5)
    world, twin = generate_scenario(cfg, seed=2), generate_scenario(cfg, seed=2)
    for _ in range(cfg.slots_per_window):
        advance_slot(world)
        advance_slot(twin)
    i = int(np.flatnonzero(world.bidder)[0])
    for w in (world, twin):
        w.uav_f[i, K.F_SOC] = w.uav_f[i, K.F_CAP] + 1.0
    with pytest.raises(ValueError, match="capacity") as got:
        close_window(world)
    with pytest.raises(ValueError) as want:
        close_window_loop(twin)
    assert str(got.value) == str(want.value) == "window 1: a bidder's SoC left [0, capacity]"
    assert clocks == [cfg.slots_per_window]


def test_close_window_clears_only_a_world_of_its_own():
    # a member of a stack holds stack-global partner indices, which only
    # its stack's boundary clears; close_window refuses it
    worlds = [generate_scenario(ScenarioConfig(), seed) for seed in (1, 2)]
    stack = simulator._stack(worlds)
    for _ in range(stack.config.slots_per_window):
        advance_slot(stack)
    worlds[1].clock = stack.clock
    with pytest.raises(ValueError, match="not a member of a stack"):
        close_window(worlds[1])


def test_close_window_matches_the_scalar_loop():
    # close_window, the one-world call of _close_boundary, against the
    # scalar close_window_loop on a twin world at every window, on the
    # default world, a crowded one (100 UAVs against 25 vehicles from SoC
    # 0.3-0.6) and a small one whose losers leave after two failed 4-slot
    # windows, both schemes and four seeds each: the outcome and row by
    # repr (an int 0 where the loop writes 0.0 would change the CSVs),
    # and every agent and bookkeeping array by bytes
    configs = (
        ScenarioConfig(),
        ScenarioConfig(uav_count=100, ugv_count=25, uav_soc_frac_min=0.3,
                       uav_soc_frac_max=0.6),
        ScenarioConfig(uav_count=30, ugv_count=4, max_failed_windows=2, window_len=4.0),
    )
    horizon = 240
    kinds = set()  # (a trade, some loser) per window
    windows = excluded = 0
    for cfg, scheme, seed in itertools.product(configs, (SCHEME_OURS, SCHEME_STATIC),
                                               range(4)):
        world, twin = generate_scenario(cfg, seed, scheme), generate_scenario(cfg, seed, scheme)
        for _ in range(horizon // cfg.slots_per_window):
            for _ in range(cfg.slots_per_window):
                advance_slot(world)
                advance_slot(twin)
            got = close_window(world)
            assert repr(got) == repr(close_window_loop(twin)[:2])
            for name in simulator._UAV_ARRAYS + simulator._UGV_ARRAYS:
                assert getattr(world, name).tobytes() == getattr(twin, name).tobytes(), name
            kinds.add((bool(got[0].winners), bool(got[0].losers)))
            windows += 1
        excluded += int(world.excluded.sum())
    assert windows == 8 * (30 + 30 + 60)
    assert kinds == {(True, True), (True, False), (False, True), (False, False)}
    assert excluded > 0


def test_close_window_returns_the_market_its_outcome_clears():
    # the market close_window_loop returns, which the oracle of an audited
    # sweep audits, re-clears to the returned outcome, in windows with a
    # trade, with bidders and no trade, and with no bidder
    cfg = ScenarioConfig(uav_count=100, uav_soc_frac_min=0.3, uav_soc_frac_max=0.6,
                         max_failed_windows=3, horizon_slots=240)
    kinds = set()
    for m, scheme in itertools.product((5, 25), (SCHEME_OURS, SCHEME_STATIC)):
        world = generate_scenario(cfg.replace(ugv_count=m), seed=5, scheme=scheme)
        for _ in range(cfg.horizon_slots):
            advance_slot(world)
            if world.clock % cfg.slots_per_window == 0:
                outcome, row, market = close_window_loop(world)
                assert run_auction(market) == outcome
                assert market.window_id == outcome.window_id == row.window
                kinds.add((scheme, bool(outcome.winners), bool(market.demand)))
    assert kinds == {(s, w, d) for s in (SCHEME_OURS, SCHEME_STATIC)
                     for w, d in [(True, True), (False, True), (False, False)]}


def _snapshot_market(world):
    """The pending window's market, built from validated per-agent snapshots."""
    demand, gaps = [], []
    for i in np.flatnonzero(world.bidder & (world.sample_count > 0)).tolist():
        state = world.uav_state(i)
        phi = float(world.phi_sum[i] / world.sample_count[i])
        demand.append(DemandEntry(state.id, phi, phi))
        gaps.append(state.soc_satisfactory - state.soc)
    idle = np.flatnonzero(world.ugv_i[:, K.GI_STATE] == K.UGV_IDLE).tolist()
    ugvs = [world.ugv_state(j, q) for j, q in zip(idle, world.qors(idle))]
    supply = [
        SupplyEntry(u.id, u.qors)
        for u in ugvs
        if u.qors > 0 and u.supply_remaining >= max(gaps, default=0.0)
    ]
    window_id = world.clock // world.config.slots_per_window
    return WindowMarket(window_id=window_id, demand=demand, supply=supply)


def test_close_window_builds_the_snapshot_market(monkeypatch):
    # the market close_window_loop hands to admit equals the one rebuilt
    # from validated snapshots, at every window where each bidder is above
    # its alert level (below it, UavState rejects the snapshot)
    real_admit = conftest.admit
    captured = []

    def spy(*args):
        captured.append(real_admit(*args))
        return captured[-1]

    monkeypatch.setattr(conftest, "admit", spy)
    cfg = ScenarioConfig(uav_count=100, ugv_count=25,
                         uav_soc_frac_min=0.3, uav_soc_frac_max=0.6)
    compared = bidders = admitted = dropped = 0
    for scheme in (SCHEME_OURS, SCHEME_STATIC):
        world = generate_scenario(cfg, seed=3, scheme=scheme)
        # stocks of 20-116 Wh straddle the bidders' largest gaps (about
        # 60 Wh), so the supply rule admits some vehicles and drops others
        world.ugv_f[:, K.G_SUPPLY] = 20.0 + 4.0 * np.arange(cfg.ugv_count)
        for _ in range(30):
            for _ in range(cfg.slots_per_window):
                advance_slot(world)
            queued = world.bidder & (world.sample_count > 0)
            above_alert = np.all(world.uav_f[queued, K.F_SOC] >= world.soc_alert[queued])
            expected = _snapshot_market(world) if above_alert else None
            idle = int((world.ugv_i[:, K.GI_STATE] == K.UGV_IDLE).sum())
            close_window_loop(world)
            if expected is not None:
                assert captured[-1] == expected
                # the ranked views, against sort keys written out here
                assert captured[-1].demand_ranked == tuple(
                    sorted(expected.demand, key=lambda e: (-e.bid, e.uav_id))
                )
                assert captured[-1].supply_ranked == tuple(
                    sorted(expected.supply, key=lambda e: (-e.q, e.ugv_id))
                )
                compared += 1
                bidders += expected.num_uavs
                admitted += expected.num_ugvs
                dropped += idle - expected.num_ugvs
    assert compared >= 40 and bidders >= 40 * 50 and admitted > 0 and dropped > 0
