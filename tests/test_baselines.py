"""Comparison schemes: the welfare planner against exact oracles, static pads."""

import pytest

import skymarket._kernels as K
from skymarket.audit import random_market
from skymarket.baselines import best_assignment, optimal_scheme_outcome
from skymarket.mechanism import WindowMarket, run_auction
from skymarket.simulator import SCHEME_OURS, SCHEME_STATIC, generate_scenario, run_world
from skymarket.types import ScenarioConfig
from skymarket.valuation import qors_from_distance

from conftest import naive_best_assignment

SPOT = (2500.0, 2500.0)  # the default config's sensing spot


def test_best_assignment_matches_naive_enumeration(rng):
    for _ in range(150):
        n_small = int(rng.integers(1, 6))
        n_large = int(rng.integers(n_small, 7))
        small = sorted(rng.uniform(0.5, 6.0, size=n_small).tolist(), reverse=True)
        large = rng.uniform(0.05, 1.0, size=n_large).tolist()
        score, assign = best_assignment(small, large)
        assert score == pytest.approx(naive_best_assignment(small, large), abs=1e-9)
        # returned pairing must reproduce the claimed score
        assert score == pytest.approx(
            sum(small[t] * large[assign[t]] for t in range(n_small)), abs=1e-12
        )
        assert len(set(assign)) == n_small


def test_exhaustive_optimal_2x2_reference():
    market = WindowMarket.from_values([4.0, 2.0], [4.0, 2.0], [0.9, 0.5])
    outcome = optimal_scheme_outcome(market)
    assert outcome.social_surplus == pytest.approx(4.6, abs=1e-12)  # vs anti-sorted 3.8


def test_exhaustive_optimal_1x1():
    market = WindowMarket.from_values([3.0], [3.0], [0.2])
    outcome = optimal_scheme_outcome(market)
    assert outcome.num_winners == 1


def test_exhaustive_optimal_equals_auction_surplus_under_truth(rng):
    # under truthful bids the planner is the auction, outcome for outcome
    for _ in range(120):
        market = random_market(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        ours = run_auction(market)
        opt = optimal_scheme_outcome(market)
        assert opt == ours


def test_exhaustive_optimal_with_tied_valuations(rng):
    market = WindowMarket.from_values([3.0, 3.0, 1.0], [3.0, 3.0, 1.0], [0.8, 0.6])
    opt = optimal_scheme_outcome(market)
    ours = run_auction(market)
    assert opt.social_surplus == pytest.approx(ours.social_surplus, abs=1e-12)


def test_exhaustive_optimal_uses_valuations_not_bids():
    # shaded bids invert the bid order; the planner must still match by value
    market = WindowMarket.from_values([4.0, 2.0], [1.0, 1.9], [0.9, 0.5])
    opt = optimal_scheme_outcome(market)
    pairs = {(m.uav_id, m.q) for m in opt.winners}
    assert (0, 0.9) in pairs  # value 4.0 takes the best pad despite bidding 1.0
    assert opt.social_surplus == pytest.approx(0.9 * 4 + 0.5 * 2, abs=1e-12)


def test_optimal_scheme_outcome_matches_best_assignment_at_8_to_12_agents(rng):
    # sizes where raw enumeration is too slow; bids are shaded at random,
    # so the surplus must come from matching valuations, not bids
    for _ in range(40):
        n_uavs, n_ugvs = int(rng.integers(8, 13)), int(rng.integers(8, 13))
        market = random_market(rng, n_uavs, n_ugvs, truthful=False)
        phis = sorted((e.phi_bar for e in market.demand), reverse=True)
        qs = sorted((s.q for s in market.supply), reverse=True)
        small, large = (phis, qs) if n_uavs <= n_ugvs else (qs, phis)
        score, _ = best_assignment(small, large)
        assert optimal_scheme_outcome(market).social_surplus == pytest.approx(score, abs=1e-9)


def _paired_worlds(cfg, seed=0):
    """An auction world and its static-pad twin: same draws, pads pinned."""
    return (generate_scenario(cfg, seed, SCHEME_OURS),
            generate_scenario(cfg, seed, SCHEME_STATIC))


def _place_pad(world, j, x, y):
    world.ugv_f[j, K.G_X] = x
    world.ugv_f[j, K.G_Y] = y


def test_static_pad_qors_geometry():
    _, static = _paired_worlds(ScenarioConfig())
    _place_pad(static, 0, *SPOT)
    assert static.ugv_qors(0) == 1.0  # pad at the spot
    _place_pad(static, 0, 2500.0, 1250.0)
    assert static.ugv_qors(0) == pytest.approx(0.5, abs=1e-12)
    # beyond the reference distance the score saturates at the floor
    _place_pad(static, 0, 2500.0, 9000.0)
    assert static.ugv_qors(0) == 0.05


def test_static_scores_never_beat_mobile_scores(rng):
    mobile, static = _paired_worlds(ScenarioConfig())
    for _ in range(100):
        d = float(rng.uniform(0.0, 6000.0))
        for world in (mobile, static):
            _place_pad(world, 0, SPOT[0] + d, SPOT[1])
        # a mobile vehicle meets its UAV halfway, a pad at the pad
        assert static.ugv_qors(0) == pytest.approx(
            qors_from_distance(min(d, 2500.0), 2500.0), abs=1e-12)
        assert mobile.ugv_qors(0) == pytest.approx(
            qors_from_distance(min(d / 2.0, 2500.0), 2500.0), abs=1e-12)
        assert static.ugv_qors(0) <= mobile.ugv_qors(0) + 1e-12


def test_static_wpt_round_runs_same_mechanism():
    cfg = ScenarioConfig(uav_count=2, ugv_count=2, uav_soc_frac_min=0.3, uav_soc_frac_max=0.5)
    outcomes = []
    for world in _paired_worlds(cfg, seed=4):
        _place_pad(world, 0, 2500.0, 3000.0)  # 500 m out
        _place_pad(world, 1, 2500.0, 4500.0)  # 2 km out
        _, outs, _ = run_world(world, horizon_slots=cfg.slots_per_window, keep_outcomes=True)
        outcomes.append(outs[0])
    mobile, static = outcomes
    assert static.num_winners == mobile.num_winners == 2
    # same ranking and matching; only the scores differ: a static pad is
    # scored by the full flight (0.8, 0.2), a vehicle by half of it (0.9, 0.6)
    assert [(m.uav_id, m.ugv_id) for m in static.winners] == \
           [(m.uav_id, m.ugv_id) for m in mobile.winners]
    top, second = static.winners
    assert top.ugv_id == 0 and top.bid > second.bid
    assert (top.q, second.q) == pytest.approx((0.8, 0.2), abs=1e-12)
    assert (mobile.winners[0].q, mobile.winners[1].q) == pytest.approx((0.9, 0.6), abs=1e-12)
    # supply covers demand: the auction's rule charges the top winner
    # (q_1 - q_2) * b_2 and lets the last one go free
    assert static.payments == pytest.approx(((0.8 - 0.2) * second.bid, 0.0), abs=1e-12)
