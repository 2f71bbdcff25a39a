"""Auction clearing: worked instances, payment identities, core properties."""

import pytest

from skymarket.audit import random_market
from skymarket.mechanism import (
    DemandEntry,
    SupplyEntry,
    WindowMarket,
    admit,
    run_auction,
    with_replaced_bid,
)

from conftest import (
    csv_writer_text,
    naive_best_assignment,
    outcome_lines,
    outcome_rows,
    payment_closed_form,
    payment_unrolled,
)

# satisfactory level 87.822 Wh minus a SoC of 40 Wh
GAP = 87.822 - 40.0


def test_admit_sorts_both_sides():
    demand = [DemandEntry(0, 2.0, 2.0), DemandEntry(1, 4.0, 4.0), DemandEntry(2, 1.0, 1.0)]
    offers = [(0, 0.5, 3000.0), (1, 0.9, 3000.0)]
    market = admit(demand, offers, 1, [GAP] * 3)
    assert [e.bid for e in market.demand_ranked] == [4.0, 2.0, 1.0]
    assert [s.q for s in market.supply_ranked] == [0.9, 0.5]
    assert min(market.num_uavs, market.num_ugvs) == 2


def test_admit_empty_supply_gives_empty_market():
    market = admit([DemandEntry(0, 2.0, 2.0)], [], 1, [GAP])
    assert market.is_empty
    outcome = run_auction(market)
    assert outcome.num_winners == 0 and outcome.losers == (0,)


def test_admit_filters_insufficient_supply():
    # the largest gap is 47.822 Wh; the 10 Wh vehicle must be dropped
    offers = [(0, 0.9, 10.0), (1, 0.5, 3000.0)]
    market = admit([DemandEntry(0, 2.0, 2.0)], offers, 1, [GAP])
    assert [s.ugv_id for s in market.supply] == [1]
    demand = [DemandEntry(0, 2.0, 2.0), DemandEntry(1, 3.0, 3.0)]
    market = admit(demand, offers, 1, [5.0, GAP])
    assert [s.ugv_id for s in market.supply] == [1]


def test_equal_bids_break_ties_by_id():
    market = WindowMarket.from_values([3.0, 3.0], [3.0, 3.0], [0.9, 0.5])
    m2 = WindowMarket.from_values([3.0, 3.0], [3.0, 3.0], [0.9, 0.5])
    assert run_auction(market).winners == run_auction(m2).winners
    assert run_auction(market).winners[0].uav_id == 0  # lower id wins the better pad


def test_ties_rank_by_id_ascending_on_both_sides():
    # equal bids and equal q, listed out of id order
    demand = [DemandEntry(7, 1.0, 2.0), DemandEntry(3, 1.0, 5.0),
              DemandEntry(5, 1.0, 2.0), DemandEntry(1, 1.0, 2.0)]
    supply = [SupplyEntry(9, 0.4), SupplyEntry(4, 0.8), SupplyEntry(6, 0.4), SupplyEntry(2, 0.4)]
    market = WindowMarket(0, demand, supply)
    assert market.demand_ranked == tuple(sorted(demand, key=lambda e: (-e.bid, e.uav_id)))
    assert market.supply_ranked == tuple(sorted(supply, key=lambda e: (-e.q, e.ugv_id)))
    assert [e.uav_id for e in market.demand_ranked] == [3, 1, 5, 7]
    assert [s.ugv_id for s in market.supply_ranked] == [4, 2, 6, 9]
    # the sides keep the order they were given in
    assert market.demand == tuple(demand) and market.supply == tuple(supply)
    pairs = [(m.uav_id, m.ugv_id) for m in run_auction(market).winners]
    assert pairs == [(3, 4), (1, 2), (5, 6), (7, 9)]


def test_window_market_rejects_nonpositive_q():
    for q in (0.0, -0.5):
        with pytest.raises(ValueError, match="q > 0"):
            WindowMarket(0, [DemandEntry(0, 2.0, 2.0)], [SupplyEntry(0, 0.9), SupplyEntry(1, q)])


def test_with_replaced_bid_rejects_negative_bid_and_unknown_uav():
    market = WindowMarket.from_values([4.0, 2.0], [4.0, 2.0], [0.9, 0.5])
    with pytest.raises(ValueError, match=">= 0"):
        with_replaced_bid(market, 0, -0.1)
    with pytest.raises(ValueError, match="not in market"):
        with_replaced_bid(market, 2, 1.0)
    assert with_replaced_bid(market, 1, 0.0).demand[1] == DemandEntry(1, 2.0, 0.0)


def test_allocate_assortative_3x2():
    market = WindowMarket.from_values([4.0, 2.0, 1.0], [4.0, 2.0, 1.0], [0.5, 0.9])
    outcome = run_auction(market)
    assert [(m.bid, m.q) for m in outcome.winners] == [(4.0, 0.9), (2.0, 0.5)]
    assert outcome.losers == (2,)


def test_allocate_single_pair():
    market = WindowMarket.from_values([0.5], [0.5], [0.1])
    assert len(run_auction(market).winners) == 1


def test_price_balanced_market():
    # I = J = 2: last winner pays zero, first pays the q-gap times b2
    market = WindowMarket.from_values([4.0, 2.0], [4.0, 2.0], [0.9, 0.5])
    pay = run_auction(market).payments
    assert pay == pytest.approx((0.8, 0.0), abs=1e-12)


def test_price_excess_demand():
    market = WindowMarket.from_values([4.0, 2.0, 1.0], [4.0, 2.0, 1.0], [0.9, 0.5])
    pay = run_auction(market).payments
    # base: q_2 * b_3 = 0.5; rank 1: (0.9-0.5)*2 + 0.5
    assert pay == pytest.approx((1.3, 0.5), abs=1e-12)


def test_price_equal_qualities_telescope_to_base():
    market = WindowMarket.from_values([4.0, 3.0, 2.0], [4.0, 3.0, 2.0], [0.7, 0.7, 0.7])
    pay = run_auction(market).payments
    assert pay == (0.0, 0.0, 0.0)


def test_payment_recursive_equals_unrolled_and_closed_form(rng):
    for _ in range(300):
        n_uavs = int(rng.integers(1, 9))
        n_ugvs = int(rng.integers(1, 9))
        market = random_market(rng, n_uavs, n_ugvs)
        outcome = run_auction(market)
        allocation, pay = outcome.winners, outcome.payments
        for j in range(1, len(allocation) + 1):
            assert pay[j - 1] == pytest.approx(
                payment_unrolled(market, allocation, j), abs=1e-12
            )
            if n_ugvs >= n_uavs:
                assert pay[j - 1] == pytest.approx(
                    payment_closed_form(allocation, j), abs=1e-12
                )


def test_closed_form_offset_is_exactly_the_base_term_under_excess_demand(rng):
    # with more bidders than pads, every rank's recursive payment sits
    # above the boundary-free closed form by exactly q_J * (best loser bid)
    for _ in range(100):
        n_ugvs = int(rng.integers(1, 7))
        n_uavs = int(rng.integers(n_ugvs + 1, n_ugvs + 5))
        market = random_market(rng, n_uavs, n_ugvs)
        outcome = run_auction(market)
        allocation, pay = outcome.winners, outcome.payments
        base = market.supply_ranked[-1].q * market.demand_ranked[n_ugvs].bid
        for j in range(1, len(allocation) + 1):
            offset = pay[j - 1] - payment_closed_form(allocation, j)
            assert offset == pytest.approx(base, abs=1e-12)


def test_utilities_and_surplus_2x2():
    market = WindowMarket.from_values([4.0, 2.0], [4.0, 2.0], [0.9, 0.5])
    outcome = run_auction(market)
    assert outcome.uav_utilities[0] == pytest.approx(0.9 * 4 - 0.8, abs=1e-12)  # 2.8
    assert outcome.uav_utilities[1] == pytest.approx(0.5 * 2 - 0.0, abs=1e-12)  # 1.0
    assert outcome.social_surplus == pytest.approx(4.6, abs=1e-12)
    assert outcome.ugv_utilities[0] == pytest.approx(0.8, abs=1e-12)


def test_loser_and_matched_ugv_settlement():
    market = WindowMarket.from_values([4.0, 2.0, 1.0], [4.0, 2.0, 1.0], [0.9, 0.5])
    outcome = run_auction(market)
    assert outcome.uav_utilities[2] == 0.0
    assert outcome.ugv_utilities[0] == pytest.approx(1.3, abs=1e-12)


def test_surplus_equals_total_utilities(rng):
    for _ in range(200):
        market = random_market(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        outcome = run_auction(market)
        total = sum(outcome.uav_utilities.values()) + sum(outcome.ugv_utilities.values())
        assert outcome.social_surplus == pytest.approx(total, abs=1e-9)


def test_truthful_1x1_pays_nothing():
    market = WindowMarket.from_values([5.0], [5.0], [1.0])
    outcome = run_auction(market)
    assert outcome.payments == (0.0,)
    assert outcome.uav_utilities[0] == pytest.approx(5.0, abs=1e-12)


def test_empty_market_outcome():
    market = WindowMarket.from_values([], [], [])
    outcome = run_auction(market)
    assert outcome.num_winners == 0 and outcome.social_surplus == 0.0


def test_allocation_matches_bruteforce_welfare(rng):
    # truthful bids: the assortative pick must hit the enumerated optimum
    for _ in range(120):
        n_uavs = int(rng.integers(1, 6))
        n_ugvs = int(rng.integers(1, 6))
        market = random_market(rng, n_uavs, n_ugvs)
        outcome = run_auction(market)
        phis = [e.phi_bar for e in market.demand]
        qs = [s.q for s in market.supply]
        assert outcome.social_surplus == pytest.approx(
            naive_best_assignment(phis, qs), abs=1e-9
        )


def test_identical_markets_identical_outcomes(rng):
    market = random_market(rng, 6, 4)
    a = run_auction(market)
    b = run_auction(market)
    assert a == b


def test_raising_top_bid_never_changes_allocation(rng):
    for _ in range(50):
        market = random_market(rng, int(rng.integers(2, 8)), int(rng.integers(1, 8)))
        base = run_auction(market).winners
        top = market.demand_ranked[0]
        bumped = run_auction(with_replaced_bid(market, top.uav_id, top.bid * 3.0)).winners
        assert [(m.uav_id, m.ugv_id) for m in bumped] == [(m.uav_id, m.ugv_id) for m in base]


def test_raising_losing_bid_above_cutoff_wins(rng):
    for _ in range(50):
        n_uavs = int(rng.integers(2, 8))
        n_ugvs = int(rng.integers(1, n_uavs))
        market = random_market(rng, n_uavs, n_ugvs)
        outcome = run_auction(market)
        if not outcome.losers:
            continue
        loser = outcome.losers[-1]
        cutoff = outcome.winners[-1].bid
        raised = with_replaced_bid(market, loser, cutoff * 1.01)
        new_winners = {m.uav_id for m in run_auction(raised).winners}
        assert loser in new_winners


def test_outcome_lines_schema():
    market = WindowMarket.from_values([4.0, 2.0, 1.0], [4.0, 2.0, 1.0], [0.9, 0.5], window_id=3)
    lines = outcome_lines(run_auction(market))
    assert len(lines) == 3
    win = lines[0].rstrip("\n").split(",")
    assert len(win) == 8
    assert win[0] == "3" and win[1] == "0" and win[7] == "1"  # window id, uav id, rank
    assert lines[-1] == "3,2,,,,0.0,0.0,\n"  # the loser


def test_outcome_lines_are_what_csv_writer_writes(rng):
    # random markets with bids and quality scores rounded, so equal bids
    # and equal q (ranked by id) are common, including empty sides
    ties = 0
    for window_id in range(120):
        drawn = random_market(rng, int(rng.integers(0, 9)), int(rng.integers(0, 9)),
                              truthful=False)
        market = WindowMarket.from_values(
            [e.phi_bar for e in drawn.demand], [round(e.bid) for e in drawn.demand],
            [max(round(s.q, 1), 0.1) for s in drawn.supply], window_id=window_id)
        bids = [e.bid for e in market.demand]
        ties += len(set(bids)) < len(bids)
        outcome = run_auction(market)
        assert "".join(outcome_lines(outcome)) == csv_writer_text(outcome_rows(outcome))
    assert ties > 20


def test_outcome_lines_write_exponent_floats_as_csv_writer_does():
    market = WindowMarket.from_values([1e-07, 1e+17, 2.0], [1e-07, 1e+17, 2.0], [1e-07, 0.5],
                                      window_id=10**6)
    outcome = run_auction(market)
    text = "".join(outcome_lines(outcome))
    assert text == csv_writer_text(outcome_rows(outcome))
    assert "1e+17" in text and "1e-07" in text and "e-15" in text


def test_outcome_with_no_participants_has_no_lines():
    outcome = run_auction(WindowMarket.from_values([], [], [0.5, 0.9], window_id=4))
    assert outcome_lines(outcome) == [] == outcome_rows(outcome)


def test_beta_matrix_row_col_sums(rng):
    for _ in range(60):
        market = random_market(rng, int(rng.integers(1, 9)), int(rng.integers(1, 9)))
        outcome = run_auction(market)
        # the allocation matrix beta has row and column sums <= 1: no UAV
        # and no vehicle is matched twice
        uav_ids = [m.uav_id for m in outcome.winners]
        ugv_ids = [m.ugv_id for m in outcome.winners]
        assert len(set(uav_ids)) == len(uav_ids) == outcome.num_winners
        assert len(set(ugv_ids)) == len(ugv_ids) == outcome.num_winners
        assert set(uav_ids) <= {e.uav_id for e in market.demand}
        assert set(ugv_ids) <= {s.ugv_id for s in market.supply}
