"""Fairness probes: positive checks on clean outcomes, detector sanity on rigged ones."""

import numpy as np
import pytest
from conftest import (
    audit_fields, audit_report_row, audit_suite_draw, check_ir, replay_deviation_probe,
    truthful_draws,
)

import skymarket.audit as audit
from skymarket.audit import (
    UTILITY_TOL,
    audit_market,
    check_stability,
    deviation_grid,
    deviation_probe,
    non_envy_ratio,
    random_market,
)
from skymarket.mechanism import WindowMarket, run_auction, with_replaced_bid
from skymarket.baselines import optimal_scheme_outcome
import skymarket.presets as presets
from skymarket.presets import (
    AUDIT_BATCH,
    TABLE_SIZES,
    audit_suite_batches,
    run_audit_suite,
    run_table_envy,
    run_table_truthful,
)
from skymarket.types import AuctionOutcome, Match, ScenarioConfig


def test_check_ir_clean_on_truthful_2x2():
    market = WindowMarket.from_values([4.0, 2.0], [4.0, 2.0], [0.9, 0.5])
    assert check_ir(run_auction(market)) == []


def test_check_ir_clean_on_empty_outcome():
    assert check_ir(run_auction(WindowMarket.from_values([], [], []))) == []


def rigged_outcome(payment):
    """Single winner whose payment may exceed its value."""
    u = 0.5 * 4.0 - payment
    return AuctionOutcome(
        window_id=1,
        winners=(Match(rank=1, uav_id=0, ugv_id=0, bid=4.0, q=0.5),),
        losers=(),
        payments=(payment,),
        uav_utilities={0: u},
        ugv_utilities={0: payment},
        social_surplus=0.5 * 4.0,
    )


def test_check_ir_flags_overcharged_winner():
    violations = check_ir(rigged_outcome(3.0))  # utility 2.0 - 3.0 < 0
    assert len(violations) == 1
    assert violations[0][0] == "uav" and violations[0][2] < 0


def test_deviation_probe_overbid_by_top_winner_gains_nothing():
    market = WindowMarket.from_values([4.0, 2.0], [4.0, 2.0], [0.9, 0.5])
    gain = deviation_probe(market, 0, grid=[4.0, 8.0])
    assert gain == pytest.approx(0.0, abs=1e-12)


def test_deviation_probe_underbid_swaps_rank_without_gain():
    market = WindowMarket.from_values([4.0, 2.0], [4.0, 2.0], [0.9, 0.5])
    gain = deviation_probe(market, 0, grid=[4.0, 1.0])
    assert gain <= 1e-12


def test_deviation_probe_loser_overbid_cannot_gain():
    market = WindowMarket.from_values([4.0, 2.0, 1.0], [4.0, 2.0, 1.0], [0.9, 0.5])
    gain = deviation_probe(market, 2)
    assert gain <= 1e-9


def test_deviation_probe_grid_sweep_random_instances(rng):
    for _ in range(40):
        market = random_market(rng, int(rng.integers(1, 7)), int(rng.integers(1, 7)))
        for e in market.demand:
            assert deviation_probe(market, e.uav_id) <= 1e-9


def test_non_envy_ratio_truthful_2x2():
    market = WindowMarket.from_values([4.0, 2.0], [4.0, 2.0], [0.9, 0.5])
    stats = non_envy_ratio(run_auction(market), {0: 4.0, 1: 2.0})
    assert stats.all_participants == 1.0
    assert stats.winners_only == 1.0


def test_non_envy_single_participant():
    market = WindowMarket.from_values([3.0], [3.0], [0.4])
    stats = non_envy_ratio(run_auction(market), {0: 3.0})
    assert stats.all_participants == 1.0


def test_non_envy_detects_swapped_allocation():
    # anti-assortative at zero prices: the high-value UAV envies the better pad
    outcome = AuctionOutcome(
        window_id=1,
        winners=(
            Match(rank=1, uav_id=1, ugv_id=0, bid=2.0, q=0.9),
            Match(rank=2, uav_id=0, ugv_id=1, bid=4.0, q=0.5),
        ),
        losers=(),
        payments=(0.0, 0.0),
        uav_utilities={0: 2.0, 1: 1.8},
        ugv_utilities={0: 0.0, 1: 0.0},
        social_surplus=3.8,
    )
    stats = non_envy_ratio(outcome, {0: 4.0, 1: 2.0})
    assert 0 in stats.envious
    assert stats.all_participants == 0.5


def test_non_envy_counts_losers_against_positive_slots():
    # underbidding loser with phi 3.9 would enjoy slot q=0.9 at its payment
    # 0.85 (utility 2.66 > 0), so it counts as envious
    market = WindowMarket.from_values([4.0, 2.0, 3.9], [4.0, 2.0, 0.1], [0.9, 0.5])
    outcome = run_auction(market)
    assert 2 in outcome.losers
    stats = non_envy_ratio(outcome, {0: 4.0, 1: 2.0, 2: 3.9})
    assert 2 in stats.envious
    assert stats.winners_only == 1.0
    assert stats.all_participants == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_check_stability_truthful_2x2():
    market = WindowMarket.from_values([4.0, 2.0], [4.0, 2.0], [0.9, 0.5])
    outcome = run_auction(market)
    assert check_stability(outcome, {0: 4.0, 1: 2.0}, {0: 0.9, 1: 0.5}) == []


def test_check_stability_empty_outcome():
    outcome = run_auction(WindowMarket.from_values([], [], []))
    assert check_stability(outcome, {}, {}) == []


def test_check_stability_detects_rigged_swap():
    # swapped pairing priced so the occupant of the good pad is indifferent:
    # uav1 holds q=0.9 paying 0.8 (utility 1.0, ties its outside option),
    # uav0 strictly prefers that slot (0.9*4-0.8 = 2.8 > 2.0)
    outcome = AuctionOutcome(
        window_id=1,
        winners=(
            Match(rank=1, uav_id=1, ugv_id=0, bid=2.0, q=0.9),
            Match(rank=2, uav_id=0, ugv_id=1, bid=4.0, q=0.5),
        ),
        losers=(),
        payments=(0.8, 0.0),
        uav_utilities={0: 2.0, 1: 1.0},
        ugv_utilities={0: 0.8, 1: 0.0},
        social_surplus=3.8,
    )
    pairs = check_stability(outcome, {0: 4.0, 1: 2.0}, {0: 0.9, 1: 0.5})
    assert (0, 0) in pairs


def test_stability_clean_on_random_truthful_instances(rng):
    for _ in range(60):
        market = random_market(rng, int(rng.integers(1, 8)), int(rng.integers(1, 8)))
        outcome = run_auction(market)
        phi = {e.uav_id: e.phi_bar for e in market.demand}
        qs = {s.ugv_id: s.q for s in market.supply}
        assert check_stability(outcome, phi, qs) == []


def test_envy_holds_for_bids_between_adjacent_valuations(rng):
    # off-truthful bids that respect b_j in [phi_j, phi_{j-1}] stay envy-free
    for _ in range(60):
        n = int(rng.integers(2, 7))
        phi = np.sort(rng.uniform(1.0, 6.0, size=n))[::-1]
        bids = np.empty(n)
        for j in range(n):
            hi = phi[j - 1] if j > 0 else phi[j] * 1.5
            bids[j] = rng.uniform(phi[j], hi)
        qs = rng.uniform(0.05, 1.0, size=max(1, n - rng.integers(0, 2)))
        market = WindowMarket.from_values(phi.tolist(), bids.tolist(), qs.tolist())
        outcome = run_auction(market)
        phi_map = {e.uav_id: e.phi_bar for e in market.demand}
        stats = non_envy_ratio(outcome, phi_map)
        assert stats.all_participants == 1.0


def test_audit_market_all_clean(rng):
    report = audit_market(random_market(rng, 5, 5), instance="t")
    assert report.ir_violations == 0
    assert report.ic_violations == 0
    assert report.worst_ic_gain <= 1e-9
    assert report.non_envy_ratio == 1.0
    assert report.blocking_pairs == 0


@pytest.mark.parametrize("phi", [[], [3.0], [0.0, 2.5, 2.5, 6.0]])
def test_audit_of_a_market_with_no_supply_is_the_no_trade_report(phi):
    # a sweep writes this report for a window with no trade instead of
    # auditing it: bidders with no vehicle, or no bidder at all
    from skymarket.metrics import _NO_MARKET_AUDIT

    report = audit_market(WindowMarket.from_values(phi, phi, []), instance="w")
    fields = audit_report_row(report)[1:]
    assert fields == _NO_MARKET_AUDIT
    assert list(map(type, fields)) == list(map(type, _NO_MARKET_AUDIT))


def tie_heavy_market(rng, n_uavs, n_ugvs):
    """Market drawn from a few levels, so equal bids, equal q and zero
    bids are common; bids are truthful, shaded or zeroed per bidder."""
    phi = rng.choice([1.0, 2.5, 4.0], size=n_uavs)
    shade = rng.choice([0.0, 0.5, 1.0, 1.0, 1.0, 2.0], size=n_uavs)
    qs = rng.choice([0.2, 0.5, 0.5, 0.9], size=n_ugvs)
    return WindowMarket.from_values(phi.tolist(), (phi * shade).tolist(), qs.tolist())


def explicit_grid(market, uav_id):
    """Every opponent bid exactly (ties on the bid, ranked by id), zero,
    the bidder's own bid, points between bid levels and int bids."""
    bids = sorted({e.bid for e in market.demand})
    own = next(e.bid for e in market.demand if e.uav_id == uav_id)
    mids = [(a + b) / 2 for a, b in zip(bids, bids[1:])]
    return [0.0, own, 0, 3, *bids, *mids, bids[-1] + 1.0]


@pytest.mark.parametrize(
    "sizes",
    [
        [(1, 3), (2, 5), (3, 4), (4, 8), (5, 6)],  # n < m
        [(1, 1), (2, 2), (3, 3), (5, 5), (8, 8)],  # n == m
        [(2, 1), (3, 2), (5, 3), (8, 4), (9, 6), (3, 0), (1, 0)],  # n > m
    ],
    ids=["n<m", "n==m", "n>m"],
)
def test_closed_form_probe_equals_replay_on_tie_heavy_markets(sizes):
    rng = np.random.default_rng(7)
    probes = 0
    for n_uavs, n_ugvs in sizes:
        for _ in range(15):
            market = tie_heavy_market(rng, n_uavs, n_ugvs)
            gains = []
            for e in market.demand:
                default = deviation_grid(market, e.uav_id)
                # whole grids, then one bid at a time so that no wrong
                # gain can hide below the grid's maximum
                grids = [None, explicit_grid(market, e.uav_id)]
                grids += [[b] for b in default + grids[1]]
                for grid in grids:
                    got = deviation_probe(market, e.uav_id, grid)
                    want = replay_deviation_probe(market, e.uav_id, grid)
                    assert repr(got) == repr(want), (market, e.uav_id, grid)
                    probes += 1
                gains.append(replay_deviation_probe(market, e.uav_id))
            # audit_market prices every grid from its one clearing
            report = audit_market(market)
            worst = max(gains) if gains else 0.0
            assert repr(report.worst_ic_gain) == repr(worst)
            assert report.ic_violations == sum(g > UTILITY_TOL for g in gains)
    assert probes >= 5000


def test_deviation_probe_rejects_negative_bid_and_unknown_uav():
    market = WindowMarket.from_values([4.0, 2.0], [4.0, 2.0], [0.9])
    with pytest.raises(ValueError, match="bids must be >= 0"):
        deviation_probe(market, 0, grid=[1.0, -0.1])
    with pytest.raises(KeyError):
        deviation_probe(market, 2)
    with pytest.raises(KeyError):
        deviation_probe(market, 2, grid=[-1.0])
    assert deviation_probe(market, 1, grid=[]) == float("-inf")


def test_an_unknown_bidder_is_a_key_error():
    # a StopIteration from the lookup would end a surrounding map() early
    # and silently instead: [9] here, the grid of uav 0 alone
    market = WindowMarket.from_values([4.0, 2.0], [4.0, 2.0], [0.9])
    with pytest.raises(KeyError):
        list(map(lambda u: len(deviation_grid(market, u)), [0, 5, 1]))
    with pytest.raises(KeyError):
        audit._misreport_utilities(market, 5, [1.0])
    assert [len(deviation_grid(market, u)) for u in (0, 1)] == [9, 9]


def test_audit_markets_replays_no_auction(rng, monkeypatch):
    # the batch reads every payment off its own arrays: no market is
    # cleared through run_auction, and no misreport is replayed
    calls = []

    def counted(market):
        calls.append(market)
        return run_auction(market)

    monkeypatch.setattr(audit, "run_auction", counted)
    markets = [random_market(rng, 100, 25), random_market(rng, 3, 7)]
    reports = audit.audit_markets(markets)
    assert calls == []
    assert all(r.ic_violations == 0 and r.blocking_pairs == 0 for r in reports)
    assert [audit_report_row(r)[1:] for r in reports] == [audit_fields(m) for m in markets]


def test_audit_markets_splits_a_batch_by_size_and_keeps_its_order(rng, monkeypatch):
    # markets are padded in chunks of similar size; a chunk's padding must
    # not leak into a report, and reports come back in input order
    sizes = [(9, 3), (0, 4), (2, 2), (30, 12), (5, 0), (1, 1), (12, 30), (4, 6)]
    markets = [random_market(rng, n, m, truthful=bool(i % 2)) for i, (n, m) in enumerate(sizes)]
    # bids a nudge apart: several nudges tie a bid, so their ids are compared
    apart = [2.5, 2.5 - audit.DEVIATION_EPS, 2.5, 2.5 + audit.DEVIATION_EPS, 1.0]
    markets.append(WindowMarket.from_values(apart, apart, [0.9, 0.5, 0.2]))
    names = [f"m{i}" for i in range(len(markets))]
    whole = audit.audit_markets(markets, names)
    chunks = []
    real_chunk = audit._audit_chunk

    def counted(n, *padded):
        chunks.append(len(n))
        return real_chunk(n, *padded)

    monkeypatch.setattr(audit, "_audit_chunk", counted)
    monkeypatch.setattr(audit, "_CHUNK_CELLS", 50)  # also compares ties in slices
    split = audit.audit_markets(markets, names)
    assert len(chunks) > 2 and sum(chunks) == len(markets)
    assert repr(split) == repr(whole)
    assert [r.instance for r in split] == names
    assert [audit_report_row(r)[1:] for r in split] == [audit_fields(m) for m in markets]
    assert audit.audit_markets([]) == []


def drawn_bits(batches):
    """Counts, valuations and q of ``_audit_arrays`` argument tuples,
    concatenated (the floats as bytes), after checking that each bidder's
    id is its position in its batch and its bid its valuation."""
    for _, _, ids, bids, phi, _ in batches:
        assert bids is phi and ids.tolist() == list(range(len(phi)))
    n_uavs, n_ugvs, _, _, phi, qs = (np.concatenate(column) for column in zip(*batches))
    return n_uavs.tolist(), n_ugvs.tolist(), phi.tobytes(), qs.tobytes()


def oracle_bits(draws):
    n_uavs, n_ugvs, phi, qs = draws
    return n_uavs, n_ugvs, phi.tobytes(), qs.tobytes()


@pytest.mark.parametrize("seed, instances, max_size", [
    (7, 100, 8), (11, 2500, 30), (3, 5, 1), (5, 40, 200),
])
def test_audit_suite_draws_what_one_market_at_a_time_draws(seed, instances, max_size):
    config = ScenarioConfig()
    batches = list(audit_suite_batches(config, seed, instances, max_size))
    assert len(batches) == -(-instances // AUDIT_BATCH)
    names, draws = audit_suite_draw(config, seed, instances, max_size)
    assert [name for batch_names, _ in batches for name in batch_names] == names
    assert drawn_bits([markets for _, markets in batches]) == oracle_bits(draws)


def test_table_envy_draws_each_market_from_its_own_generator(tmp_path, monkeypatch):
    config = ScenarioConfig()
    reps = 4
    audited = []
    real = presets._audit_arrays

    def kept(*markets):
        audited.append(markets)
        return real(*markets)

    monkeypatch.setattr(presets, "_audit_arrays", kept)
    run_table_envy(config, 9, tmp_path, reps=reps)
    draws = truthful_draws(
        ((np.random.default_rng(np.random.SeedSequence([9, n, m, k])), n, m)
         for n, m in TABLE_SIZES for k in range(reps)), config)
    assert len(audited) == 1
    assert drawn_bits(audited) == oracle_bits(draws)


def test_table_truthful_rows_match_the_replay(tmp_path):
    config = ScenarioConfig()
    reps = 3
    (path,) = run_table_truthful(config, 4, tmp_path, reps=reps)
    rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
    assert len(rows) == len(TABLE_SIZES) * reps
    for (n_uavs, n_ugvs), k in [(size, k) for size in TABLE_SIZES for k in range(reps)]:
        rng = np.random.default_rng(np.random.SeedSequence([4, n_uavs, n_ugvs, k]))
        market = random_market(rng, n_uavs, n_ugvs, mu0=config.mu0, mu1=config.mu1,
                               q_floor=config.qors_floor)
        uav_id = int(rng.integers(0, n_uavs))
        truthful = run_auction(market).uav_utilities[uav_id]
        own = next(e.bid for e in market.demand if e.uav_id == uav_id)
        best = max(
            run_auction(with_replaced_bid(market, uav_id, b)).uav_utilities[uav_id]
            for b in deviation_grid(market, uav_id)
            if b != own
        )
        assert rows.pop(0) == [f"{n_uavs}x{n_ugvs}", str(k), str(uav_id), str(truthful), str(best)]


def test_table_envy_optimal_rows_match_the_planner(tmp_path):
    # the preset labels the auction's statistics `optimal` too; the
    # welfare planner, run for real on each of its markets, must agree
    config = ScenarioConfig()
    reps = 10
    (path,) = run_table_envy(config, 4, tmp_path, reps=reps)
    rows = [line.split(",") for line in path.read_text().splitlines()[2:]]
    optimal = [row for row in rows if row[2] == "optimal"]
    assert len(optimal) == len(TABLE_SIZES) * reps
    for (n_uavs, n_ugvs), k in [(size, k) for size in TABLE_SIZES for k in range(reps)]:
        rng = np.random.default_rng(np.random.SeedSequence([4, n_uavs, n_ugvs, k]))
        market = random_market(rng, n_uavs, n_ugvs, mu0=config.mu0, mu1=config.mu1,
                               q_floor=config.qors_floor)
        phi = {e.uav_id: e.phi_bar for e in market.demand}
        stats = non_envy_ratio(optimal_scheme_outcome(market), phi)
        assert optimal.pop(0) == [f"{n_uavs}x{n_ugvs}", str(k), "optimal",
                                  str(stats.all_participants), str(stats.winners_only)]


@pytest.mark.parametrize("field, value", [
    (0, -1), (1, -1), (5, -1),  # a negative IR, IC or blocking count
    (3, 1.5), (4, -0.25), (3, float("nan")),  # a ratio outside [0, 1]
])
def test_audit_suite_raises_on_fields_that_break_the_report_invariants(
        tmp_path, monkeypatch, field, value):
    # the suite writes rows with no AuditReport; the flat entry checks
    # the report's invariants on every row, as the report would
    real = audit._audit_chunk

    def broken(*padded):
        fields = [column.copy() if i == field else column
                  for i, column in enumerate(real(*padded))]
        fields[field][-1] = value
        return fields

    monkeypatch.setattr(audit, "_audit_chunk", broken)
    with pytest.raises(ValueError, match="must be >= 0" if field in (0, 1, 5) else "must lie in"):
        run_audit_suite(ScenarioConfig(), 7, tmp_path, instances=30)
    assert not (tmp_path / "audit-suite.csv").exists()
