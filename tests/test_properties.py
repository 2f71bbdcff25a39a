"""Property tests over generated scenario configs and markets."""

import math
from unittest import mock

import pytest

hypothesis = pytest.importorskip("hypothesis")
from hypothesis import Phase, example, given, settings, strategies as st  # noqa: E402

import conftest  # noqa: E402
from conftest import (  # noqa: E402
    audit_fields,
    check_stability_loop,
    naive_best_assignment,
    non_envy_ratio_loop,
    payment_closed_form,
    payment_unrolled,
    replay_deviation_probe,
    run_world_windowwise,
)
import skymarket.audit as audit  # noqa: E402
from skymarket.audit import (  # noqa: E402
    DEVIATION_EPS,
    UTILITY_TOL,
    audit_market,
    audit_markets,
    audit_report_row,
    check_stability,
    deviation_probe,
    non_envy_ratio,
)
from skymarket.mechanism import (  # noqa: E402
    DemandEntry,
    SupplyEntry,
    WindowMarket,
    clear,
    run_auction,
)
from skymarket.simulator import (  # noqa: E402
    SCHEME_OURS,
    SCHEME_STATIC,
    generate_scenario,
    run_worlds,
)
from skymarket.types import Match, ScenarioConfig, validate  # noqa: E402

_STATE = ("uav_f", "uav_i", "ugv_f", "ugv_i", "soc_alert", "bidder", "excluded",
          "fail_count", "phi_sum", "rho_sum", "sample_count")

# (uav_count, ugv_count, slot_len, slots per window, SoC low, SoC span,
#  max_failed_windows, supply Wh, scheme, seed) of one world in a stack
_world = st.tuples(
    st.integers(1, 12),
    st.integers(1, 6),
    st.sampled_from([0.5, 2.0, 4.0]),
    st.integers(1, 4),
    st.floats(0.0, 0.3),
    st.floats(0.0, 0.4),
    st.integers(1, 3),
    st.sampled_from([5.0, 40.0, 500.0]),
    st.sampled_from([SCHEME_OURS, SCHEME_STATIC]),
    st.integers(0, 2**16),
)


def _build(spec, enter_urgency):
    n, m, slot_len, spw, soc_lo, soc_span, fails, supply, scheme, seed = spec
    cfg = ScenarioConfig(
        uav_count=n, ugv_count=m, slot_len=slot_len, window_len=slot_len * spw,
        uav_soc_frac_min=soc_lo, uav_soc_frac_max=min(soc_lo + soc_span, 1.0),
        max_failed_windows=fails, ugv_supply_wh=supply, enter_urgency=enter_urgency,
    )
    assert validate(cfg) == []
    return generate_scenario(cfg, seed, scheme)


def _assert_stack_matches_worlds_alone(specs, horizon, enter_urgency):
    stacked = [_build(s, enter_urgency) for s in specs]
    alone = [_build(s, enter_urgency) for s in specs]
    got = run_worlds(stacked, horizon, with_audit=True, keep_outcomes=True)
    want = [run_world_windowwise(w, horizon, with_audit=True, keep_outcomes=True)
            for w in alone]
    # repr, not ==: an int 0 where the full path writes 0.0 changes the CSVs
    assert repr(got) == repr(want)
    for a, b in zip(stacked, alone):
        for name in _STATE:
            assert (getattr(a, name) == getattr(b, name)).all(), name
        assert a.clock == b.clock
    return [outcome for _, outcomes, _ in want for outcome in outcomes], alone


# no shrink phase: shrinking a failing stack takes the five minutes
# Hypothesis allows itself, so a failure is reported as generated
@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          phases=(Phase.explicit, Phase.generate))
@given(
    specs=st.lists(_world, min_size=2, max_size=4),
    horizon=st.integers(1, 48),
    enter_urgency=st.sampled_from([0.0, 0.6, 0.75, 1.0]),
)
def test_stack_with_bidderless_fast_path_matches_each_world_alone(specs, horizon,
                                                                 enter_urgency):
    # a stack of worlds that mix window lengths, slot lengths and schemes,
    # started below the alert level, with losers leaving after a few
    # failed windows, clears every window as each world would alone with
    # every window going through close_window_loop; windows with no bidder
    # and windows whose bidders meet no admissible vehicle are settled
    # for the whole stack at once
    _assert_stack_matches_worlds_alone(specs, horizon, enter_urgency)


def test_bidderless_windows_with_and_without_an_idle_vehicle():
    # found by the property test against a fast path that always wrote
    # ugv_utility as the float 0.0: with every vehicle busy, the empty
    # market's ugv_utility is the empty sum, the int 0, and with an idle
    # vehicle the kept outcome lists it at utility 0.0
    specs = [
        (11, 5, 0.5, 3, 0.0, 0.36, 1, 5.0, SCHEME_OURS, 0),
        (1, 1, 0.5, 1, 0.0, 0.0, 1, 5.0, SCHEME_OURS, 0),
        (1, 1, 0.5, 1, 0.0, 0.0, 1, 500.0, SCHEME_OURS, 0),
    ]
    outcomes, _ = _assert_stack_matches_worlds_alone(specs, 40, 0.0)
    bidderless = [o for o in outcomes if not o.uav_utilities]
    assert any(o.ugv_utilities for o in bidderless)
    assert any(not o.ugv_utilities for o in bidderless)


def test_bidders_that_meet_only_busy_or_under_supplied_vehicles(monkeypatch):
    # windows with bidders but no trade are settled for the whole stack:
    # every bidder loses, counts a failed window and is excluded at its
    # world's max_failed_windows. Here one world's only vehicle is busy
    # after its first match, and the others' vehicles carry less supply
    # than their neediest bidder's gap. Only windows with a trade are
    # cleared by the stack (the oracle clears every window through
    # close_window_loop)
    from skymarket import simulator

    seen = []  # per market with a bidder: (idle vehicles, admitted vehicles)
    cleared = []  # per window the stack clears: its winners
    trading = [0]  # trading windows, by _close_boundary's masks
    real_admit, real_clear = conftest.admit, simulator._clear_window
    real_boundary = simulator._close_boundary

    def recording(demand, offers, window_id, gaps):
        market = real_admit(demand, offers, window_id, gaps)
        if demand:
            seen.append((len(offers), market.num_ugvs))
        return market

    def counting_clear(*args):
        trade, row, qs = real_clear(*args)
        cleared.append(row.winners)
        return trade, row, qs

    def counting_boundary(*args):
        masks = real_boundary(*args)
        trading[0] += int(masks.trading.sum())
        return masks

    monkeypatch.setattr(conftest, "admit", recording)
    monkeypatch.setattr(simulator, "_clear_window", counting_clear)
    monkeypatch.setattr(simulator, "_close_boundary", counting_boundary)
    specs = [
        (12, 1, 0.5, 2, 0.1, 0.15, 3, 500.0, SCHEME_OURS, 1),
        (10, 3, 2.0, 2, 0.1, 0.15, 2, 5.0, SCHEME_STATIC, 2),
        (8, 2, 1.0, 3, 0.1, 0.15, 2, 40.0, SCHEME_OURS, 3),
    ]
    outcomes, worlds = _assert_stack_matches_worlds_alone(specs, 96, 1.0)
    assert any(idle == 0 for idle, _ in seen)  # every vehicle busy
    assert any(idle > 0 and admitted == 0 for idle, admitted in seen)  # under-supplied
    assert any(admitted > 0 for _, admitted in seen)  # and a trade
    assert sum(1 for o in outcomes if o.losers and not o.winners) >= 6
    assert all(cleared)
    assert len(cleared) == trading[0] == sum(1 for o in outcomes if o.winners) > 0
    assert all(w.excluded.any() and not w.excluded.all() for w in worlds)


# a bidder's (valuation, bid / valuation) and a vehicle's q: levels make
# tied bids, tied q and zero bids common, and the bids are truthful,
# shaded, zeroed or doubled, as in test_audit.py's tie-heavy markets
_bidder = st.tuples(
    st.sampled_from([1.0, 2.5, 4.0]) | st.floats(0.5, 6.0),
    st.sampled_from([0.0, 0.5, 1.0, 1.0, 2.0]) | st.floats(0.0, 2.0),
)
_q = st.sampled_from([0.2, 0.5, 0.5, 0.9]) | st.floats(0.05, 1.0)
_NUDGE_APART = [2.5, 2.5 - DEVIATION_EPS, 2.5, 2.5 + DEVIATION_EPS]


@st.composite
def _markets(draw):
    bidders = draw(st.lists(_bidder, max_size=9))
    qs = draw(st.lists(_q, max_size=9))
    return WindowMarket.from_values([phi for phi, _ in bidders],
                                    [phi * shade for phi, shade in bidders], qs)


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          phases=(Phase.explicit, Phase.generate))
@given(market=_markets())
@example(market=WindowMarket.from_values([2.5, 4.0, 2.5], [2.5, 0.0, 5.0], []))
@example(market=WindowMarket.from_values([], [], [0.5, 0.9]))
@example(market=WindowMarket.from_values([4.0, 2.5, 1.0], [2.0, 2.5, 2.0], [0.5, 0.5]))
# truthful bids one nudge apart: a nudge that ties a bid ranks by id
@example(market=WindowMarket.from_values(_NUDGE_APART, _NUDGE_APART, [0.9, 0.5, 0.2]))
def test_one_pass_audit_matches_the_replay_and_the_scans(market):
    # audit_market prices every bidder's grid from one pass over the
    # ranked bids and reads envy and stability off one table; the replay
    # clears the auction once per grid bid, and the scans are the old
    # per-pair loops. Shaded bids make IC, envy and stability fail too
    gains = [replay_deviation_probe(market, e.uav_id) for e in market.demand]
    for e, gain in zip(market.demand, gains):
        assert repr(deviation_probe(market, e.uav_id)) == repr(gain)
    outcome = run_auction(market)
    phi = {e.uav_id: e.phi_bar for e in market.demand}
    qs = {s.ugv_id: s.q for s in market.supply}
    envy = non_envy_ratio_loop(outcome, phi)
    blocking = check_stability_loop(outcome, phi, qs)
    assert non_envy_ratio(outcome, phi) == envy
    assert check_stability(outcome, phi, qs) == blocking

    report = audit_market(market)
    assert repr(report.worst_ic_gain) == repr(max(gains, default=0.0))
    assert report.ic_violations == sum(g > UTILITY_TOL for g in gains)
    assert repr((report.non_envy_ratio, report.non_envy_ratio_winners)) == repr(envy[:2])
    assert report.blocking_pairs == len(blocking)


@st.composite
def _large_markets(draw):
    # 0-80 per side: the sizes run from empty sides to crowded windows
    n, m = draw(st.integers(0, 80)), draw(st.integers(0, 80))
    bidders = draw(st.lists(_bidder, min_size=n, max_size=n))
    qs = draw(st.lists(_q, min_size=m, max_size=m))
    return WindowMarket.from_values([phi for phi, _ in bidders],
                                    [phi * shade for phi, shade in bidders], qs)


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          phases=(Phase.explicit, Phase.generate))
@given(markets=st.lists(_markets() | _large_markets(), min_size=1, max_size=6))
@example(markets=[WindowMarket.from_values(_NUDGE_APART, _NUDGE_APART, [0.9, 0.5, 0.2]),
                  WindowMarket.from_values([], [], [0.5]),
                  WindowMarket.from_values([0.0, 4.0], [0.0, 0.0], [0.9, 0.9]),
                  WindowMarket.from_values([2.5] * 80, [2.5] * 80, [0.5] * 25)])
def test_audit_markets_matches_the_scalar_probes_in_any_batch(markets):
    # every report field equals the scalar probes' (by repr, so a signed
    # zero would show), and each market's report is the one it gets alone
    reports = audit_markets(markets, [str(i) for i in range(len(markets))])
    for i, (market, report) in enumerate(zip(markets, reports)):
        assert report.instance == str(i)
        assert repr(audit_report_row(report)[1:]) == repr(audit_fields(market))
        assert repr(audit_market(market, str(i))) == repr(report)


@st.composite
def _id_markets(draw):
    # distinct bidder ids far apart and in no order, so ranking ties by id
    # cannot lean on the ids being 0..n-1 in input order
    bidders = draw(st.lists(_bidder, max_size=9))
    ids = draw(st.lists(st.integers(0, 10**9), min_size=len(bidders), max_size=len(bidders),
                        unique=True))
    qs = draw(st.lists(_q, max_size=9))
    return WindowMarket(0, [DemandEntry(i, phi, phi * shade)
                            for i, (phi, shade) in zip(ids, bidders)],
                        [SupplyEntry(j, q) for j, q in enumerate(qs)])


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          phases=(Phase.explicit, Phase.generate))
@given(markets=st.lists(_id_markets(), max_size=8), chunk_cells=st.sampled_from([1, 40, 1 << 16]))
# tied bids whose ids run against input order, a zero bid, empty sides
@example(markets=[WindowMarket(0, [DemandEntry(907, 2.5, 2.5), DemandEntry(12, 2.5, 2.5),
                                   DemandEntry(400, 4.0, 0.0)], [SupplyEntry(0, 0.5)]),
                  WindowMarket(0, [], [SupplyEntry(3, 0.9)]),
                  WindowMarket(0, [DemandEntry(5, 1.0, 1.0)], [])], chunk_cells=1)
def test_flat_audit_entry_matches_the_scalar_probes(markets, chunk_cells):
    # the flat entry ranks every market's sides itself, by lexsort, and
    # pads them in chunks of at most chunk_cells cells: each market's
    # fields equal the scalar probes' by repr, so types and signed zeros
    # show too
    with mock.patch.object(audit, "_CHUNK_CELLS", chunk_cells):
        fields = audit._audit_arrays(*audit._flat_sides(markets))
    assert repr(fields) == repr([audit_fields(mk) for mk in markets])


def _clear_ranked(demand, supply):
    """``mechanism.clear`` of ranked (DemandEntry, SupplyEntry) sides."""
    return clear([e.uav_id for e in demand], [e.bid for e in demand],
                 [e.phi_bar for e in demand], [s.ugv_id for s in supply], supply)


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          phases=(Phase.explicit, Phase.generate))
@given(market=_markets())
@example(market=WindowMarket.from_values([2.5] * 9, [2.5] * 9, [0.5] * 9))
@example(market=WindowMarket.from_values([4.0, 1.0, 2.5], [0.0, 0.0, 5.0], [0.9]))
def test_clear_matches_the_payment_and_welfare_oracles(market):
    # clear on a market's ranked sides matches them rank by rank, and
    # each payment is the telescoped sum of the rank recursion (the
    # closed form when supply covers demand). Truthful bids reach the
    # enumerated optimum; tied, zero and untruthful ones never beat it
    demand, supply = market.demand_ranked, market.supply_ranked
    trade = _clear_ranked(demand, supply)
    k = min(len(demand), len(supply))
    allocation = [Match(r, d.uav_id, s.ugv_id, d.bid, s.q)
                  for r, (d, s) in enumerate(zip(demand, supply), 1)]
    assert list(trade.ranked) == [e.uav_id for e in demand]
    assert list(trade.vehicles) == [s.ugv_id for s in supply[:k]]
    assert list(trade.losers) == [e.uav_id for e in demand[k:]]
    assert (list(trade.bids), list(trade.qs)) == ([m.bid for m in allocation],
                                                  [m.q for m in allocation])
    for j, p in enumerate(trade.payments, 1):
        assert p == pytest.approx(payment_unrolled(market, allocation, j), abs=1e-9)
        if len(supply) >= len(demand):
            assert p == pytest.approx(payment_closed_form(allocation, j), abs=1e-9)
    assert list(trade.utilities) == [m.q * d.phi_bar - p
                                     for m, d, p in zip(allocation, demand, trade.payments)]

    phis, qs = [e.phi_bar for e in market.demand], [s.q for s in market.supply]
    if math.perm(max(len(phis), len(qs)), min(len(phis), len(qs))) > 5040:
        return  # enumeration too slow; the payments are checked above
    best = naive_best_assignment(phis, qs)
    assert trade.surplus <= best + 1e-9
    truthful = sorted((e._replace(bid=e.phi_bar) for e in market.demand),
                      key=lambda e: (-e.bid, e.uav_id))
    assert _clear_ranked(truthful, supply).surplus == pytest.approx(best, abs=1e-9)
