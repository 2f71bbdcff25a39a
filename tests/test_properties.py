"""Property tests over generated scenario configs and markets."""

import math
from types import SimpleNamespace
from unittest import mock

import numpy as np
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
import skymarket._kernels as K  # noqa: E402
import skymarket.audit as audit  # noqa: E402
import skymarket.simulator as simulator  # noqa: E402
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
from skymarket.energy import slot_constants  # noqa: E402
from skymarket.types import Match, ScenarioConfig, validate  # noqa: E402

from test_kernels import step_block_loop, sweep_states, with_transitions_within  # noqa: E402

_STATE = ("uav_f", "uav_i", "ugv_f", "ugv_i", "soc_alert", "bidder", "excluded",
          "fail_count", "phi_sum", "rho_sum", "sample_count")

# (uav_count, ugv_count, slot_len, slots per window, SoC low, SoC span,
#  max_failed_windows, supply Wh, scheme, seed, near) of one world in a stack;
# near is None, or (a, b): the SoC spans a to a + b slots' hover drain above
# the join level instead, so the UAVs join slot after slot within the horizon
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
    st.none() | st.tuples(st.integers(-4, 24), st.integers(0, 48)),
)


def _build(spec, enter_urgency):
    n, m, slot_len, spw, soc_lo, soc_span, fails, supply, scheme, seed, near = spec
    cfg = ScenarioConfig(
        uav_count=n, ugv_count=m, slot_len=slot_len, window_len=slot_len * spw,
        uav_soc_frac_min=soc_lo, uav_soc_frac_max=min(soc_lo + soc_span, 1.0),
        max_failed_windows=fails, ugv_supply_wh=supply, enter_urgency=enter_urgency,
    )
    if near is not None:
        # a UAV joins once its SoC is at most the join level
        join = cfg.uav_alert_frac + 1.0 - enter_urgency
        drain = slot_constants(cfg).drain_hov / cfg.uav_capacity_wh
        lo, hi = (min(max(join + a * drain, 0.0), 1.0) for a in (near[0], sum(near)))
        cfg = cfg.replace(uav_soc_frac_min=lo, uav_soc_frac_max=hi)
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
# Hypothesis allows itself, so a failure is reported as generated. Every
# oracle window is audited, so the cost grows with the horizon; 32 slots
# span at least 8 windows of up to 4 slots, past any exclusion after 3
@settings(derandomize=True, database=None, deadline=None, max_examples=60,
          phases=(Phase.explicit, Phase.generate))
@given(
    specs=st.lists(_world, min_size=2, max_size=4),
    horizon=st.integers(1, 32),
    enter_urgency=st.sampled_from([0.0, 0.6, 0.75, 1.0]),
)
# window lengths of 2, 1, 2 and 1 slots, started a hair around the alert
# level with ample supply, so UAVs join slot after slot: at some
# boundaries where both lengths fall due, members of each length trade
@example(specs=[(12, 6, 2.0, spw, 0.19995, 0.0002, 3, 500.0, scheme, 20 + k, None)
                for k, (spw, scheme) in enumerate([(2, SCHEME_OURS), (1, SCHEME_STATIC),
                                                   (2, SCHEME_OURS), (1, SCHEME_STATIC)])],
         horizon=24, enter_urgency=1.0)
def test_stack_with_bidderless_fast_path_matches_each_world_alone(specs, horizon,
                                                                 enter_urgency):
    # a stack of worlds that mix window lengths, slot lengths and schemes,
    # started below the alert level or a few slots' drain above the join
    # level (so UAVs join mid-block, and members of several window lengths
    # trade at one boundary), with losers leaving after a few failed
    # windows, clears every window as each world would alone with
    # every window going through close_window_loop; windows with no bidder
    # and windows whose bidders meet no admissible vehicle are settled
    # for the whole stack at once
    _assert_stack_matches_worlds_alone(specs, horizon, enter_urgency)


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          phases=(Phase.explicit, Phase.generate))
@given(index=st.integers(0, 199), k=st.integers(1, 32), seed=st.integers(0, 2**16),
       order=st.sampled_from("CF"))
def test_one_block_call_steps_as_a_slot_loop(index, k, seed, order):
    # one k-slot step_world call on a stack whose rows arrive, land, top
    # out, end or starve their sessions and find their pads ready in the
    # middle of the block, against k slots of the loop oracle: every
    # array and both buffers, bit for bit
    state = with_transitions_within(sweep_states()[index], k, seed)
    n = state[0].shape[0]
    ref = [a.copy() for a in state]
    ref_soc, ref_sensing = np.empty((k, n)), np.empty((k, n), dtype=bool)
    step_block_loop(*ref, soc=ref_soc, sensing=ref_sensing)
    got = [np.array(a, order=order) for a in state]
    # filled with what differs from the oracle's, so a slot left unwritten shows
    soc, sensing = np.full((k, n), np.nan), ~ref_sensing
    K.step_world(*got, soc=soc, sensing=sensing)
    for a, b in zip(ref + [ref_soc, ref_sensing], got + [soc, sensing]):
        assert a.tobytes() == b.tobytes()  # bit for bit, in C order


def _send_out(arrays, uavs, ugvs, static, spot):
    """Schedule pairs on a stack's kernel arrays through the simulator's
    ``_schedule``: sensing rows ``uavs`` to idle vehicles ``ugvs``. Each
    vehicle is a world of its own, a static pad where ``static`` is set,
    with its sensing spot at the home of UAV row ``spot``."""
    uf, ui, gf, gi = arrays
    n = len(uf)
    stack = simulator.World(config=ScenarioConfig(), scheme=SCHEME_OURS, seed=0, uav_f=uf,
                            uav_i=ui, ugv_f=gf, ugv_i=gi, bidder=np.zeros(n, dtype=bool),
                            fail_count=np.zeros(n, dtype=np.int64), phi_sum=np.zeros(n),
                            rho_sum=np.zeros(n), sample_count=np.zeros(n, dtype=np.int64))
    # the layout fields _schedule reads
    layout = SimpleNamespace(ugv_world=np.arange(len(gf)), static=static,
                             spot_x=uf[spot, K.F_HOME_X], spot_y=uf[spot, K.F_HOME_Y])
    simulator._schedule(stack, layout, uavs, ugvs)


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          phases=(Phase.explicit, Phase.generate))
@given(index=st.integers(0, 199), seed=st.integers(0, 2**16), order=st.sampled_from("CF"),
       blocks=st.lists(st.tuples(st.integers(1, 32), st.booleans()), min_size=2, max_size=6))
def test_carried_blocks_step_as_a_slot_loop(index, seed, order, blocks):
    # consecutive step_world calls on one carry, on a stack whose rows
    # arrive, land, top out, end or starve their sessions and find their
    # pads ready across the blocks, against the loop oracle block by
    # block: every array and both buffers, bit for bit. After a block
    # marked True, sensing rows are sent to idle mobile vehicles and
    # static pads as _schedule sends them, and the carry is dropped, as
    # _run_lockstep drops it
    state = with_transitions_within(sweep_states()[index], sum(k for k, _ in blocks), seed)
    rng = np.random.default_rng(seed)
    n = state[0].shape[0]
    ref = [a.copy() for a in state]
    got = [np.array(a, order=order) for a in state]
    carry = None
    for k, schedule in blocks:
        ref_soc, ref_sensing = np.empty((k, n)), np.empty((k, n), dtype=bool)
        step_block_loop(*ref, soc=ref_soc, sensing=ref_sensing)
        # filled with what differs from the oracle's, so a slot left unwritten shows
        soc, sensing = np.full((k, n), np.nan), ~ref_sensing
        carry = K.step_world(*got, soc=soc, sensing=sensing, carry=carry)
        for a, b in zip(ref + [ref_soc, ref_sensing], got + [soc, sensing]):
            assert a.tobytes() == b.tobytes()  # bit for bit, in C order
        sense = np.flatnonzero(ref[1][:, K.I_ACT] == K.ACT_SENSE)
        idle = np.flatnonzero(ref[3][:, K.GI_STATE] == K.UGV_IDLE)
        pairs = min(sense.size, idle.size)
        if schedule and pairs:
            pairs = rng.integers(1, pairs + 1)
            uavs = rng.choice(sense, pairs, replace=False)
            ugvs = rng.choice(idle, pairs, replace=False)
            m = len(ref[2])
            static, spot = rng.random(m) < 0.5, rng.integers(0, n, m)
            for arrays in (ref, got):
                _send_out(arrays, uavs, ugvs, static, spot)
            carry = None


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          phases=(Phase.explicit, Phase.generate))
@given(index=st.integers(0, 199), k=st.integers(1, 32), seed=st.integers(0, 2**16))
def test_a_sensing_row_senses_and_drains_to_the_end_of_its_block(index, k, seed):
    # what _book's early return rests on: within one step_world call a
    # row that senses at a slot senses at every later slot, and its SoC
    # never rises between two of its sensing slots, also when it is
    # clamped at 0 mid-block
    uf, ui, gf, gi = with_transitions_within(sweep_states()[index], k, seed)
    rng = np.random.default_rng(seed)
    low = (ui[:, K.I_ACT] == K.ACT_SENSE) & (rng.random(len(uf)) < 0.2)
    uf[low, K.F_SOC] = rng.uniform(0.0, k, low.sum()) * uf[low, K.F_DRAIN_HOV]
    soc, sensing = np.empty((k, len(uf))), np.empty((k, len(uf)), dtype=bool)
    K.step_world(uf, ui, gf, gi, soc=soc, sensing=sensing)
    assert (sensing[1:] >= sensing[:-1]).all()
    assert not (sensing[:-1] & (soc[1:] > soc[:-1])).any()


_BOOK_CASES = ("bidders at start", "join at the last slot", "fly-back arrival joins",
               "SoC clamped at 0", "excluded rows", "idle block")
_BOOKED = ("bidder", "phi_sum", "rho_sum", "sample_count")


@settings(derandomize=True, database=None, deadline=None, max_examples=200,
          phases=(Phase.explicit, Phase.generate))
@given(index=st.integers(0, 199), k=st.integers(1, 32), seed=st.integers(0, 2**16),
       case=st.sampled_from(_BOOK_CASES))
def test_book_matches_the_scalar_oracle_on_a_block(index, k, seed, case):
    # _book on a k-slot step_world block of a three-world stack against
    # book_loop, UAV by UAV and slot by slot: every bookkeeping array, by
    # bytes. Each case shapes the block so that what it names happens
    # in it; in an idle block (no bidder, no row can join) neither may
    # write anything, so the arrays are read-only there
    if case == "fly-back arrival joins":
        k = max(k, 2)  # arrives mid-block
    uf, ui, gf, gi = with_transitions_within(sweep_states()[index], k, seed)
    rng = np.random.default_rng(seed)
    n = len(uf)
    cfg = ScenarioConfig()
    alert = cfg.uav_alert_frac * uf[:, K.F_CAP]
    sense0 = ui[:, K.I_ACT] == K.ACT_SENSE  # at the block's start
    excluded = sense0 & (rng.random(n) < 0.15)
    bidder = np.zeros(n, dtype=bool)
    count = np.zeros(n, dtype=np.int64)
    if case == "bidders at start":
        bidder = sense0 & ~excluded & (rng.random(n) < 0.3)
        bidder[rng.choice(np.flatnonzero(sense0 & ~excluded))] = True
        count[bidder] = rng.integers(1, 40, bidder.sum())
    phi_sum = count * rng.uniform(1.0, 6.0, n)
    rho_sum = count * rng.uniform(0.0, 1.0, n)
    free = np.flatnonzero(sense0 & ~excluded & ~bidder)
    if case == "fly-back arrival joins":
        r = rng.choice(free)  # flies home and arrives at slot t of 2..k
        t = rng.integers(2, k + 1)
        ui[r, K.I_ACT] = K.ACT_FLY_BACK
        uf[r, K.F_TX], uf[r, K.F_TY] = uf[r, K.F_HOME_X], uf[r, K.F_HOME_Y]
        uf[r, K.F_X] = uf[r, K.F_HOME_X] - (t - 0.5) * uf[r, K.F_STEP_XY]
        uf[r, K.F_Y] = uf[r, K.F_HOME_Y]
    if case == "SoC clamped at 0":
        low = rng.choice(free, 3, replace=False)  # run dry at a slot of 1..k
        uf[low, K.F_SOC] = (rng.integers(1, k + 1, 3) - 0.5) * uf[low, K.F_DRAIN_HOV]
    soc, sensing = np.empty((k, n)), np.empty((k, n), dtype=bool)
    K.step_world(uf, ui, gf, gi, soc=soc, sensing=sensing)

    rho = np.minimum(1.0 - (soc - alert) / uf[:, K.F_CAP], 1.0)
    can_join = sensing & ~excluded
    enter = rng.uniform(0.0, 1.0)
    if case == "join at the last slot":
        enter = rho[-1][can_join[-1]].max()
    elif case == "fly-back arrival joins":
        assert not sensing[0, r] and sensing[-1, r]
        enter = rho[:, r][sensing[:, r]][0]
    elif case == "excluded rows":
        enter = 0.0
        assert (sensing & excluded).any()
    elif case == "idle block":
        # rows below the alert level are excluded: their urgency is 1
        excluded |= sensing[-1] & (rho[-1] >= 1.0)
        can_join = sensing & ~excluded
        enter = np.nextafter(rho[can_join].max(initial=0.0), np.inf)
    passes = can_join & (rho >= enter)
    if case == "join at the last slot":
        assert passes[-1].any() and not passes[:-1].any()
    if case == "SoC clamped at 0":
        assert (soc[-1, low] == 0.0).all() and passes[-1, low].all()
    if case == "idle block":
        assert not passes.any()

    def world():
        w = simulator.World(config=cfg.replace(enter_urgency=float(enter)), scheme=SCHEME_OURS,
                            seed=0, uav_f=uf, soc_alert=alert, bidder=bidder.copy(),
                            excluded=excluded.copy(), phi_sum=phi_sum.copy(),
                            rho_sum=rho_sum.copy(), sample_count=count.copy())
        if case == "idle block":
            for name in _BOOKED:
                getattr(w, name).flags.writeable = False
        return w

    got, want = world(), world()
    simulator._book(got, soc, sensing)
    conftest.book_loop(want, soc, sensing)
    for name in _BOOKED + ("excluded",):
        assert getattr(got, name).tobytes() == getattr(want, name).tobytes(), name
    if case == "fly-back arrival joins":
        assert got.bidder[r] and got.sample_count[r] == sensing[:, r].sum()
    if case in ("excluded rows", "SoC clamped at 0"):
        assert (got.bidder == (bidder | passes.any(0))).all()


def test_bidderless_windows_with_and_without_an_idle_vehicle():
    # found by the property test against a fast path that always wrote
    # ugv_utility as the float 0.0: with every vehicle busy, the empty
    # market's ugv_utility is the empty sum, the int 0, and with an idle
    # vehicle the kept outcome lists it at utility 0.0
    specs = [
        (11, 5, 0.5, 3, 0.0, 0.36, 1, 5.0, SCHEME_OURS, 0, None),
        (1, 1, 0.5, 1, 0.0, 0.0, 1, 5.0, SCHEME_OURS, 0, None),
        (1, 1, 0.5, 1, 0.0, 0.0, 1, 500.0, SCHEME_OURS, 0, None),
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
        (12, 1, 0.5, 2, 0.1, 0.15, 3, 500.0, SCHEME_OURS, 1, None),
        (10, 3, 2.0, 2, 0.1, 0.15, 2, 5.0, SCHEME_STATIC, 2, None),
        (8, 2, 1.0, 3, 0.1, 0.15, 2, 40.0, SCHEME_OURS, 3, None),
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


# ranked bids built from one end, the top bid less the gaps below it or
# the smallest bid plus the gaps above it. Gaps of 4·eps·(1 ± 1e-3), a
# smallest bid near 2·eps and a largest near 2**30 straddle the bounds of
# regular bids; gaps up to eps, bids below eps and bids of 1e10 and up
# (where an ulp is eps or more, so a nudge moves a bid a whole ulp or not
# at all) fall outside them
_EPS = DEVIATION_EPS
_gap = (st.sampled_from([4 * _EPS * (1 - 1e-3), 4 * _EPS * (1 + 1e-3), _EPS, _EPS / 2, 0.0])
        | st.floats(1e-5, 3.0))
_top = st.sampled_from([2.0 ** 30 * (1 - 2 ** -20), 2.0 ** 30, 1e10, 1e16]) | st.floats(1.0, 10.0)
_smallest = (st.sampled_from([2 * _EPS * (1 - 1e-3), 2 * _EPS * (1 + 1e-3), _EPS, _EPS / 2, 0.0])
             | st.floats(1e-5, 1.0))


@st.composite
def _ranked_bids(draw):
    gaps = np.cumsum([0.0] + draw(st.lists(_gap, max_size=7)))
    if draw(st.booleans()):
        return np.maximum(draw(_top) - gaps, 0.0)
    return (draw(_smallest) + gaps)[::-1]


def _ranks_reached(markets):
    """``audit._regular_bids`` of ranked bid lists, and ``reached[i, t, p]``:
    bidder p of market i reaches rank t on its deviation grid, read off
    ``_grid_best`` of a gain table that is 1.0 at rank t and 0.0 elsewhere.
    Ids ascend by rank, as ties rank them."""
    n = np.array([len(m) for m in markets])
    N = n.max()
    b = np.zeros((len(markets), N + 1))
    for i, m in enumerate(markets):
        b[i, :len(m)] = m
    ids = np.where(np.arange(N) < n[:, None], np.arange(N), np.inf)
    one_hot = np.broadcast_to(np.eye(N)[:, None, :], (N, N, N))  # [t, p, r]
    best = audit._grid_best(np.tile(one_hot, (len(markets), 1, 1)), np.repeat(n, N),
                            np.repeat(ids, N, axis=0), np.repeat(b[:, :N], N, axis=0))
    return audit._regular_bids(n, b), best.reshape(len(markets), N, N) == 1.0


@settings(derandomize=True, database=None, deadline=None, max_examples=300,
          phases=(Phase.explicit, Phase.generate))
@given(markets=st.lists(_ranked_bids(), min_size=1, max_size=6))
def test_the_grid_of_a_market_with_regular_bids_reaches_every_rank(markets):
    # the lemma behind the audit's row maximum: a market called regular
    # has every bidder reach every rank 0..n-1 on its grid, so the grid's
    # best gain is the maximum over those ranks. No grid bid of any
    # market reaches a rank past its opponents
    regular, reached = _ranks_reached(markets)
    for i, bids in enumerate(markets):
        n = len(bids)
        assert not reached[i, n:].any()
        if regular[i]:
            assert reached[i, :n, :n].all(), bids
        if (np.diff(bids) >= -_EPS).any() or bids[-1] < _EPS or bids[0] >= 1e10:
            assert not regular[i], bids


def test_regular_bids_at_their_bounds():
    # each bound decides on its own: the gaps 4·eps·(1 ± 1e-3) apart, the
    # smallest bid at 2·eps·(1 ± 1e-3) and the largest just below 2**30
    # and at it
    wide, narrow = 4 * _EPS * (1 + 1e-3), 4 * _EPS * (1 - 1e-3)
    high, low = 2 * _EPS * (1 + 1e-3), 2 * _EPS * (1 - 1e-3)
    markets = [[1.0, 1.0 - wide, 0.5, high], [2.0 ** 30 - 1024, 1.0], [1.0, 1.0 - narrow, 0.5],
               [1.0, low], [2.0 ** 30, 1.0], [high], [low]]
    regular, reached = _ranks_reached(markets)
    assert regular.tolist() == [True, True, False, False, False, True, False]
    for i, bids in enumerate(markets):
        assert reached[i, :len(bids), :len(bids)].all() or not regular[i]


# a regular market's bids: 1 + steps of at least 1e-3; a near-tie
# market's: levels, some of them a nudge or two apart, and a tie
_spread_bids = st.lists(st.floats(1e-3, 1.0), max_size=7).map(
    lambda g: (1.0 + np.cumsum([0.0] + g)).tolist())
_tied_bids = st.lists(st.sampled_from([1.0, 2.5, 2.5 - _EPS, 2.5 + _EPS, 2.5 + 2 * _EPS, 6.0]),
                      min_size=1, max_size=8).map(lambda b: b + b[:1])


@st.composite
def _split_markets(draw):
    markets = []
    for bids in draw(st.lists(_spread_bids, min_size=1, max_size=4)) + draw(
            st.lists(_tied_bids, min_size=1, max_size=4)):
        shades = draw(st.lists(st.sampled_from([0.5, 1.0, 1.0, 2.0]), min_size=len(bids),
                               max_size=len(bids)))
        ids = draw(st.lists(st.integers(0, 10**9), min_size=len(bids), max_size=len(bids),
                            unique=True))
        qs = draw(st.lists(_q, max_size=8))
        markets.append(WindowMarket(0, [DemandEntry(i, b * s, b)
                                        for i, b, s in zip(ids, bids, shades)],
                                    [SupplyEntry(j, q) for j, q in enumerate(qs)]))
    return draw(st.permutations(markets))


@settings(derandomize=True, database=None, deadline=None, max_examples=100,
          phases=(Phase.explicit, Phase.generate))
@given(markets=_split_markets(), chunk_cells=st.sampled_from([1, 40, 1 << 16]))
def test_only_the_irregular_markets_of_a_chunk_take_the_grid(markets, chunk_cells):
    # a chunk reads its regular markets' best gains off the rank table and
    # prices only its irregular markets' grids; the fields equal those of
    # every market priced on its grid, and the scalar probes', by repr
    flat = audit._flat_sides(markets)
    taken = []
    grid_best = audit._grid_best

    def counted(gain, n, ids, bids):
        taken.append(len(n))
        return grid_best(gain, n, ids, bids)

    with mock.patch.object(audit, "_CHUNK_CELLS", chunk_cells):
        with mock.patch.object(audit, "_grid_best", counted):
            fields = audit._audit_arrays(*flat)
        with mock.patch.object(audit, "_regular_bids", lambda n, b: np.zeros(len(n), bool)):
            forced = audit._audit_arrays(*flat)
    assert repr(fields) == repr(forced) == repr([audit_fields(mk) for mk in markets])
    # the spread markets are regular and the tied ones not, so a chunk
    # of the whole batch splits
    assert sum(taken) == sum(len({e.bid for e in mk.demand}) < mk.num_uavs for mk in markets)
    if chunk_cells == 1 << 16:
        assert 0 < taken[0] < len(markets)


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
