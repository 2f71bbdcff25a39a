"""Shared helpers: scalar oracles for the package's array paths.

Each oracle computes its answer its own way, but some take steps from the
package that they are not the reference for:

* ``admit`` and ``run_auction``: ``close_window_loop`` builds and clears a
  market through them, the scalar path the sweep's array clearing must
  equal (``mechanism``'s own tests hold them to the paper's rules);
* ``with_replaced_bid`` and ``deviation_grid``: ``replay_deviation_probe``
  replays the misreports the audit probes, on the audit's own grid;
* ``market_values``: ``truthful_draws`` draws each market as
  ``random_market`` does, so the batch it checks sees the same values;
* ``K.step_world``: ``run_world_windowwise`` steps a world one slot at a
  time with it, and books each slot through ``book_loop``; the kernel's
  own tests hold it to ``step_world_loop``.

The rest are layouts, constants and value types.
"""

import bisect
import csv
import io
import itertools
import math
import os
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np
import pytest

import skymarket._kernels as K
from skymarket._kernels import (  # the names step_world_loop reads
    ACT_ASCEND, ACT_CHARGE, ACT_DESCEND, ACT_FLY_BACK, ACT_FLY_OUT, ACT_SENSE, ACT_WAIT,
    F_CAP, F_CHARGE_GAIN, F_CRUISE_Z, F_DRAIN_ASC, F_DRAIN_DESC, F_DRAIN_FLY, F_DRAIN_HOV,
    F_HOME_X, F_HOME_Y, F_SAT, F_SOC, F_STEP_DOWN, F_STEP_UP, F_STEP_XY, F_SUPPLY_DRAW,
    F_TX, F_TY, F_X, F_Y, F_Z, G_STEP, G_SUPPLY, G_TX, G_TY, G_X, G_Y, GI_PARTNER, GI_STATE,
    I_ACT, I_PARTNER, UGV_ENROUTE, UGV_IDLE, UGV_SERVING,
)
from skymarket.audit import (
    DEVIATION_EPS, DEVIATION_MULTIPLIERS, UTILITY_TOL, EnvyStats, audit_market, deviation_grid,
    market_values,
)
from skymarket.energy import ascend_power, descend_power, flight_power, hover_power
from skymarket.mechanism import (  # close_window_loop looks up admit and run_auction here
    DemandEntry, admit, loser_line, rank_payments, run_auction, uav_utility, winner_line,
    with_replaced_bid,
)
from skymarket.metrics import MetricsRow
from skymarket.simulator import SCHEME_STATIC
from skymarket.types import Activity, AuctionOutcome


def _run_child(*argv):
    """Run ``python argv...`` in a child process that imports the same
    copy of skymarket as this one."""
    src_dir = str(Path(K.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src_dir, inherited))))
    return subprocess.run([sys.executable, *argv], env=env, capture_output=True, text=True)


def run_benchmark_script(name, *args):
    """Run ``benchmarks/<name>`` with ``args`` in a child process."""
    return _run_child(str(Path(__file__).resolve().parents[1] / "benchmarks" / name), *args)


def run_cli_process(*argv):
    """Run ``skymarket argv...`` in a fresh child process."""
    return _run_child("-m", "skymarket", *argv)


def naive_best_assignment(phi_values, q_values):
    """Max of sum(phi * q) over one-to-one assignments, by raw enumeration.

    Deliberately dumb (itertools over the full injection space) so it can
    arbitrate the package's pruned search and the auction's allocation.
    """
    if not phi_values or not q_values:
        return 0.0
    if len(phi_values) <= len(q_values):
        small, large = list(phi_values), list(q_values)
    else:
        small, large = list(q_values), list(phi_values)
    best = -np.inf
    for perm in itertools.permutations(range(len(large)), len(small)):
        score = sum(small[t] * large[perm[t]] for t in range(len(small)))
        best = max(best, score)
    return best


def payment_unrolled(market, allocation, j):
    """Telescoped form of the rank-j payment (1-based j), for cross-checks:
    sum_{k=j}^{K-1} (q_k - q_{k+1}) * b_{k+1} plus the last winner's base."""
    k = len(allocation)
    total = 0.0
    for t in range(j - 1, k - 1):
        total += (allocation[t].q - allocation[t + 1].q) * allocation[t + 1].bid
    if market.num_ugvs < market.num_uavs:
        q_last = market.supply_ranked[market.num_ugvs - 1].q
        total += q_last * market.demand_ranked[market.num_ugvs].bid
    return total


def payment_closed_form(allocation, j):
    """Boundary-term-free closed form sum_{k=j}^{K-1} (q_k - q_{k+1}) b_{k+1}.

    Matches the recursion only when supply covers demand (the last winner
    then pays zero); with excess demand it omits the base term on purpose.
    """
    k = len(allocation)
    total = 0.0
    for t in range(j - 1, k - 1):
        total += (allocation[t].q - allocation[t + 1].q) * allocation[t + 1].bid
    return total


def replay_deviation_probe(market, uav_id, grid=None):
    """Max misreport gain of ``uav_id`` by replaying the whole auction once
    per grid bid: the oracle for the closed-form ``deviation_probe``."""
    base_utility = run_auction(market).uav_utilities[uav_id]
    best_gain = float("-inf")
    candidates = list(grid) if grid is not None else deviation_grid(market, uav_id)
    for b_prime in candidates:
        outcome = run_auction(with_replaced_bid(market, uav_id, b_prime))
        best_gain = max(best_gain, outcome.uav_utilities[uav_id] - base_utility)
    return best_gain


def non_envy_ratio_loop(outcome, phi_bars):
    """Non-envy ratios by a scan of every participant over every other
    winner slot: the oracle for ``non_envy_ratio`` and ``audit_market``."""
    slots = [(m.q, p) for m, p in zip(outcome.winners, outcome.payments)]
    winner_rank = {m.uav_id: j for j, m in enumerate(outcome.winners)}
    participants = [m.uav_id for m in outcome.winners] + list(outcome.losers)
    if not participants:
        return EnvyStats(1.0, 1.0, ())

    envious = []
    for uav_id in participants:
        own = outcome.uav_utilities.get(uav_id, 0.0)
        phi = phi_bars[uav_id]
        own_rank = winner_rank.get(uav_id)
        for j, (q, p) in enumerate(slots):
            if j == own_rank:
                continue
            if uav_utility(phi, q, p) > own + UTILITY_TOL:
                envious.append(uav_id)
                break

    n_all = len(participants)
    n_win = len(outcome.winners)
    envious_winners = sum(1 for u in envious if u in winner_rank)
    ratio_all = (n_all - len(envious)) / n_all
    ratio_win = 1.0 if n_win == 0 else (n_win - envious_winners) / n_win
    return EnvyStats(ratio_all, ratio_win, tuple(envious))


def check_stability_loop(outcome, phi_bars, qs):
    """Blocking pairs by a scan of every (participant, vehicle) pair: the
    oracle for ``check_stability`` and ``audit_market``."""
    pay_by_ugv = {m.ugv_id: p for m, p in zip(outcome.winners, outcome.payments)}
    occupant = {m.ugv_id: m.uav_id for m in outcome.winners}
    slot_q = {m.ugv_id: m.q for m in outcome.winners}
    participants = [m.uav_id for m in outcome.winners] + list(outcome.losers)
    matched_ugv = {m.uav_id: m.ugv_id for m in outcome.winners}

    def prefers_elsewhere(uav_id):
        own = outcome.uav_utilities.get(uav_id, 0.0)
        phi = phi_bars[uav_id]
        here = matched_ugv.get(uav_id)
        options = [0.0]  # walking away is always available
        options += [
            uav_utility(phi, slot_q[v], pay_by_ugv[v])
            for v in slot_q
            if v != here
        ]
        return any(alt >= own - UTILITY_TOL for alt in options)

    movable = {occ: prefers_elsewhere(occ) for occ in occupant.values()}
    blocking = []
    for uav_id in participants:
        own = outcome.uav_utilities.get(uav_id, 0.0)
        phi = phi_bars[uav_id]
        here = matched_ugv.get(uav_id)
        for ugv_id, q in qs.items():
            if ugv_id == here:
                continue
            alt = uav_utility(phi, q, pay_by_ugv.get(ugv_id, 0.0))
            if alt <= own + UTILITY_TOL:
                continue
            occ = occupant.get(ugv_id)
            if occ is None or movable[occ]:
                blocking.append((uav_id, ugv_id))
    return blocking


def market_tolerance(market):
    """The audit's tolerance for ``market``: ``UTILITY_TOL`` times its
    largest q times its largest valuation or bid, at least 1."""
    q_max = max((s.q for s in market.supply), default=0.0)
    top = max((v for e in market.demand for v in (e.phi_bar, e.bid)), default=0.0)
    return UTILITY_TOL * max(1.0, q_max * top)


def _misreport_payments(q, bids, p, top):
    """Payment by rank that the bidder at rank position ``p`` of ``bids``
    would pay after moving to that rank: ``rank_payments`` over the other
    bids. ``top``, the result for p = 0, already holds every rank from a
    winning position p down, so only the ranks above p are redone."""
    if p >= len(top):
        return rank_payments(bids[p:p + 1] + bids[:p] + bids[p + 1:], q)
    pay = top[:]
    for j in range(p - 1, -1, -1):
        pay[j] = (q[j] - q[j + 1]) * bids[j] + pay[j + 1]
    return pay


def _nudged(bids):
    return [v for b in bids for v in (b - DEVIATION_EPS, b + DEVIATION_EPS) if v >= 0.0]


def ic_gains(market, outcome):
    """Every bidder's best gain over its ``deviation_grid``, by rank: the
    scalar IC probe, and the oracle for ``audit_markets``' IC fields.

    Each grid bid lands at a rank among the bidder's opponents (ties by
    id) and pays ``rank_payments`` over them there, so each bidder's
    utility is evaluated once per distinct rank its grid reaches.
    """
    ranked = market.demand_ranked
    bids = [e.bid for e in ranked]
    keys = [(-e.bid, e.uav_id) for e in ranked]
    negs = [-b for b in bids]
    q = [s.q for s in market.supply_ranked]
    n, k = len(bids), min(len(bids), len(q))
    top = rank_payments(bids, q)
    # every loser's misreports face the same payments
    bottom = _misreport_payments(q, bids, k, top) if k < n else None

    def rank(e, v):  # its own key sorts before (-v, id) exactly when v < its bid
        return bisect.bisect_left(keys, (-v, e.uav_id)) - (v < e.bid)

    # the opponent nudges of every grid, with the number of bids above
    # each: a nudge that ties no bid lands there whoever makes it, less
    # one if it is below the mover's own bid
    nudges = []
    for j, b in enumerate(bids):
        for v in _nudged((b,)):
            above = bisect.bisect_left(negs, -v)
            nudges.append((j, v, above if above == bisect.bisect_right(negs, -v) else None))
    gains = []
    for p, e in enumerate(ranked):
        t = e.bid
        ranks = {rank(e, v) if above is None else above - (v < t)
                 for j, v, above in nudges if j != p}
        if len(ranks) < n:  # else the nudges reach every rank, 0..n-1, already
            ranks.update(rank(e, t * m) for m in DEVIATION_MULTIPLIERS if t * m >= 0.0)
        pay = top if p == 0 else bottom if p >= k else _misreport_payments(q, bids, p, top)
        base = outcome.uav_utilities[e.uav_id]
        gains.append(max(
            ((uav_utility(e.phi_bar, q[r], pay[r]) if r < k else 0.0) - base for r in ranks),
            default=float("-inf"),
        ))
    return gains


@dataclass
class SlotTable:
    """Each participant's utility at every vehicle at that vehicle's
    cleared payment (0 for an unmatched vehicle). Rows are the winners
    by rank, then the losers; columns the winners' vehicles by rank, then
    the unmatched ones, so the first ``winners`` rows and columns pair
    each winner with its own slot. ``tempted`` lists the rows that prefer
    some vehicle to their own by more than ``tol``."""

    participants: list
    own: list
    winners: int
    vehicles: list
    values: list
    tempted: list
    tol: float


def slot_table(outcome, phi_bars, qs, tol=UTILITY_TOL):
    """The table over the winners' vehicles and the vehicles of ``qs``
    that no winner holds."""
    vehicles = [m.ugv_id for m in outcome.winners]
    slots = [(m.q, p) for m, p in zip(outcome.winners, outcome.payments)]
    held = set(vehicles)
    for v, q in qs.items():
        if v not in held:
            vehicles.append(v)
            slots.append((q, 0.0))
    participants = [m.uav_id for m in outcome.winners] + list(outcome.losers)
    values = [[uav_utility(phi, q, p) for q, p in slots]
              for phi in [phi_bars[i] for i in participants]]
    own = [outcome.uav_utilities.get(i, 0.0) for i in participants]
    tempted = [row for row, (u, row_values) in enumerate(zip(own, values))
               if row_values and max(row_values) > u + tol]
    return SlotTable(participants, own, len(outcome.winners), vehicles, values, tempted, tol)


def _other_slots(table, row):
    """A row's values at the winners' slots other than its own."""
    values, k = table.values[row], table.winners
    return values[:min(row, k)] + values[row + 1:k]


def envy_stats(table):
    """``EnvyStats`` of a ``slot_table``."""
    participants = table.participants
    if not participants:
        return EnvyStats(1.0, 1.0, ())
    envious = [
        row for row in table.tempted
        if max(_other_slots(table, row), default=float("-inf")) > table.own[row] + table.tol
    ]
    n_all, n_win = len(participants), table.winners
    envious_winners = sum(1 for row in envious if row < n_win)
    ratio_all = (n_all - len(envious)) / n_all
    ratio_win = 1.0 if n_win == 0 else (n_win - envious_winners) / n_win
    return EnvyStats(ratio_all, ratio_win, tuple(participants[row] for row in envious))


def blocking_pairs(table, qs):
    """The blocking pairs of a ``slot_table`` over the vehicles of ``qs``,
    in its order."""
    if not table.tempted:
        return []
    k, tol = table.winners, table.tol
    # a winner moves if it weakly prefers walking away or another slot
    movable = [max([0.0] + _other_slots(table, row)) >= table.own[row] - tol
               for row in range(k)]
    column = {v: c for c, v in enumerate(table.vehicles)}
    offered = [(column[v], v) for v in qs if v in column]
    blocking = []
    for row in table.tempted:
        uav_id, own, values = table.participants[row], table.own[row], table.values[row]
        here = row if row < k else -1
        for c, v in offered:
            if c != here and values[c] > own + tol and (c >= k or movable[c]):
                blocking.append((uav_id, v))
    return blocking


def check_ir(outcome, tol=UTILITY_TOL):
    """Agents settled below -``tol`` as (kind, id, utility): the oracle
    for the IR count of ``audit_markets``."""
    return ([("uav", i, u) for i, u in outcome.uav_utilities.items() if u < -tol]
            + [("ugv", j, u) for j, u in outcome.ugv_utilities.items() if u < -tol])


def audit_fields(market):
    """An ``AuditReport``'s fields after the instance name, by the scalar
    probes above: the oracle for ``audit_markets``."""
    outcome = run_auction(market)
    tol = market_tolerance(market)
    gains = ic_gains(market, outcome)
    qs = {s.ugv_id: s.q for s in market.supply}
    table = slot_table(outcome, {e.uav_id: e.phi_bar for e in market.demand}, qs, tol)
    envy = envy_stats(table)
    return (len(check_ir(outcome, tol)), sum(g > tol for g in gains), max(gains, default=0.0),
            envy.all_participants, envy.winners_only, len(blocking_pairs(table, qs)))


def truthful_draws(rngs, config):
    """Truthful markets drawn one after another, each by ``market_values``
    as ``random_market`` draws it: ``rngs`` yields (generator, bidders,
    vehicles) per market, and the result is the bidder counts, vehicle
    counts, valuations and quality scores, concatenated market by market.
    The oracle for ``presets._truthful_batch``."""
    n_uavs, n_ugvs, phis, qs = [], [], [], []
    for rng, n, m in rngs:
        phi, _, q = market_values(rng, n, m, config.mu0, config.mu1, config.qors_floor)
        n_uavs.append(n)
        n_ugvs.append(m)
        phis.append(phi)
        qs.append(q)
    return n_uavs, n_ugvs, np.concatenate(phis), np.concatenate(qs)


def audit_suite_draw(config, seed, instances, max_size):
    """The audit suite's market names and ``truthful_draws``, market by
    market from one generator: a bidder count and a vehicle count from 1
    to ``max_size``, then the market's values."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
    names = []

    def markets():
        for k in range(instances):
            n = int(rng.integers(1, max_size + 1))
            m = int(rng.integers(1, max_size + 1))
            names.append(f"i{k}-{n}x{m}")
            yield rng, n, m

    return names, truthful_draws(markets(), config)


def outcome_lines(outcome):
    """An outcome's ``outcomes.csv`` lines, one per participating UAV:
    winners first by rank (``mechanism.winner_line``), then losers in
    rank order (``mechanism.loser_line``), each after the window id. The
    oracle for ``MetricsColumns.outcome_text``, which writes these lines
    from the kept ``Trade`` records without building any outcome."""
    lead = f"{outcome.window_id},"
    utilities = outcome.uav_utilities
    lines = [lead + winner_line(m.uav_id, m.ugv_id, m.bid, m.q, p, utilities[m.uav_id], m.rank)
             for m, p in zip(outcome.winners, outcome.payments)]
    lines += [lead + loser_line(uav_id) for uav_id in outcome.losers]
    return lines


def outcome_rows(outcome):
    """Flatten an outcome to tuple rows for ``csv.writer``, one per
    participating UAV: the oracle for ``outcome_lines``, and so for the
    line formats ``mechanism.winner_line`` and ``loser_line``.

    Losers carry empty ugv/q/rank fields, a zero payment, and zero
    utility, matching their settlement.
    """
    rows = []
    for m, p in zip(outcome.winners, outcome.payments):
        rows.append(
            (
                outcome.window_id,
                m.uav_id,
                m.ugv_id,
                m.bid,
                m.q,
                p,
                outcome.uav_utilities[m.uav_id],
                m.rank,
            )
        )
    for uav_id in outcome.losers:
        rows.append((outcome.window_id, uav_id, "", "", "", 0.0, 0.0, ""))
    return rows


def csv_writer_text(rows):
    """The text ``csv.writer`` writes for ``rows``, with the ``\n`` line
    ending of the package's CSV files."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def rendezvous(spot, ugv_pos):
    """Meeting point for a matched pair: the spot-to-vehicle midpoint."""
    return ((spot[0] + ugv_pos[0]) / 2.0, (spot[1] + ugv_pos[1]) / 2.0)


def satisfaction_level(outcome, rho_bars):
    """Allocation quality weighted by urgency: sum of q_j * rho_bar_i."""
    total = 0.0
    for m in outcome.winners:
        total += m.q * rho_bars[m.uav_id]
    return total


def close_window_loop(world):
    """Clear the pending window of ``world`` through a market object:
    the scalar oracle for ``simulator.close_window`` and the sweep's
    ``_close_boundary``, which clear it from arrays without building one.

    Reads the market inputs as whole-array slices: the queued bidders'
    window-average valuations and urgencies, their satisfaction gaps, and
    each idle vehicle's quality score and remaining supply. Clears the
    market through ``admit`` and ``run_auction`` (looked up in this
    module, so a test can patch them) and schedules rendezvous for
    matched pairs; losers are settled one at a time by
    ``settle_losers_loop``. ``world`` may be a member of a stack. Every
    bid is truthful, so the row's non-envy ratio is the 1.0 of the
    paper's envy-freeness theorem. Returns (outcome, metrics row, the
    market it cleared).
    """
    c = world.config
    spw = c.slots_per_window
    if world.clock % spw != 0 or world.clock == 0:
        raise ValueError(f"clock {world.clock} is not at a window boundary")
    window_id = world.clock // spw

    ids = np.flatnonzero(world.bidder & (world.sample_count > 0))
    soc = world.uav_f[ids, F_SOC]
    for s, cap in zip(soc.tolist(), world.uav_f[ids, F_CAP].tolist()):
        if not 0.0 <= s <= cap:
            raise ValueError(f"window {window_id}: a bidder's SoC left [0, capacity]")
    n_s = world.sample_count[ids]
    # plain ints and floats from here on: outcomes are written to CSV
    bidder_ids = ids.tolist()
    phi = (world.phi_sum[ids] / n_s).tolist()
    rho_bars = dict(zip(bidder_ids, (world.rho_sum[ids] / n_s).tolist()))
    gaps = (world.uav_f[ids, F_SAT] - soc).tolist()
    demand = list(map(DemandEntry, bidder_ids, phi, phi))  # truthful bids

    idle = np.flatnonzero(world.ugv_i[:, GI_STATE] == UGV_IDLE).tolist()
    supply = world.ugv_f[idle, G_SUPPLY].tolist()
    offers = list(zip(idle, world.qors(idle), supply))

    market = admit(demand, offers, window_id, gaps)
    outcome = run_auction(market)

    row = MetricsRow(
        scheme=world.scheme,
        ugv_count=c.ugv_count,
        tau=c.window_len,
        seed=world.seed,
        window=window_id,
        sl=satisfaction_level(outcome, rho_bars),
        uav_utility=sum(outcome.uav_utilities.values()),
        ugv_utility=sum(outcome.ugv_utilities.values()),
        surplus=outcome.social_surplus,
        non_envy_ratio=1.0,  # truthful bids: envy-free by the paper's theorem
        winners=outcome.num_winners,
    )

    # schedule matched pairs
    for m in outcome.winners:
        i, j = m.uav_id, m.ugv_id
        pad = (world.ugv_f[j, G_X], world.ugv_f[j, G_Y])
        meet = pad if world.scheme == SCHEME_STATIC else rendezvous(world.spot, pad)
        world.uav_i[i, I_ACT] = ACT_FLY_OUT
        world.uav_i[i, I_PARTNER] = j + world.ugv_base
        world.uav_f[i, F_TX] = meet[0]
        world.uav_f[i, F_TY] = meet[1]
        world.ugv_i[j, GI_PARTNER] = i + world.uav_base
        if world.scheme == SCHEME_STATIC:
            world.ugv_i[j, GI_STATE] = UGV_SERVING
        else:
            world.ugv_i[j, GI_STATE] = UGV_ENROUTE
            world.ugv_f[j, G_TX] = meet[0]
            world.ugv_f[j, G_TY] = meet[1]
    # winners leave the queue with a fresh valuation series
    won = [m.uav_id for m in outcome.winners]
    world.bidder[won] = False
    world.fail_count[won] = 0
    world.phi_sum[won] = world.rho_sum[won] = 0.0
    world.sample_count[won] = 0
    settle_losers_loop(world, outcome.losers, c.max_failed_windows)
    return outcome, row, market


def no_trade_outcome(world, window_id, sampled, admitted):
    """``close_window_loop``'s outcome for a window with no trade, given the
    world's masks of sampled bidders and admitted vehicles (one of them
    empty): every bidder loses, ranked by bid descending and id
    ascending as the auction ranks them, and everyone settles at 0. The
    oracle for the ``Trade`` records with no winner that ``MetricsColumns``
    keeps, whether ``_close_boundary`` fills them for a sweep or for a
    one-world ``close_window``."""
    ids = np.flatnonzero(sampled)
    bids = world.phi_sum[ids] / world.sample_count[ids]
    return AuctionOutcome(
        window_id=window_id, winners=(), losers=tuple(ids[np.lexsort((ids, -bids))].tolist()),
        payments=(), uav_utilities=dict.fromkeys(ids.tolist(), 0.0),
        ugv_utilities=dict.fromkeys(np.flatnonzero(admitted).tolist(), 0.0),
        social_surplus=0.0,
    )


def run_world_windowwise(world, horizon, with_audit=False, keep_outcomes=False):
    """One world run alone, slot by slot, each slot booked by the scalar
    ``book_loop`` and every window cleared through the scalar
    ``close_window_loop`` and, with ``with_audit``, every market it
    clears through ``audit_market``: the oracle for ``run_worlds``, which
    stacks worlds and clears every window of a slot boundary at once,
    without building a market (``simulator._close_boundary``, of which
    ``simulator.close_window`` is the one-world call).
    The outcome of a window with no trade (no sampled bidder, or no
    vehicle ``admit`` keeps) must be its ``no_trade_outcome``."""
    spw = world.config.slots_per_window
    rows, outcomes, audits = [], [], []
    soc = np.empty((1, world.num_uavs))
    sensing = np.empty(soc.shape, dtype=bool)
    for _ in range(horizon):
        K.step_world(world.uav_f, world.uav_i, world.ugv_f, world.ugv_i,
                     soc=soc, sensing=sensing)
        book_loop(world, soc, sensing)
        world.clock += 1
        if world.clock % spw == 0:
            sampled = world.bidder & (world.sample_count > 0)
            gaps = world.uav_f[sampled, F_SAT] - world.uav_f[sampled, F_SOC]
            admitted = ((world.ugv_i[:, GI_STATE] == UGV_IDLE)
                        & (world.ugv_f[:, G_SUPPLY] >= gaps.max(initial=0.0)))
            no_trade = None
            if not (sampled.any() and admitted.any()):
                no_trade = no_trade_outcome(world, world.clock // spw, sampled, admitted)
            outcome, row, market = close_window_loop(world)
            rows.append(row)
            if with_audit:
                audits.append(audit_market(
                    market, instance=f"{world.scheme}-seed{world.seed}-w{world.clock // spw}"))
            if no_trade is not None:
                assert repr(outcome) == repr(no_trade)
            if keep_outcomes:
                outcomes.append(outcome)
    return rows, outcomes, audits


def book_loop(world, soc, sensing):
    """Book a block of slots UAV by UAV, each UAV's slots in slot order:
    the oracle for ``simulator._book``, which books the block with array
    operations. ``soc[t]`` and ``sensing[t]`` are every UAV's SoC and
    whether it senses after the block's slot t. A sensing UAV that is not
    excluded joins the bidders once its urgency (``charging_urgency``,
    pinned to 1 below the alert level) reaches ``enter_urgency``, and
    every sensing bidder adds its urgency and ``instant_valuation`` to its
    sums."""
    c = world.config
    caps = world.uav_f[:, F_CAP].tolist()
    excluded = world.excluded.tolist()
    for i, (alert, socs, senses) in enumerate(zip(world.soc_alert.tolist(), soc.T.tolist(),
                                                  sensing.T.tolist())):
        for s, sense in zip(socs, senses):
            if not sense:
                continue
            rho = charging_urgency(s, alert, caps[i]) if s >= alert else 1.0
            if not excluded[i] and rho >= c.enter_urgency:
                world.bidder[i] = True
            if world.bidder[i]:
                world.phi_sum[i] += instant_valuation(rho, c.mu0, c.mu1)
                world.rho_sum[i] += rho
                world.sample_count[i] += 1


def settle_losers_loop(world, losers, max_failed_windows):
    """Settle a window's losers one at a time, as ``close_window_loop``
    does: the oracle for ``simulator._settle_losers``, which settles them
    with array operations. Every loser's valuation series restarts."""
    for i in losers:
        world.fail_count[i] += 1
        if max_failed_windows > 0 and world.fail_count[i] >= max_failed_windows:
            # stop bidding for the rest of the run; the UAV keeps hovering
            # over its task and draining, with no other way to recharge
            world.bidder[i] = False
            world.excluded[i] = True
        world.phi_sum[i] = 0.0
        world.rho_sum[i] = 0.0
        world.sample_count[i] = 0


def agent_arrays_per_agent(c, seed, scheme):
    """(uav_f, uav_i, ugv_f, ugv_i, ugv_speed_kmh) of (c, seed, scheme),
    one seeded Generator per agent and one ``rng.uniform`` per draw: the
    oracle for ``generate_scenario``, which draws each agent's uniforms
    in one call and builds the arrays column by column."""
    n, m = c.uav_count, c.ugv_count
    uav_f = np.zeros((n, K.N_UAV_F), order="F")
    uav_i = np.zeros((n, K.N_UAV_I), dtype=np.int64, order="F")
    ugv_f = np.zeros((m, K.N_UGV_F), order="F")
    ugv_i = np.zeros((m, K.N_UGV_I), dtype=np.int64, order="F")
    uav_i[:, K.I_PARTNER] = -1
    ugv_i[:, K.GI_PARTNER] = -1

    cx, cy = c.spot
    thrust = c.thrust_newton if c.thrust_newton is not None else c.uav_mass_kg * 9.8
    p_fly = flight_power(c.uav_speed_max, thrust, c.kappa1, c.kappa2, c.kappa3)
    p_hov = hover_power(c.uav_mass_kg, c.kappa2, c.kappa3)
    p_desc = descend_power(c.uav_descend_speed, c.uav_mass_kg, c.eps1, c.eps2, c.kappa3)
    p_asc = ascend_power(c.uav_ascend_speed, c.uav_mass_kg, c.eps1, c.eps2, c.kappa3)
    dt = c.slot_len

    for i in range(n):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0, i])))
        radius = c.task_radius * math.sqrt(rng.uniform())
        bearing = rng.uniform(0.0, 2.0 * math.pi)
        x = cx + radius * math.cos(bearing)
        y = cy + radius * math.sin(bearing)
        z = rng.uniform(c.uav_altitude_min, c.uav_altitude_max)
        soc = c.uav_capacity_wh * rng.uniform(c.uav_soc_frac_min, c.uav_soc_frac_max)
        uav_f[i, K.F_SOC] = soc
        uav_f[i, K.F_X] = uav_f[i, K.F_HOME_X] = x
        uav_f[i, K.F_Y] = uav_f[i, K.F_HOME_Y] = y
        uav_f[i, K.F_Z] = uav_f[i, K.F_CRUISE_Z] = z
        uav_f[i, K.F_CAP] = c.uav_capacity_wh
        uav_f[i, K.F_SAT] = c.uav_sat_frac * c.uav_capacity_wh
        uav_f[i, K.F_DRAIN_FLY] = c.uav_discharge_eff * p_fly * dt / 3600.0
        uav_f[i, K.F_DRAIN_HOV] = c.uav_discharge_eff * p_hov * dt / 3600.0
        uav_f[i, K.F_DRAIN_DESC] = c.uav_discharge_eff * p_desc * dt / 3600.0
        uav_f[i, K.F_DRAIN_ASC] = c.uav_discharge_eff * p_asc * dt / 3600.0
        # eta_i * eta_j * P_e * dt while charging; the pad draws gain / eta_j
        gain = (c.uav_discharge_eff * c.ugv_transfer_eff * c.ugv_transfer_power_w
                * dt / 3600.0)
        uav_f[i, K.F_CHARGE_GAIN] = gain
        uav_f[i, K.F_SUPPLY_DRAW] = gain / c.ugv_transfer_eff
        uav_f[i, K.F_STEP_XY] = c.uav_speed_max * dt
        uav_f[i, K.F_STEP_DOWN] = c.uav_descend_speed * dt
        uav_f[i, K.F_STEP_UP] = c.uav_ascend_speed * dt

    speeds = np.zeros(m)
    for j in range(m):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1, j])))
        d = rng.uniform(c.ugv_distance_min, c.ugv_distance_max)
        bearing = rng.uniform(0.0, 2.0 * math.pi)
        ugv_f[j, K.G_X] = cx + d * math.cos(bearing)
        ugv_f[j, K.G_Y] = cy + d * math.sin(bearing)
        ugv_f[j, K.G_SUPPLY] = c.ugv_supply_wh
        speed = rng.uniform(c.ugv_speed_min_kmh, c.ugv_speed_max_kmh)
        ugv_i[j, K.GI_STATE] = K.UGV_IDLE
        if scheme == SCHEME_STATIC:
            speed = 0.0
        ugv_f[j, K.G_STEP] = (speed / 3.6) * dt
        speeds[j] = speed
    return uav_f, uav_i, ugv_f, ugv_i, speeds


def aggregate_row_objects(rows):
    """Mean/sd of every metric, grouped by (scheme, J, tau), from a list
    of ``MetricsRow``: the oracle for the columnar ``aggregate_rows``."""
    groups = {}
    for r in rows:
        groups.setdefault((r.scheme, r.ugv_count, r.tau), []).append(r)
    out = []
    for key in sorted(groups):
        rs = groups[key]
        stats = {"scheme": key[0], "J": key[1], "tau": key[2], "windows": len(rs)}
        for name, field in (("SL", "sl"), ("uav_utility", "uav_utility"),
                            ("ugv_utility", "ugv_utility"), ("surplus", "surplus")):
            values = np.array([getattr(r, field) for r in rs])
            stats[f"{name}_mean"] = float(values.mean())
            stats[f"{name}_sd"] = float(values.std())
        ne = np.array([r.non_envy_ratio for r in rs])
        stats["non_envy_min"] = float(ne.min())
        stats["non_envy_mean"] = float(ne.mean())
        stats["winners_mean"] = float(np.array([r.winners for r in rs], dtype=float).mean())
        out.append(stats)
    return out


@dataclass(frozen=True)
class ValuationSeries:
    """Per-slot valuation samples of one UAV within a single window."""

    uav_id: int
    samples: tuple[tuple[int, float], ...]  # (slot index, Phi)

    def __post_init__(self):
        if not self.samples:
            raise ValueError(f"uav {self.uav_id}: valuation series must be non-empty")
        if any(phi < 0 for _, phi in self.samples):
            raise ValueError(f"uav {self.uav_id}: valuations must be >= 0")


def instant_valuation(rho, mu0, mu1):
    """Instantaneous valuation mu0 + mu1 * rho for urgency rho in [0, 1]."""
    if not 0.0 <= rho <= 1.0:
        raise ValueError(f"urgency must lie in [0, 1], got {rho}")
    if mu0 < 0 or mu1 < 0:
        raise ValueError("mu0 and mu1 must be >= 0")
    return mu0 + mu1 * rho


def average_valuation(series):
    """Arithmetic mean of the window's samples (the bid-relevant value)."""
    total = 0.0
    for _, phi in series.samples:
        total += phi
    return total / len(series.samples)


@dataclass(frozen=True)
class PowerBreakdown:
    """Per-activity power draws for one UAV, plus received wireless power.

    ``receive`` is the raw power the pad radiates (P_e); the pad- and
    UAV-side efficiencies are applied by ``soc_step``.
    """

    fly: float
    hover: float
    descend: float
    ascend: float
    receive: float

    def __post_init__(self):
        if min(self.fly, self.hover, self.descend, self.ascend, self.receive) < 0:
            raise ValueError("all power components must be >= 0")


def soc_step(soc, activity, powers, eta_i, eta_j, dt, capacity):
    """Scalar battery step of dt seconds (Wh), the kernel's oracle.

    Charging adds eta_i * eta_j * P_e * dt; every other activity drains
    eta_i * P_activity * dt. The result is clamped to [0, capacity].
    """
    if not 0.0 <= soc <= capacity:
        raise ValueError(f"soc {soc} outside [0, {capacity}]")
    if dt < 0:
        raise ValueError("dt must be >= 0")
    if activity is Activity.CHARGING:
        delta = eta_i * eta_j * powers.receive * dt / 3600.0
    elif activity is Activity.FLYING:
        delta = -eta_i * powers.fly * dt / 3600.0
    elif activity is Activity.HOVERING:
        delta = -eta_i * powers.hover * dt / 3600.0
    elif activity is Activity.DESCENDING:
        delta = -eta_i * powers.descend * dt / 3600.0
    elif activity is Activity.ASCENDING:
        delta = -eta_i * powers.ascend * dt / 3600.0
    else:
        raise ValueError(f"unknown activity {activity}")
    return min(max(soc + delta, 0.0), capacity)


def step_world_loop(uav_f, uav_i, ugv_f, ugv_i):
    """One slot, agent by agent, in scalar Python: the oracle for
    ``K.step_world``, which must match it bit for bit on either array
    order (see ``skymarket._kernels`` for the layouts)."""
    # vehicles first: same-slot arrivals become visible to waiting UAVs
    for j in range(ugv_f.shape[0]):
        if ugv_i[j, GI_STATE] == UGV_ENROUTE:
            dx = ugv_f[j, G_TX] - ugv_f[j, G_X]
            dy = ugv_f[j, G_TY] - ugv_f[j, G_Y]
            dist = math.sqrt(dx * dx + dy * dy)
            step = ugv_f[j, G_STEP]
            if dist <= step:
                ugv_f[j, G_X] = ugv_f[j, G_TX]
                ugv_f[j, G_Y] = ugv_f[j, G_TY]
                ugv_i[j, GI_STATE] = UGV_SERVING
            else:
                ugv_f[j, G_X] += step * dx / dist
                ugv_f[j, G_Y] += step * dy / dist

    for i in range(uav_f.shape[0]):
        act = uav_i[i, I_ACT]
        if act == ACT_SENSE or act == ACT_WAIT:
            soc = uav_f[i, F_SOC] - uav_f[i, F_DRAIN_HOV]
            uav_f[i, F_SOC] = soc if soc > 0.0 else 0.0
            if act == ACT_WAIT:
                j = uav_i[i, I_PARTNER]
                if ugv_i[j, GI_STATE] == UGV_SERVING:
                    uav_i[i, I_ACT] = ACT_DESCEND
        elif act == ACT_FLY_OUT or act == ACT_FLY_BACK:
            soc = uav_f[i, F_SOC] - uav_f[i, F_DRAIN_FLY]
            uav_f[i, F_SOC] = soc if soc > 0.0 else 0.0
            dx = uav_f[i, F_TX] - uav_f[i, F_X]
            dy = uav_f[i, F_TY] - uav_f[i, F_Y]
            dist = math.sqrt(dx * dx + dy * dy)
            step = uav_f[i, F_STEP_XY]
            if dist <= step:
                uav_f[i, F_X] = uav_f[i, F_TX]
                uav_f[i, F_Y] = uav_f[i, F_TY]
                uav_i[i, I_ACT] = ACT_WAIT if act == ACT_FLY_OUT else ACT_SENSE
            else:
                uav_f[i, F_X] += step * dx / dist
                uav_f[i, F_Y] += step * dy / dist
        elif act == ACT_DESCEND:
            soc = uav_f[i, F_SOC] - uav_f[i, F_DRAIN_DESC]
            uav_f[i, F_SOC] = soc if soc > 0.0 else 0.0
            z = uav_f[i, F_Z] - uav_f[i, F_STEP_DOWN]
            if z <= 0.0:
                uav_f[i, F_Z] = 0.0
                uav_i[i, I_ACT] = ACT_CHARGE
            else:
                uav_f[i, F_Z] = z
        elif act == ACT_CHARGE:
            j = uav_i[i, I_PARTNER]
            draw = uav_f[i, F_SUPPLY_DRAW]
            done = False
            if ugv_f[j, G_SUPPLY] >= draw:
                ugv_f[j, G_SUPPLY] -= draw
                soc = uav_f[i, F_SOC] + uav_f[i, F_CHARGE_GAIN]
                cap = uav_f[i, F_CAP]
                uav_f[i, F_SOC] = soc if soc < cap else cap
                done = uav_f[i, F_SOC] >= uav_f[i, F_SAT]
            else:
                done = True  # pad starved; lift off with what was delivered
            if done:
                uav_i[i, I_ACT] = ACT_ASCEND
                uav_i[i, I_PARTNER] = -1
                ugv_i[j, GI_STATE] = UGV_IDLE
                ugv_i[j, GI_PARTNER] = -1
        elif act == ACT_ASCEND:
            soc = uav_f[i, F_SOC] - uav_f[i, F_DRAIN_ASC]
            uav_f[i, F_SOC] = soc if soc > 0.0 else 0.0
            z = uav_f[i, F_Z] + uav_f[i, F_STEP_UP]
            if z >= uav_f[i, F_CRUISE_Z]:
                uav_f[i, F_Z] = uav_f[i, F_CRUISE_Z]
                uav_i[i, I_ACT] = ACT_FLY_BACK
                uav_f[i, F_TX] = uav_f[i, F_HOME_X]
                uav_f[i, F_TY] = uav_f[i, F_HOME_Y]
            else:
                uav_f[i, F_Z] = z


def step_block_loop(uav_f, uav_i, ugv_f, ugv_i, *, soc, sensing):
    """``step_world_loop`` once per slot of a block, filling the buffers
    after each slot: the oracle for a ``K.step_world`` call."""
    for t in range(len(soc)):
        step_world_loop(uav_f, uav_i, ugv_f, ugv_i)
        soc[t] = uav_f[:, F_SOC]
        sensing[t] = uav_i[:, I_ACT] == ACT_SENSE


def step_one_slot(uav_f, uav_i, ugv_f, ugv_i):
    """One ``K.step_world`` slot into throwaway one-slot buffers, for a
    test that compares only the agent arrays with ``step_world_loop``."""
    soc = np.empty((1, uav_f.shape[0]))
    K.step_world(uav_f, uav_i, ugv_f, ugv_i, soc=soc, sensing=np.empty(soc.shape, dtype=bool))


def charging_urgency(soc, soc_alert, capacity):
    """Normalized recharge need 1 - (soc - soc_alert) / capacity, defined
    at or above the alert level (the simulator pins it to 1 below)."""
    if capacity <= 0:
        raise ValueError("capacity must be positive")
    if soc < soc_alert:
        raise ValueError(f"soc {soc} below alert level {soc_alert}")
    return 1.0 - (soc - soc_alert) / capacity


def altitude_feasible(z, sensing_radius, detection_angle, z_max):
    """True iff R * cot(theta) <= z <= z_max (detection-cone feasibility)."""
    if not (0.0 < detection_angle < math.pi / 2):
        raise ValueError(f"detection angle must lie in (0, pi/2), got {detection_angle}")
    lower = sensing_radius / math.tan(detection_angle)
    return lower <= z <= z_max


def charge_duration(soc, soc_sat, p_e, eta_i, eta_j):
    """Seconds a pad is occupied to lift soc to the satisfactory level."""
    if p_e <= 0:
        raise ValueError("transfer power must be positive")
    if soc >= soc_sat:
        return 0.0
    return 3600.0 * (soc_sat - soc) / (eta_i * eta_j * p_e)


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
