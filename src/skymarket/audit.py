"""Executable checks of the mechanism's fairness guarantees.

Four probes, all tolerance-gated at 1e-9 (double-precision products of
O(1) quantities):

* individual rationality: no participant settles at negative utility;
* incentive compatibility: no bid on a deviation grid beats an agent's
  truthful utility. A misreport only moves the agent to another rank
  among its fixed opponents, and the rank-r payment depends only on the
  opponents ranked at or below r. So one suffix of payments over the
  ranked bids serves every bidder of a market: a bidder redoes only the
  ranks above its own, and its utility is evaluated once per distinct
  rank its grid reaches, without replaying the auction;
* envy-freeness: no participant strictly prefers another winner's
  (vehicle, payment) pair under its own valuation;
* stability: no (UAV, vehicle) pair would both gain by abandoning the
  cleared assignment.

Envy and stability read one table: each participant's utility at every
admitted vehicle at that vehicle's cleared payment. Losers have no
assigned slot, so loser envy is measured against every winner slot at
that slot's payment: a loser envies iff some slot would give it strictly
positive utility.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

# with_replaced_bid has no caller here; it stays importable from this module
# because the benchmark's tracer hooks it by this name
from .mechanism import WindowMarket, rank_payments, run_auction, uav_utility, with_replaced_bid
from .types import AuctionOutcome

UTILITY_TOL = 1e-9

DEVIATION_MULTIPLIERS = (0.25, 0.5, 0.9, 1.0, 1.1, 2.0, 4.0)
DEVIATION_EPS = 1e-6

__all__ = [
    "UTILITY_TOL",
    "DEVIATION_MULTIPLIERS",
    "AuditReport",
    "EnvyStats",
    "check_ir",
    "deviation_probe",
    "deviation_grid",
    "non_envy_ratio",
    "check_stability",
    "random_market",
    "audit_market",
    "AUDIT_CSV_HEADER",
    "audit_report_row",
]


class EnvyStats(NamedTuple):
    """Non-envy ratios under both counting conventions."""

    all_participants: float
    winners_only: float
    envious: tuple[int, ...]


@dataclass(frozen=True)
class AuditReport:
    """Summary of all probes on one market instance."""

    instance: str
    ir_violations: int
    ic_violations: int
    worst_ic_gain: float
    non_envy_ratio: float
    non_envy_ratio_winners: float
    blocking_pairs: int

    def __post_init__(self):
        if min(self.ir_violations, self.ic_violations, self.blocking_pairs) < 0:
            raise ValueError("violation counts must be >= 0")
        if not (0.0 <= self.non_envy_ratio <= 1.0 and 0.0 <= self.non_envy_ratio_winners <= 1.0):
            raise ValueError("non-envy ratios must lie in [0, 1]")


def check_ir(outcome: AuctionOutcome) -> list[tuple[str, int, float]]:
    """List agents settled at negative utility as (kind, id, utility)."""
    bad = []
    for uav_id, u in outcome.uav_utilities.items():
        if u < -UTILITY_TOL:
            bad.append(("uav", uav_id, u))
    for ugv_id, u in outcome.ugv_utilities.items():
        if u < -UTILITY_TOL:
            bad.append(("ugv", ugv_id, u))
    return bad


def _position(market: WindowMarket, uav_id: int) -> int:
    """Rank position of ``uav_id`` among the market's bidders."""
    for p, e in enumerate(market.demand_ranked):
        if e.uav_id == uav_id:
            return p
    raise KeyError(uav_id)


def _scaled_bids(truthful: float) -> list[float]:
    return [b for b in (truthful * m for m in DEVIATION_MULTIPLIERS) if b >= 0.0]


def _nudged(bids: Iterable[float]) -> list[float]:
    """Every bid nudged just below and just above (the rank-change
    boundaries), negatives dropped."""
    return [v for b in bids for v in (b - DEVIATION_EPS, b + DEVIATION_EPS) if v >= 0.0]


def deviation_grid(market: WindowMarket, uav_id: int) -> list[float]:
    """Misreport candidates: scaled truthful bids plus every opponent bid
    nudged just above and below (the rank-change boundaries)."""
    truthful = market.demand_ranked[_position(market, uav_id)].bid
    opponents = [e.bid for e in market.demand if e.uav_id != uav_id]
    return _scaled_bids(truthful) + _nudged(opponents)


def _misreport_payments(
    q: list[float], bids: list[float], p: int, top: Optional[list[float]] = None
) -> list[float]:
    """Payment by rank that the bidder at rank position ``p`` of ``bids``
    (descending) would pay after moving to that rank.

    This is ``rank_payments`` over the other bids, ``bids[:p] +
    bids[p + 1:]``, float for float: rank j reads the bid below it,
    ``bids[j + 1]`` from rank p down and ``bids[j]`` above it. ``top``,
    the result for p = 0, already holds every rank from a winning
    position p down, so only the ranks above p are redone from it.
    """
    if top is None or p >= len(top):
        return rank_payments(bids[p:p + 1] + bids[:p] + bids[p + 1:], q)
    pay = top[:]
    for j in range(p - 1, -1, -1):
        pay[j] = (q[j] - q[j + 1]) * bids[j] + pay[j + 1]
    return pay


def _ranks(keys: list[tuple[float, int]], bidder, bids: Iterable[float]) -> list[int]:
    """Rank ``bidder`` lands at among its opponents after bidding each of ``bids``.

    ``keys`` are (-bid, id) of every bidder, the bidder included, in rank
    order; its own key sorts before (-b, id) exactly when b < its bid.
    """
    i, t = bidder.uav_id, bidder.bid
    return [bisect_left(keys, (-b, i)) - (b < t) for b in bids]


def _misreport_utilities(
    market: WindowMarket, uav_id: int, bids: Iterable[float]
) -> list[float]:
    """Utility ``uav_id`` would settle at after bidding each of ``bids``.

    Equal to ``run_auction(with_replaced_bid(market, uav_id, b))``'s
    utility for ``uav_id``, float for float: the bid lands at rank r among
    the opponents (ties by id), and the rank-r payment of
    ``rank_payments`` reads only q and the opponent bids from rank r down.
    """
    bids = list(bids)
    if any(b < 0 for b in bids):
        raise ValueError("bids must be >= 0")
    ranked = market.demand_ranked
    p = _position(market, uav_id)
    bidder = ranked[p]
    q = [s.q for s in market.supply_ranked]
    pay = _misreport_payments(q, [e.bid for e in ranked], p)
    keys = [(-e.bid, e.uav_id) for e in ranked]
    k = len(pay)
    return [uav_utility(bidder.phi_bar, q[r], pay[r]) if r < k else 0.0
            for r in _ranks(keys, bidder, bids)]


def deviation_probe(
    market: WindowMarket,
    uav_id: int,
    grid: Optional[Iterable[float]] = None,
) -> float:
    """Max utility gain ``uav_id`` can reach by misreporting its bid.

    The market must be truthful (bids equal average valuations) for the
    gain to be meaningful; strategy-proofness predicts a result <= 0 up
    to tolerance. ``grid`` defaults to :func:`deviation_grid`.
    """
    base = run_auction(market).uav_utilities[uav_id]
    candidates = deviation_grid(market, uav_id) if grid is None else grid
    utilities = _misreport_utilities(market, uav_id, candidates)
    return max((u - base for u in utilities), default=float("-inf"))


def _ic_gains(market: WindowMarket, outcome: AuctionOutcome) -> list[float]:
    """Every bidder's best gain over its :func:`deviation_grid`, by rank.

    Each grid bid is priced at the rank it lands at, so each bidder's
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
    bottom = _misreport_payments(q, bids, k) if k < n else None
    # the opponent nudges of every grid, with the number of bids above
    # each: a nudge that ties no bid lands there whoever makes it, less
    # one if it is below the mover's own bid
    nudges = []
    for j, b in enumerate(bids):
        for v in _nudged((b,)):
            above = bisect_left(negs, -v)
            nudges.append((j, v, above if above == bisect_right(negs, -v) else None))
    gains = []
    for p, e in enumerate(ranked):
        t = e.bid
        ranks = {
            _ranks(keys, e, (v,))[0] if above is None else above - (v < t)
            for j, v, above in nudges if j != p
        }
        if len(ranks) < n:  # else the nudges reach every rank, 0..n-1, already
            ranks.update(_ranks(keys, e, _scaled_bids(t)))
        pay = top if p == 0 else bottom if p >= k else _misreport_payments(q, bids, p, top)
        base = outcome.uav_utilities[e.uav_id]
        gains.append(max(
            ((uav_utility(e.phi_bar, q[r], pay[r]) if r < k else 0.0) - base for r in ranks),
            default=float("-inf"),
        ))
    return gains


class _SlotTable(NamedTuple):
    """Each participant's utility at every vehicle at that vehicle's
    cleared payment (0 for an unmatched vehicle): what the envy and
    stability probes read.

    Rows are the winners by rank, then the losers. Columns are the
    winners' vehicles by rank, then the unmatched ones, so the first
    ``winners`` rows and columns pair each winner with its own slot.
    """

    participants: list[int]
    own: list[float]  # each participant's settled utility
    winners: int
    vehicles: list[int]
    values: list[list[float]]
    # the rows with a vehicle they prefer to their own by more than the
    # tolerance: only these can envy or be half of a blocking pair
    tempted: list[int]


def _slot_table(
    outcome: AuctionOutcome, phi_bars: Mapping[int, float], qs: Mapping[int, float]
) -> _SlotTable:
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
               if row_values and max(row_values) > u + UTILITY_TOL]
    return _SlotTable(participants, own, len(outcome.winners), vehicles, values, tempted)


def _other_slots(table: _SlotTable, row: int) -> list[float]:
    """A row's values at the winners' slots other than its own."""
    values, k = table.values[row], table.winners
    return values[:min(row, k)] + values[row + 1:k]


def _envy_stats(table: _SlotTable) -> EnvyStats:
    participants = table.participants
    if not participants:
        return EnvyStats(1.0, 1.0, ())
    envious = [
        row for row in table.tempted
        if max(_other_slots(table, row), default=float("-inf")) > table.own[row] + UTILITY_TOL
    ]
    n_all, n_win = len(participants), table.winners
    envious_winners = sum(1 for row in envious if row < n_win)
    ratio_all = (n_all - len(envious)) / n_all
    ratio_win = 1.0 if n_win == 0 else (n_win - envious_winners) / n_win
    return EnvyStats(ratio_all, ratio_win, tuple(participants[row] for row in envious))


def _blocking_pairs(table: _SlotTable, qs: Mapping[int, float]) -> list[tuple[int, int]]:
    """The blocking pairs over the vehicles of ``qs``, in its order."""
    if not table.tempted:
        return []
    k = table.winners
    # a winner moves if it weakly prefers walking away or another slot
    movable = [max([0.0] + _other_slots(table, row)) >= table.own[row] - UTILITY_TOL
               for row in range(k)]
    column = {v: c for c, v in enumerate(table.vehicles)}
    offered = [(column[v], v) for v in qs if v in column]
    blocking = []
    for row in table.tempted:
        uav_id, own, values = table.participants[row], table.own[row], table.values[row]
        here = row if row < k else -1
        for c, v in offered:
            if c != here and values[c] > own + UTILITY_TOL and (c >= k or movable[c]):
                blocking.append((uav_id, v))
    return blocking


def non_envy_ratio(outcome: AuctionOutcome, phi_bars: Mapping[int, float]) -> EnvyStats:
    """Fraction of participants that do not strictly prefer another
    winner's (slot, payment) pair evaluated at their own valuation."""
    return _envy_stats(_slot_table(outcome, phi_bars, {}))


def check_stability(
    outcome: AuctionOutcome,
    phi_bars: Mapping[int, float],
    qs: Mapping[int, float],
) -> list[tuple[int, int]]:
    """Blocking pairs of the cleared assignment.

    Pair (UAV i, vehicle l) blocks iff i strictly prefers l's slot at l's
    cleared payment (0 for unmatched vehicles) AND l's occupant, if any,
    weakly prefers some alternative over staying put. The pairs are over
    the vehicles of ``qs``; a matched vehicle's q is read off its match.
    """
    return _blocking_pairs(_slot_table(outcome, phi_bars, qs), qs)


def random_market(
    rng: np.random.Generator,
    n_uavs: int,
    n_ugvs: int,
    mu0: float = 1.0,
    mu1: float = 5.0,
    q_floor: float = 0.05,
    truthful: bool = True,
) -> WindowMarket:
    """Random truthful market instance for audits and property suites."""
    rho = rng.uniform(0.0, 1.0, size=n_uavs)
    phi = mu0 + mu1 * rho
    qs = rng.uniform(q_floor, 1.0, size=n_ugvs)
    bids = phi if truthful else phi * rng.uniform(0.5, 2.0, size=n_uavs)
    return WindowMarket.from_values(phi.tolist(), bids.tolist(), qs.tolist())


def audit_market(market: WindowMarket, instance: str = "") -> AuditReport:
    """Run every probe on one truthful market; package the findings.

    The market is cleared once by the auction. IR is read off that
    outcome, IC prices every bidder's grid from one pass over the ranked
    bids, and envy and stability read one table of slot utilities.
    """
    outcome = run_auction(market)
    gains = _ic_gains(market, outcome)
    qs = {s.ugv_id: s.q for s in market.supply}
    table = _slot_table(outcome, {e.uav_id: e.phi_bar for e in market.demand}, qs)
    envy = _envy_stats(table)
    return AuditReport(
        instance=instance,
        ir_violations=len(check_ir(outcome)),
        ic_violations=sum(g > UTILITY_TOL for g in gains),
        worst_ic_gain=max(gains, default=0.0),
        non_envy_ratio=envy.all_participants,
        non_envy_ratio_winners=envy.winners_only,
        blocking_pairs=len(_blocking_pairs(table, qs)),
    )


AUDIT_CSV_HEADER = (
    "instance",
    "ir_violations",
    "ic_violations",
    "worst_ic_gain",
    "non_envy_ratio",
    "non_envy_ratio_winners",
    "blocking_pairs",
)


def audit_report_row(report: AuditReport) -> tuple:
    return (
        report.instance,
        report.ir_violations,
        report.ic_violations,
        report.worst_ic_gain,
        report.non_envy_ratio,
        report.non_envy_ratio_winners,
        report.blocking_pairs,
    )
