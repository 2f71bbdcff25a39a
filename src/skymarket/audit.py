"""Executable checks of the mechanism's fairness guarantees.

Four probes, all tolerance-gated at 1e-9 (double-precision products of
O(1) quantities):

* individual rationality: no participant settles at negative utility;
* incentive compatibility: no bid on a deviation grid beats an agent's
  truthful utility. A misreport only moves the agent to another rank
  among its fixed opponents, and the rank-r payment depends only on the
  opponents ranked at or below r, so one suffix pass over the opponents
  prices every grid bid without replaying the auction;
* envy-freeness: no participant strictly prefers another winner's
  (vehicle, payment) pair under its own valuation;
* stability: no (UAV, vehicle) pair would both gain by abandoning the
  cleared assignment.

Losers have no assigned slot, so loser envy is measured against every
winner slot at that slot's payment: a loser envies iff some slot would
give it strictly positive utility.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional

import numpy as np

# with_replaced_bid has no caller here; it stays importable from this module
# because the benchmark's tracer hooks it by this name
from .mechanism import WindowMarket, run_auction, uav_utility, with_replaced_bid
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


def deviation_grid(market: WindowMarket, uav_id: int) -> list[float]:
    """Misreport candidates: scaled truthful bids plus every opponent bid
    nudged just above and below (the rank-change boundaries)."""
    truthful = next(e.bid for e in market.demand if e.uav_id == uav_id)
    grid = [truthful * m for m in DEVIATION_MULTIPLIERS]
    for e in market.demand:
        if e.uav_id != uav_id:
            grid.append(e.bid - DEVIATION_EPS)
            grid.append(e.bid + DEVIATION_EPS)
    return [b for b in grid if b >= 0.0]


def _misreport_utilities(
    market: WindowMarket, uav_id: int, bids: Iterable[float]
) -> list[float]:
    """Utility ``uav_id`` would settle at after bidding each of ``bids``.

    Equal to ``run_auction(with_replaced_bid(market, uav_id, b))``'s
    utility for ``uav_id``, float for float: the bid lands at rank r among
    the opponents (ties by id), and the rank-r payment of ``price`` reads
    only q and the opponent bids from rank r down.
    """
    opp = [e for e in market.demand_ranked if e.uav_id != uav_id]
    phi = next(e.phi_bar for e in market.demand if e.uav_id == uav_id)
    q = [s.q for s in market.supply_ranked]
    n, m = len(opp) + 1, len(q)
    k = min(n, m)
    pay = [0.0] * k
    if 0 < m < n:
        pay[k - 1] = q[m - 1] * opp[m - 1].bid
    for j in range(k - 2, -1, -1):
        pay[j] = (q[j] - q[j + 1]) * opp[j].bid + pay[j + 1]
    keys = [(-e.bid, e.uav_id) for e in opp]
    utilities = []
    for b in bids:
        if b < 0:
            raise ValueError("bids must be >= 0")
        r = bisect_left(keys, (-b, uav_id))
        utilities.append(uav_utility(phi, q[r], pay[r]) if r < k else 0.0)
    return utilities


def _best_gain(
    market: WindowMarket, uav_id: int, base: float, grid: Optional[Iterable[float]]
) -> float:
    candidates = deviation_grid(market, uav_id) if grid is None else grid
    best_gain = float("-inf")
    for u in _misreport_utilities(market, uav_id, candidates):
        best_gain = max(best_gain, u - base)
    return best_gain


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
    return _best_gain(market, uav_id, base, grid)


def non_envy_ratio(outcome: AuctionOutcome, phi_bars: Mapping[int, float]) -> EnvyStats:
    """Fraction of participants that do not strictly prefer another
    winner's (slot, payment) pair evaluated at their own valuation."""
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


def check_stability(
    outcome: AuctionOutcome,
    phi_bars: Mapping[int, float],
    qs: Mapping[int, float],
) -> list[tuple[int, int]]:
    """Blocking pairs of the cleared assignment.

    Pair (UAV i, vehicle l) blocks iff i strictly prefers l's slot at l's
    cleared payment (0 for unmatched vehicles) AND l's occupant, if any,
    weakly prefers some alternative over staying put.
    """
    pay_by_ugv = {m.ugv_id: p for m, p in zip(outcome.winners, outcome.payments)}
    occupant = {m.ugv_id: m.uav_id for m in outcome.winners}
    slot_q = {m.ugv_id: m.q for m in outcome.winners}
    participants = [m.uav_id for m in outcome.winners] + list(outcome.losers)
    matched_ugv = {m.uav_id: m.ugv_id for m in outcome.winners}

    def prefers_elsewhere(uav_id: int) -> bool:
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

    The market is cleared once by the auction; IR, envy and stability are
    measured on that outcome, and the deviation probe measures each
    bidder's misreport gains against it.
    """
    outcome = run_auction(market)
    phi_bars = {e.uav_id: e.phi_bar for e in market.demand}
    qs = {s.ugv_id: s.q for s in market.supply}

    ir = check_ir(outcome)
    worst_gain = float("-inf")
    ic_violations = 0
    for e in market.demand:
        gain = _best_gain(market, e.uav_id, outcome.uav_utilities[e.uav_id], None)
        worst_gain = max(worst_gain, gain)
        if gain > UTILITY_TOL:
            ic_violations += 1
    if market.num_uavs == 0:
        worst_gain = 0.0
    envy = non_envy_ratio(outcome, phi_bars)
    blocking = check_stability(outcome, phi_bars, qs)
    return AuditReport(
        instance=instance,
        ir_violations=len(ir),
        ic_violations=ic_violations,
        worst_ic_gain=worst_gain,
        non_envy_ratio=envy.all_participants,
        non_envy_ratio_winners=envy.winners_only,
        blocking_pairs=len(blocking),
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
