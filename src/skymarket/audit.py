"""Executable checks of the mechanism's fairness guarantees.

Four probes, each within the market's tolerance: ``UTILITY_TOL`` (1e-9)
times its largest utility ``q·max(φ, bid)``, at least 1:

* individual rationality: no participant settles at negative utility;
* incentive compatibility: no bid on a deviation grid beats an agent's
  truthful utility. A misreport only moves the agent to another rank
  among its fixed opponents, and the rank-r payment depends only on the
  opponents ranked at or below r, so no auction is replayed;
* envy-freeness: no participant strictly prefers another winner's
  (vehicle, payment) pair under its own valuation; a loser envies iff
  some winner slot at its payment would give it positive utility;
* stability: no (UAV, vehicle) pair would both gain by abandoning the
  cleared assignment.

``audit_markets`` runs all four on many markets at once, in arrays
padded to the largest market of a chunk of similar sizes: every
bidder's payments at every rank are one reversed ``np.add.accumulate``
(the floats of ``rank_payments``), and envy and stability read one
(bidder, vehicle) table of ``q·φ − p``. The scalar probes it replaced
are the tests' oracles.
"""

from __future__ import annotations

import operator
from bisect import bisect_left
from dataclasses import dataclass
from typing import Iterable, Mapping, NamedTuple, Optional, Sequence

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
    "deviation_probe",
    "deviation_grid",
    "non_envy_ratio",
    "check_stability",
    "random_market",
    "audit_markets",
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


def _position(market: WindowMarket, uav_id: int) -> int:
    """Rank position of ``uav_id`` among the market's bidders."""
    for p, e in enumerate(market.demand_ranked):
        if e.uav_id == uav_id:
            return p
    raise KeyError(uav_id)


def deviation_grid(market: WindowMarket, uav_id: int) -> list[float]:
    """Misreport candidates: scaled truthful bids plus every opponent bid
    nudged just below and above (the rank-change boundaries), negatives
    dropped."""
    truthful = market.demand_ranked[_position(market, uav_id)].bid
    nudged = [v for e in market.demand if e.uav_id != uav_id
              for v in (e.bid - DEVIATION_EPS, e.bid + DEVIATION_EPS)]
    return [b for b in [truthful * m for m in DEVIATION_MULTIPLIERS] + nudged if b >= 0.0]


def _misreport_utilities(
    market: WindowMarket, uav_id: int, bids: Iterable[float]
) -> list[float]:
    """Utility ``uav_id`` would settle at after bidding each of ``bids``.

    Equal to ``run_auction(with_replaced_bid(market, uav_id, b))``'s
    utility for ``uav_id``, float for float: the bid lands at rank r among
    the opponents, ties by id (the bidder's own key (-bid, id) sorts
    before (-b, id) exactly when b < its bid), and the rank-r payment of
    ``rank_payments`` reads only q and the opponent bids from rank r down.
    """
    bids = list(bids)
    if any(b < 0 for b in bids):
        raise ValueError("bids must be >= 0")
    ranked = market.demand_ranked
    p = _position(market, uav_id)
    bidder = ranked[p]
    q = [s.q for s in market.supply_ranked]
    pay = rank_payments([e.bid for e in (bidder,) + ranked[:p] + ranked[p + 1:]], q)
    keys = [(-e.bid, e.uav_id) for e in ranked]
    ranks = [bisect_left(keys, (-b, uav_id)) - (b < bidder.bid) for b in bids]
    return [uav_utility(bidder.phi_bar, q[r], pay[r]) if r < len(pay) else 0.0 for r in ranks]


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


def _tolerance(q_max, value_max):
    """``UTILITY_TOL`` times a market's largest ``q·max(φ, bid)``, at least 1."""
    return UTILITY_TOL * np.maximum(1.0, q_max * value_max)


def _verdicts(values: np.ndarray, own: np.ndarray, n: np.ndarray, k: np.ndarray,
              tol: np.ndarray):
    """Envy and stability on a batch of slot tables.

    ``values[b, r, c]`` is participant r's utility at vehicle c at that
    vehicle's cleared payment (0 for an unmatched vehicle), -inf past the
    ``n[b]`` rows or the columns of a table, and ``own[b, r]`` its settled
    utility. The first ``k[b]`` rows and columns pair each winner with
    its own slot. Returns ``envious[b, r]`` (r strictly prefers another
    winner's slot), the non-envy ratios over all participants and over
    the winners (1.0 with none), and ``blocking[b, r, c]``: r strictly
    prefers vehicle c, and c is unmatched or its occupant weakly prefers
    walking away or another slot.
    """
    rows, cols = np.arange(values.shape[1]), np.arange(values.shape[2])
    won = cols < k[:, None]
    other = np.where(won[:, None, :] & (rows[:, None] != cols), values, -np.inf).max(
        axis=2, initial=-np.inf)
    above = own + tol[:, None]
    envious = other > above
    movable = ~won
    w = min(len(rows), len(cols))
    movable[:, :w] |= np.maximum(other, 0.0)[:, :w] >= (own - tol[:, None])[:, :w]
    blocking = ((values > above[:, :, None]) & movable[:, None, :]
                & ~(won[:, None, :] & (rows[:, None] == cols)))
    n_env, win_env = envious.sum(axis=1), (envious & (rows < k[:, None])).sum(axis=1)
    return (envious, np.where(n > 0, (n - n_env) / np.maximum(n, 1), 1.0),
            np.where(k > 0, (k - win_env) / np.maximum(k, 1), 1.0), blocking)


def _outcome_table(outcome: AuctionOutcome, phi_bars: Mapping[int, float],
                   qs: Mapping[int, float]):
    """The participants by row (winners by rank, then losers), the
    vehicles by column (the winners' by rank, then those of ``qs`` that
    no winner holds), and ``_verdicts`` of their table."""
    winners = outcome.winners
    held = {m.ugv_id for m in winners}
    slots = [(m.ugv_id, m.q, p) for m, p in zip(winners, outcome.payments)]
    slots += [(v, q, 0.0) for v, q in qs.items() if v not in held]
    vehicles = [v for v, _, _ in slots]
    _, q, pay = np.array(slots, dtype=float).reshape(-1, 3).T
    participants = [m.uav_id for m in winners] + list(outcome.losers)
    phi = np.array([phi_bars[i] for i in participants])
    own = np.array([[outcome.uav_utilities.get(i, 0.0) for i in participants]])
    top = max(phi.max(initial=0.0), max((m.bid for m in winners), default=0.0))
    verdicts = _verdicts((q * phi[:, None] - pay)[None], own, np.array([len(participants)]),
                         np.array([len(winners)]), np.array([_tolerance(q.max(initial=0.0), top)]))
    return participants, vehicles, verdicts


def non_envy_ratio(outcome: AuctionOutcome, phi_bars: Mapping[int, float]) -> EnvyStats:
    """Fraction of participants that do not strictly prefer another
    winner's (slot, payment) pair evaluated at their own valuation."""
    participants, _, (envious, ratio_all, ratio_win, _) = _outcome_table(outcome, phi_bars, {})
    return EnvyStats(ratio_all.item(), ratio_win.item(),
                     tuple(participants[r] for r in np.flatnonzero(envious[0]).tolist()))


def check_stability(
    outcome: AuctionOutcome,
    phi_bars: Mapping[int, float],
    qs: Mapping[int, float],
) -> list[tuple[int, int]]:
    """Blocking pairs of the cleared assignment.

    Pair (UAV i, vehicle l) blocks iff i strictly prefers l's slot at l's
    cleared payment (0 for unmatched vehicles) AND l's occupant, if any,
    weakly prefers some alternative over staying put. The pairs are over
    the vehicles of ``qs``, in its order; a matched vehicle's q is read
    off its match.
    """
    participants, vehicles, (*_, blocking) = _outcome_table(outcome, phi_bars, qs)
    column = {v: c for c, v in enumerate(vehicles)}
    offered = [column[v] for v in qs if v in column]
    rows, cols = np.nonzero(blocking[0][:, offered])
    return [(participants[r], vehicles[offered[c]]) for r, c in zip(rows.tolist(), cols.tolist())]


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


def _padded(counts: np.ndarray, width: int, values, fill: float) -> np.ndarray:
    """Row b holds the next ``counts[b]`` of ``values``, then ``fill``."""
    out = np.full((len(counts), width), fill)
    out[np.arange(width) < counts[:, None]] = values
    return out


def _audit_chunk(markets: Sequence[WindowMarket]) -> list:
    """``audit_markets``' fields for markets padded to the largest of them.

    Axes are (market, bidder by rank, rank or vehicle by rank). Bidder
    p's payments at every rank among its opponents are one reversed
    ``np.add.accumulate`` of ``rank_payments``' terms, so each is the
    same float: the rank-t term reads the opponent bid just below rank
    t, which is the market's rank-(t + 1) bid from p's rank down and its
    rank-t bid above it. Ranks past the last winner hold -0.0, which
    adds to any float exactly.
    """
    B = len(markets)
    n = np.array([mk.num_uavs for mk in markets])
    m = np.array([mk.num_ugvs for mk in markets])
    k = np.minimum(n, m)
    N, M, K = max(n.max(), 1), m.max(), k.max()  # a row for pay[:, 0] with no bidder
    demand = np.array([e for mk in markets for e in mk.demand_ranked]).reshape(-1, 3)
    ids = _padded(n, N, demand[:, 0], np.inf)  # never below a bidder's id
    phi = _padded(n, N, demand[:, 1], 0.0)
    b = _padded(n, N + 1, demand[:, 2], 0.0)  # never above a candidate bid
    q = _padded(m, M + 1, [s.q for mk in markets for s in mk.supply_ranked], 0.0)
    at, pos, rank = np.arange(B), np.arange(N), np.arange(K)
    mover, last = pos[:, None], np.maximum(k - 1, 0)
    dq = q[:, :K] - q[:, 1:K + 1]
    terms = np.where(rank < mover, (dq * b[:, :K])[:, None], (dq * b[:, 1:K + 1])[:, None])
    # the last winner pays q_K times the opponent bid below rank K: the
    # market's rank-K bid for a loser, and its rank-(K + 1) bid, if any,
    # for a winner
    base = np.where(mover >= k[:, None, None], (q[at, last] * b[at, last])[:, None, None],
                    np.where(k < n, q[at, last] * b[at, k], 0.0)[:, None, None])
    last = last[:, None, None]
    terms = np.where(rank < last, terms, np.where(rank == last, base, -0.0))
    pay = np.add.accumulate(terms[:, :, ::-1], axis=2)[:, :, ::-1]
    # utility[b, p, r]: bidder p's utility at rank r, and its gain there
    utility = np.zeros((B, N, N))
    utility[:, :, :K] = np.where(rank < k[:, None, None], q[:, None, :K] * phi[:, :, None] - pay,
                                 0.0)
    own = np.where(pos < k[:, None], utility[:, pos, pos], 0.0)
    gain = utility - own[:, :, None]

    # each bidder's grid: its scaled bids, and every opponent bid nudged.
    # A bid v reaches the rank that counts the opponents' keys (-bid, id)
    # before (-v, the mover's id)
    real, bids = pos < n[:, None], b[:, :N]
    scaled = bids[:, :, None] * np.array(DEVIATION_MULTIPLIERS)
    before = ((bids[:, None, None, :] > scaled[..., None])
              | ((bids[:, None, None, :] == scaled[..., None])
                 & (ids[:, None, None, :] < ids[:, :, None, None]))).sum(axis=3)
    scaled_ranks = before - (bids[:, :, None] > scaled)
    scaled_ok = (scaled >= 0.0) & real[:, :, None]
    # the bids above a nudge are above it for every mover, less the
    # mover's own; ids are compared only where the nudge ties a bid
    nudges = (bids[:, :, None] + np.array([-DEVIATION_EPS, DEVIATION_EPS])).reshape(B, 2 * N)
    source = np.repeat(pos, 2)
    above = (bids[:, None, :] > nudges[:, :, None]).sum(axis=2)
    nudge_ranks = above[:, None, :] - (bids[:, :, None] > nudges[:, None, :])
    tb, tc = np.nonzero((bids[:, None, :] == nudges[:, :, None]).any(axis=2))
    step = max(1, _CHUNK_CELLS // (N * N))  # tying nudges compared at a time
    for i in range(0, tb.size, step):
        t, c = tb[i:i + step], tc[i:i + step]
        nudge_ranks[t, :, c] += ((bids[t] == nudges[t, c][:, None])[:, None, :]
                                 & (ids[t][:, None, :] < ids[t][:, :, None])).sum(axis=2)
    nudge_ok = (((nudges >= 0.0) & (source < n[:, None]))[:, None, :]
                & real[:, :, None] & (source != mover))
    ok = np.concatenate([scaled_ok, nudge_ok], axis=2)
    ranks = np.where(ok, np.concatenate([scaled_ranks, nudge_ranks], axis=2), 0)
    best = np.where(ok, np.take_along_axis(gain, ranks, axis=2), -np.inf).max(
        axis=2, initial=-np.inf)

    tol = _tolerance(q[:, 0], np.maximum(phi.max(axis=1, initial=0.0), b[:, 0]))
    slot_pay = np.zeros((B, 1, M))  # each vehicle's truthful payment, by rank
    slot_pay[:, 0, :K] = np.where(rank < k[:, None], pay[:, 0], 0.0)
    values = np.where(real[:, :, None] & (np.arange(M) < m[:, None])[:, None, :],
                      q[:, None, :M] * phi[:, :, None] - slot_pay, -np.inf)
    _, ratio_all, ratio_win, blocking = _verdicts(values, own, n, k, tol)
    ir = (own < -tol[:, None]).sum(axis=1) + (slot_pay[:, 0] < -tol[:, None]).sum(axis=1)
    return list(zip(ir.tolist(), (best > tol[:, None]).sum(axis=1).tolist(),
                    np.where(n > 0, best.max(axis=1, initial=-np.inf), 0.0).tolist(),
                    ratio_all.tolist(), ratio_win.tolist(),
                    blocking.sum(axis=(1, 2)).tolist()))


# most (market, bidder, rank) cells of one padded pass: markets are
# audited in order of size, as many at a time as fit
_CHUNK_CELLS = 1 << 16


def audit_markets(markets: Sequence[WindowMarket],
                  instances: Optional[Sequence[str]] = None) -> list[AuditReport]:
    """Every probe on each of ``markets``, in arrays; one report each,
    named by ``instances`` (default "").

    IR is read off the truthful payments, IC prices every bidder's
    :func:`deviation_grid` at the ranks it reaches, and envy and
    stability read one (bidder, vehicle) table of ``q·φ − p``, each
    within the market's tolerance (``UTILITY_TOL`` times its largest
    ``q·max(φ, bid)``, at least 1). Each report equals that of the
    market audited alone.
    """
    cells = [max(mk.num_uavs, mk.num_ugvs, 1) ** 2 for mk in markets]
    chunks: list[list[int]] = []
    for i in sorted(range(len(markets)), key=cells.__getitem__):
        if not chunks or (len(chunks[-1]) + 1) * cells[i] > _CHUNK_CELLS:
            chunks.append([])
        chunks[-1].append(i)
    fields = {}
    for chunk in chunks:
        fields.update(zip(chunk, _audit_chunk([markets[i] for i in chunk])))
    names = [""] * len(markets) if instances is None else instances
    return [AuditReport(name, *fields[i]) for i, name in enumerate(names)]


def audit_market(market: WindowMarket, instance: str = "") -> AuditReport:
    """Run every probe on one truthful market: ``audit_markets`` of one."""
    return audit_markets([market], [instance])[0]


AUDIT_CSV_HEADER = (
    "instance",
    "ir_violations",
    "ic_violations",
    "worst_ic_gain",
    "non_envy_ratio",
    "non_envy_ratio_winners",
    "blocking_pairs",
)


# a report's row of the audit CSVs: its fields, which the header names, in order
audit_report_row = operator.attrgetter(*AUDIT_CSV_HEADER)
