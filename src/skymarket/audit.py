"""Executable checks of the mechanism's fairness guarantees.

Four probes, each within the market's tolerance: ``UTILITY_TOL`` (1e-9)
times its largest utility ``q·max(φ, bid)``, at least 1:

* individual rationality: no participant settles at negative utility;
* incentive compatibility: no bid on a deviation grid beats an agent's
  truthful utility. A misreport only moves the agent to another rank
  among its fixed opponents, and the rank-r payment depends only on the
  opponents ranked at or below r, so no auction is replayed. When a
  market's bids are regular (each a few ``DEVIATION_EPS`` from the next
  and from 0, all below 2**30), its grid provably reaches every rank,
  and the best gain is the maximum over the ranks; only irregular
  markets rank their grids bid by bid;
* envy-freeness: no participant strictly prefers another winner's
  (vehicle, payment) pair under its own valuation; a loser envies iff
  some winner slot at its payment would give it positive utility;
* stability: no (UAV, vehicle) pair would both gain by abandoning the
  cleared assignment.

``_audit_arrays`` runs all four on many markets at once, given as flat
arrays: each market's bidder and vehicle counts, and its bidders' ids,
bids and valuations and its vehicles' q, concatenated market by
market. It ranks every market's sides with one ``np.lexsort`` each and
audits them in arrays padded to the largest market of a chunk of
similar sizes: every bidder's payments at every rank are one reversed
``np.add.accumulate`` (the floats of ``rank_payments``), and envy and
stability read one (bidder, vehicle) table of ``q·φ − p``. The audit
suite, ``preset table-envy`` and the simulator's audited trades call it
on arrays; ``audit_markets`` flattens ``WindowMarket`` objects into it.
The scalar probes it replaced are the tests' oracles.
"""

from __future__ import annotations

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
    "market_values",
    "random_market",
    "audit_markets",
    "audit_market",
    "AUDIT_CSV_HEADER",
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


def market_values(
    rng: np.random.Generator,
    n_uavs: int,
    n_ugvs: int,
    mu0: float = 1.0,
    mu1: float = 5.0,
    q_floor: float = 0.05,
    truthful: bool = True,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """A random market's valuations, bids and quality scores, as arrays:
    one ``uniform`` draw for the valuations, one for the scores and, for
    untruthful bids, one for the bid factors."""
    rho = rng.uniform(0.0, 1.0, size=n_uavs)
    phi = mu0 + mu1 * rho
    qs = rng.uniform(q_floor, 1.0, size=n_ugvs)
    bids = phi if truthful else phi * rng.uniform(0.5, 2.0, size=n_uavs)
    return phi, bids, qs


def random_market(
    rng: np.random.Generator,
    n_uavs: int,
    n_ugvs: int,
    mu0: float = 1.0,
    mu1: float = 5.0,
    q_floor: float = 0.05,
    truthful: bool = True,
) -> WindowMarket:
    """Random truthful market instance for audits and property suites:
    the market of ``market_values``' draw."""
    phi, bids, qs = market_values(rng, n_uavs, n_ugvs, mu0, mu1, q_floor, truthful)
    return WindowMarket.from_values(phi.tolist(), bids.tolist(), qs.tolist())


def _padded(values: np.ndarray, starts: np.ndarray, counts: np.ndarray, width: int,
            fill: float) -> np.ndarray:
    """Row b holds ``values[starts[b]:starts[b] + counts[b]]``, then ``fill``."""
    out = np.full((len(counts), width), fill)
    inside = np.arange(width) < counts[:, None]
    out[inside] = values[(starts[:, None] + np.arange(width))[inside]]
    return out


def _regular_bids(n: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Whether each market's ``n`` bids by rank (``b``, padded with 0.0
    and at least one column wider) are regular: every adjacent gap above
    ``4 * DEVIATION_EPS``, the smallest bid above ``2 * DEVIATION_EPS``
    and the largest below 2**30."""
    pos = np.arange(b.shape[1] - 1)
    # the smallest bid's gap is the one to the 0.0 padding past it
    floor = np.where(pos + 1 < n[:, None], 4 * DEVIATION_EPS, 2 * DEVIATION_EPS)
    return (((b[:, :-1] - b[:, 1:] > floor) | (pos >= n[:, None])).all(axis=1)
            & (b[:, 0] < 2.0 ** 30))


def _grid_best(gain: np.ndarray, n: np.ndarray, ids: np.ndarray,
               bids: np.ndarray) -> np.ndarray:
    """Each bidder's best gain over its :func:`deviation_grid`, -inf
    past the ``n[b]`` rows: ``gain[b, p, r]`` is bidder p's gain at rank
    r among its opponents, and ``ids`` and ``bids`` are the bidders' by
    rank (padded with inf and 0.0)."""
    B, N = ids.shape
    pos = np.arange(N)
    mover, real = pos[:, None], pos < n[:, None]
    # each bidder's grid: its scaled bids, and every opponent bid nudged.
    # A bid v reaches the rank that counts the opponents' keys (-bid, id)
    # before (-v, the mover's id)
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
    return np.where(ok, np.take_along_axis(gain, ranks, axis=2), -np.inf).max(
        axis=2, initial=-np.inf)


def _audit_chunk(n: np.ndarray, m: np.ndarray, ids: np.ndarray, phi: np.ndarray,
                 b: np.ndarray, q: np.ndarray) -> tuple:
    """``_audit_arrays``' field columns for markets padded to the largest
    of them: ``n`` bidders and ``m`` vehicles each, the bidders' ids,
    valuations and bids by rank (``ids`` padded with inf, ``phi`` and
    ``b`` with 0.0, and ``b`` one column wider) and the vehicles' q by
    rank (padded with 0.0, one column wider).

    Axes are (market, bidder by rank, rank or vehicle by rank). Bidder
    p's payments at every rank among its opponents are one reversed
    ``np.add.accumulate`` of ``rank_payments``' terms, so each is the
    same float: the rank-t term reads the opponent bid just below rank
    t, which is the market's rank-(t + 1) bid from p's rank down and its
    rank-t bid above it. Ranks past the last winner hold -0.0, which
    adds to any float exactly.

    IC reads bidder p's best gain off ``gain[b, p, r]``, its gain at
    rank r among its opponents. A market's bids are *regular*
    (``_regular_bids``) when, by rank, every adjacent gap is above
    ``4 * DEVIATION_EPS``, the smallest bid is above ``2 * DEVIATION_EPS``
    and the largest is below 2**30 (rounding is monotone, so a float gap
    above the bound is an exact gap above it). A regular market's grid
    reaches every rank 0..n−1, so its best gain is
    ``max(gain[b, p, :n])``:

    * below 2**30 an ulp is at most 2**-23 ≈ 1.2e-7, so ``fl(v ± 1e-6)``
      lies strictly between a bid v and its neighbours, and stays ≥ 0;
    * so opponent j's two nudges tie no bid and reach ranks o_j and
      o_j + 1, o_j being the opponents above j, and together the n − 1
      opponents' nudges cover 0..n−1. A one-bidder market reaches rank
      0 through its scaled bids, which are ≥ 0;
    * scaled bids only reach ranks inside that set;
    * so the grid's gains are the floats ``gain[b, p, :n]``, and their
      maximum is the same float (for valuations ≥ 0 no gain is -0.0, so
      the order of the maximum cannot pick a signed zero).

    Only the irregular markets of the chunk, such as an audited sweep's
    windows whose UAVs share φ̄ = μ0 + μ1, rank their grids bid by bid
    in ``_grid_best``.
    """
    B, N = ids.shape
    M = q.shape[1] - 1
    k = np.minimum(n, m)
    K = k.max()
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

    # every bidder's best gain over ranks 0..n-1, which a regular market's
    # grids reach, skipped when no market is regular; the irregular
    # markets' grids are priced bid by bid and overwrite their rows
    real = pos < n[:, None]
    grid = np.flatnonzero(~_regular_bids(n, b))
    if grid.size < B:
        best = np.where(real[:, None, :] & real[:, :, None], gain, -np.inf).max(
            axis=2, initial=-np.inf)
    else:
        best = np.empty((B, N))
    if grid.size:
        best[grid] = _grid_best(gain[grid], n[grid], ids[grid], b[grid, :N])

    tol = _tolerance(q[:, 0], np.maximum(phi.max(axis=1, initial=0.0), b[:, 0]))
    slot_pay = np.zeros((B, 1, M))  # each vehicle's truthful payment, by rank
    slot_pay[:, 0, :K] = np.where(rank < k[:, None], pay[:, 0], 0.0)
    values = np.where(real[:, :, None] & (np.arange(M) < m[:, None])[:, None, :],
                      q[:, None, :M] * phi[:, :, None] - slot_pay, -np.inf)
    _, ratio_all, ratio_win, blocking = _verdicts(values, own, n, k, tol)
    ir = (own < -tol[:, None]).sum(axis=1) + (slot_pay[:, 0] < -tol[:, None]).sum(axis=1)
    return (ir, (best > tol[:, None]).sum(axis=1),
            np.where(n > 0, best.max(axis=1, initial=-np.inf), 0.0),
            ratio_all, ratio_win, blocking.sum(axis=(1, 2)))


# most (market, bidder, rank) cells of one padded pass: markets are
# audited in order of size, as many at a time as fit
_CHUNK_CELLS = 1 << 16


def _audit_arrays(n_uavs, n_ugvs, uav_ids, bids, phi, qs) -> list[tuple]:
    """Every probe on many markets given as flat arrays: one tuple of an
    ``AuditReport``'s fields after the instance name per market, in
    input order.

    Market b has ``n_uavs[b]`` bidders and ``n_ugvs[b]`` vehicles. The
    bidders' ``uav_ids``, ``bids`` and valuations ``phi``, and the
    vehicles' ``qs``, are concatenated market by market, each market's
    in any order; a market's ids must be distinct. One stable
    ``np.lexsort`` ranks every market's bidders by (market, bid
    descending, id) and one its vehicles by (market, q descending), as
    ``WindowMarket`` ranks them. Markets are padded in chunks of similar
    size, at most ``_CHUNK_CELLS`` (market, bidder, rank) cells each.
    ValueError if a field breaks ``AuditReport``'s invariants.
    """
    n, m = np.asarray(n_uavs, dtype=np.int64), np.asarray(n_ugvs, dtype=np.int64)
    bids = np.asarray(bids, dtype=float)
    B = len(n)
    demand_market, supply_market = np.repeat(np.arange(B), n), np.repeat(np.arange(B), m)
    order = np.lexsort((uav_ids, -bids, demand_market))
    ids, bids, phi = np.asarray(uav_ids)[order], bids[order], np.asarray(phi, dtype=float)[order]
    qs = np.asarray(qs, dtype=float)
    qs = qs[np.lexsort((-qs, supply_market))]
    d_start, s_start = np.cumsum(n) - n, np.cumsum(m) - m
    cells = np.maximum(np.maximum(n, m), 1) ** 2
    by_size = np.argsort(cells, kind="stable")
    cells = cells[by_size]
    columns = [np.empty(B, dtype=t) for t in (np.int64, np.int64, float, float, float, np.int64)]
    start = 0
    while start < B:
        # a market joins the chunk while the chunk's cells, counted at
        # its size (the largest so far), stay within the bound
        over = np.arange(1, B - start + 1) * cells[start:] > _CHUNK_CELLS
        over[0] = False
        stop = start + int(over.argmax()) if over.any() else B
        chunk = by_size[start:stop]
        cn, cm = n[chunk], m[chunk]
        N, M = max(cn.max(), 1), cm.max()  # a row for pay[:, 0] with no bidder
        starts = d_start[chunk]
        fields = _audit_chunk(
            cn, cm,
            _padded(ids, starts, cn, N, np.inf),  # never below a bidder's id
            _padded(phi, starts, cn, N, 0.0),
            _padded(bids, starts, cn, N + 1, 0.0),  # never above a candidate bid
            _padded(qs, s_start[chunk], cm, M + 1, 0.0))
        for column, field in zip(columns, fields):
            column[chunk] = field
        start = stop
    ir, ic, worst, ratio_all, ratio_win, blocking = columns
    if min(ir.min(initial=0), ic.min(initial=0), blocking.min(initial=0)) < 0:
        raise ValueError("violation counts must be >= 0")
    ratios = np.concatenate([ratio_all, ratio_win])
    if not ((ratios >= 0.0) & (ratios <= 1.0)).all():
        raise ValueError("non-envy ratios must lie in [0, 1]")
    return list(zip(*(column.tolist() for column in columns)))


def _flat_sides(markets: Sequence[WindowMarket]) -> tuple:
    """``_audit_arrays``' arguments for ``markets``, each market's sides
    in the order it holds them."""
    demand = np.array([e for mk in markets for e in mk.demand], dtype=float).reshape(-1, 3)
    return ([mk.num_uavs for mk in markets], [mk.num_ugvs for mk in markets],
            demand[:, 0], demand[:, 2], demand[:, 1], [s.q for mk in markets for s in mk.supply])


def audit_markets(markets: Sequence[WindowMarket],
                  instances: Optional[Sequence[str]] = None) -> list[AuditReport]:
    """Every probe on each of ``markets``, in arrays; one report each,
    named by ``instances`` (default "").

    IR is read off the truthful payments, IC prices every bidder's
    :func:`deviation_grid` at the ranks it reaches, and envy and
    stability read one (bidder, vehicle) table of ``q·φ − p``, each
    within the market's tolerance (``UTILITY_TOL`` times its largest
    ``q·max(φ, bid)``, at least 1). Each report equals that of the
    market audited alone: ``_audit_arrays`` of the markets' flat sides.
    """
    fields = _audit_arrays(*_flat_sides(markets))
    names = [""] * len(markets) if instances is None else instances
    return [AuditReport(name, *f) for name, f in zip(names, fields)]


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
