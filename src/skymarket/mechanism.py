"""Sealed-bid window auction: admission, assortative allocation, pricing.

Each window clears in three steps:

1.  ``admit`` takes the window's bidders as (id, Phi_bar, bid) rows and
    the idle vehicles as (id, q, supply) values, keeps the vehicles with
    q > 0 whose supply covers every bidder's satisfaction gap, and forms
    a :class:`WindowMarket`, which ranks its own sides (bids descending,
    quality scores descending; ties broken by agent id ascending).
2.  ``clear`` matches the j-th highest bid to the j-th highest quality
    score for j = 1..K, K = min(demand, supply), and charges each winner
    the externality its presence imposes (``rank_payments``): the last
    winner pays q_K * (best losing bid) when demand exceeds supply and
    nothing otherwise, and winner j pays (q_j - q_{j+1}) * b_{j+1} on
    top of winner j+1's payment.
3.  Utilities and the social surplus close the books: a winner at rank j
    gets q_j * Phi_bar - p_j, a matched vehicle collects its payment, and
    the surplus is the payment-free sum q_j * Phi_bar over matched pairs.

``clear`` returns a compact :class:`Trade` record, which the simulator
keeps per window and ``run_auction`` turns into an ``AuctionOutcome``;
a window with no trade is a ``Trade`` with no winner. Allocation and
pricing read only the submitted bids; the true average valuations are
used solely for utility accounting and downstream audits (sealed-bid
semantics).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

from .types import AuctionOutcome, Match

__all__ = [
    "DemandEntry",
    "SupplyEntry",
    "WindowMarket",
    "admit",
    "with_replaced_bid",
    "uav_utility",
    "rank_payments",
    "Trade",
    "clear",
    "run_auction",
    "winner_line",
    "loser_line",
    "OUTCOME_CSV_HEADER",
]


class DemandEntry(NamedTuple):
    uav_id: int
    phi_bar: float
    bid: float


class SupplyEntry(NamedTuple):
    ugv_id: int
    q: float


@dataclass(frozen=True)
class WindowMarket:
    """One window's demand and supply sides plus their ranked views.

    The sides may be given as any sequences and are stored as tuples.
    ``demand_ranked`` orders bids descending and ``supply_ranked`` quality
    scores descending, each breaking ties by agent id ascending, so the
    clearing is deterministic.
    """

    window_id: int
    demand: tuple[DemandEntry, ...]
    supply: tuple[SupplyEntry, ...]
    demand_ranked: tuple[DemandEntry, ...] = field(init=False, repr=False, compare=False)
    supply_ranked: tuple[SupplyEntry, ...] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        demand, supply = tuple(self.demand), tuple(self.supply)
        if any(s.q <= 0 for s in supply):
            raise ValueError("admitted vehicles must have q > 0")
        object.__setattr__(self, "demand", demand)
        object.__setattr__(self, "supply", supply)
        object.__setattr__(
            self, "demand_ranked", tuple(sorted(demand, key=lambda e: (-e.bid, e.uav_id)))
        )
        object.__setattr__(
            self, "supply_ranked", tuple(sorted(supply, key=lambda e: (-e.q, e.ugv_id)))
        )

    @property
    def num_uavs(self) -> int:
        return len(self.demand)

    @property
    def num_ugvs(self) -> int:
        return len(self.supply)

    @property
    def is_empty(self) -> bool:
        return not self.demand or not self.supply

    @classmethod
    def from_values(
        cls,
        phi_bars: Sequence[float],
        bids: Sequence[float],
        qs: Sequence[float],
        window_id: int = 0,
    ) -> "WindowMarket":
        """Build a market directly from value vectors (tests, audits)."""
        if len(phi_bars) != len(bids):
            raise ValueError("phi_bars and bids must be parallel")
        demand = [
            DemandEntry(i, float(p), float(b)) for i, (p, b) in enumerate(zip(phi_bars, bids))
        ]
        supply = [SupplyEntry(j, float(q)) for j, q in enumerate(qs)]
        return cls(window_id, demand, supply)


def admit(
    demand: Sequence[DemandEntry],
    offers: Sequence[tuple[int, float, float]],
    window_id: int,
    gaps: Sequence[float],
) -> WindowMarket:
    """Build the window market from bidders and idle vehicles.

    ``demand`` holds one (uav id, Phi_bar, bid) row per bidder, ``offers``
    one (ugv id, q, supply remaining) triple per idle vehicle and ``gaps``
    each bidder's satisfaction gap (satisfactory level minus SoC, Wh). A
    vehicle is admitted only if its quality score is strictly positive and
    its supply covers the largest gap. An empty side yields an empty
    market (the auction trivially ends with no winners).
    """
    max_gap = max(gaps, default=0.0)
    # lists, not tuple(<generator>) here and below: tuple() of a generator
    # over-allocates and shrinks, and the shrunk tuples pile up in
    # CPython's per-size tuple free lists
    supply = [SupplyEntry(j, q) for j, q, s in offers if q > 0 and s >= max_gap]
    return WindowMarket(window_id, demand, supply)


def with_replaced_bid(market: WindowMarket, uav_id: int, new_bid: float) -> WindowMarket:
    """Clone a market with one bid swapped out (deviation replays).

    Ids, valuations, and the supply side are untouched, so tie-breaking
    stays comparable with the original market.
    """
    if new_bid < 0:
        raise ValueError("bids must be >= 0")
    if all(e.uav_id != uav_id for e in market.demand):
        raise ValueError(f"uav {uav_id} not in market")
    demand = [
        e if e.uav_id != uav_id else DemandEntry(e.uav_id, e.phi_bar, new_bid)
        for e in market.demand
    ]
    return WindowMarket(market.window_id, demand, market.supply)


def uav_utility(phi_bar: float, q: float, payment: float) -> float:
    """Winner utility q * Phi_bar - p; losers and non-participants get 0."""
    return q * phi_bar - payment


def rank_payments(bids: Sequence[float], qs: Sequence[float]) -> list[float]:
    """Winner payments by rank for ``bids`` (descending) against ``qs``
    (descending): the last winner pays q_K times the best losing bid when
    bids outnumber vehicles and nothing otherwise, and winner j pays
    (q_j - q_{j+1}) * b_{j+1} on top of winner j+1's payment. The first
    bid is never read, so a bidder's payments at every rank among
    opponents ``o`` are ``rank_payments([its bid] + o, qs)``."""
    k = min(len(bids), len(qs))
    pay = [0.0] * k
    if 0 < k < len(bids):
        pay[-1] = qs[k - 1] * bids[k]
    for j in range(k - 2, -1, -1):
        pay[j] = (qs[j] - qs[j + 1]) * bids[j + 1] + pay[j + 1]
    return pay


class Trade(NamedTuple):
    """A cleared window: its bidders' ids in rank order, of which the
    first ``len(vehicles)`` won, and its admitted vehicles' ids; per
    winner, by rank, the vehicle it won, its bid, that vehicle's q, its
    payment and its utility; and the surplus. A window with no trade
    has no winner."""

    ranked: Sequence[int]
    ugvs: Sequence[int]
    vehicles: Sequence[int] = ()
    bids: Sequence[float] = ()
    qs: Sequence[float] = ()
    payments: Sequence[float] = ()
    utilities: Sequence[float] = ()
    surplus: float = 0.0

    @property
    def losers(self) -> Sequence[int]:
        return self.ranked[len(self.vehicles):]

    def outcome(self, window_id: int) -> AuctionOutcome:
        """The window's outcome; participants' utilities are keyed in id order."""
        ranked, vehicles = self.ranked, self.vehicles
        uav_utilities = dict.fromkeys(sorted(ranked), 0.0)
        uav_utilities.update(zip(ranked, self.utilities))
        ugv_utilities = dict.fromkeys(self.ugvs, 0.0)
        ugv_utilities.update(zip(vehicles, self.payments))
        winners = tuple(map(Match, range(1, len(vehicles) + 1), ranked, vehicles, self.bids,
                            self.qs))
        return AuctionOutcome(window_id, winners, tuple(self.losers),
                              tuple(self.payments), uav_utilities, ugv_utilities, self.surplus)

    def winner_lines(self, lead: str) -> list[str]:
        """``outcomes.csv``'s winner lines, each led by ``lead``."""
        return [lead + winner_line(*fields, rank) for rank, fields in enumerate(zip(
            self.ranked, self.vehicles, self.bids, self.qs, self.payments, self.utilities), 1)]


def clear(
    ranked: Sequence[int],
    bids: Sequence[float],
    phis: Sequence[float],
    ugvs: Sequence[int],
    offers: Sequence[tuple[int, float]],
) -> Trade:
    """Clear one window's ranked sides.

    ``ranked``, ``bids`` and ``phis`` are the bidders in rank order (id,
    bid, average valuation), ``offers`` the admitted vehicles ranked by q
    descending as (id, q) and ``ugvs`` their ids in the order the
    outcome lists them. The rank-j bidder wins the rank-j vehicle, pays
    ``rank_payments`` and keeps q_j * Phi_bar - p_j; the surplus is the
    payment-free sum of q_j * Phi_bar in rank order.
    """
    matched = offers[:len(ranked)]
    if not matched:
        return Trade(ranked, ugvs)
    vehicles, qs = zip(*matched)
    pay = rank_payments(bids, qs)
    surplus = 0.0
    for q, phi in zip(qs, phis):
        surplus += q * phi
    return Trade(ranked, ugvs, vehicles, bids[:len(qs)], qs, pay,
                 [q * phi - p for q, phi, p in zip(qs, phis, pay)], surplus)


def run_auction(market: WindowMarket) -> AuctionOutcome:
    """Clear one window through ``clear``.

    Deterministic given the market (ties were already broken in the ranked
    views). Losers, in rank order, are listed for re-entry into the next
    window. A matched vehicle's utility is the payment it collects.
    """
    demand = market.demand_ranked
    ranked, phis, bids = zip(*demand) if demand else ((), (), ())
    trade = clear(ranked, bids, phis, [s.ugv_id for s in market.supply], market.supply_ranked)
    return trade.outcome(market.window_id)


OUTCOME_CSV_HEADER = ("window_id", "uav_id", "ugv_id", "bid", "q", "payment", "utility", "rank")


def winner_line(uav_id: int, ugv_id: int, bid: float, q: float, payment: float,
                utility: float, rank: int) -> str:
    """A winner's ``outcomes.csv`` line after its window id."""
    return f"{uav_id},{ugv_id},{bid!r},{q!r},{payment!r},{utility!r},{rank}\n"


def loser_line(uav_id: int) -> str:
    """A losing bidder's ``outcomes.csv`` line after its window id."""
    return f"{uav_id},,,,0.0,0.0,\n"
