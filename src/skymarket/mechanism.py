"""Sealed-bid window auction: admission, assortative allocation, pricing.

Each window clears in four steps:

1.  ``admit`` takes the window's bidders as (id, Phi_bar, bid) rows and
    the idle vehicles as (id, q, supply) values, keeps the vehicles with
    q > 0 whose supply covers every bidder's satisfaction gap, and forms
    a :class:`WindowMarket`, which ranks its own sides (bids descending,
    quality scores descending; ties broken by agent id ascending).
2.  ``allocate`` matches the j-th highest bid to the j-th highest quality
    score for j = 1..K, K = min(demand, supply).
3.  ``price`` charges each winner the externality its presence imposes:
    the last winner pays q_J * (best losing bid) when demand exceeds
    supply and nothing otherwise, and winner j pays
    (q_j - q_{j+1}) * b_{j+1} on top of winner j+1's payment.
4.  Utilities and the social surplus close the books: a winner at rank j
    gets q_j * Phi_bar - p_j, a matched vehicle collects its payment, and
    the surplus is the payment-free sum q_j * Phi_bar over matched pairs.

Allocation and pricing read only the submitted bids; the true average
valuations carried by the market are used solely for utility accounting
and downstream audits (sealed-bid semantics).
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
    "allocate",
    "price",
    "uav_utility",
    "social_surplus",
    "run_auction",
    "outcome_lines",
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


def allocate(market: WindowMarket) -> tuple[Match, ...]:
    """Assortative matching: rank-j bid gets the rank-j quality score."""
    matches = [
        Match(rank=j + 1, uav_id=d.uav_id, ugv_id=s.ugv_id, bid=d.bid, q=s.q)
        for j, (d, s) in enumerate(zip(market.demand_ranked, market.supply_ranked))
    ]
    return tuple(matches)


def price(market: WindowMarket, allocation: Sequence[Match]) -> tuple[float, ...]:
    """Winner payments by rank, built by the last-winner base case plus the
    rank recursion p_j = (q_j - q_{j+1}) * b_{j+1} + p_{j+1}."""
    k = len(allocation)
    if k == 0:
        return ()
    n_uavs, n_ugvs = market.num_uavs, market.num_ugvs
    payments = [0.0] * k
    if n_ugvs < n_uavs:
        # q of the lowest-ranked admitted vehicle times the best losing bid
        q_last = market.supply_ranked[n_ugvs - 1].q
        best_loser_bid = market.demand_ranked[n_ugvs].bid
        payments[k - 1] = q_last * best_loser_bid
    for j in range(k - 2, -1, -1):
        gap = allocation[j].q - allocation[j + 1].q
        payments[j] = gap * allocation[j + 1].bid + payments[j + 1]
    return tuple(payments)


def uav_utility(phi_bar: float, q: float, payment: float) -> float:
    """Winner utility q * Phi_bar - p; losers and non-participants get 0."""
    return q * phi_bar - payment


def social_surplus(allocation: Sequence[Match], phi_bars: dict[int, float]) -> float:
    """Payment-free welfare: sum of q_j * Phi_bar_i over matched pairs."""
    total = 0.0
    for m in allocation:
        total += m.q * phi_bars[m.uav_id]
    return total


def run_auction(market: WindowMarket) -> AuctionOutcome:
    """Clear one window: allocate, price, and settle utilities.

    Deterministic given the market (ties were already broken in the ranked
    views). Losers, in rank order, are listed for re-entry into the next
    window. A matched vehicle's utility is the payment it collects.
    """
    allocation = allocate(market)
    payments = price(market, allocation)
    phi_by_id = {e.uav_id: e.phi_bar for e in market.demand}

    uav_utils: dict[int, float] = {e.uav_id: 0.0 for e in market.demand}
    ugv_utils: dict[int, float] = {e.ugv_id: 0.0 for e in market.supply}
    for m, p in zip(allocation, payments):
        uav_utils[m.uav_id] = uav_utility(phi_by_id[m.uav_id], m.q, p)
        ugv_utils[m.ugv_id] = p

    # the winners are exactly the top len(allocation) ranked bidders
    losers = [e.uav_id for e in market.demand_ranked[len(allocation):]]
    return AuctionOutcome(
        window_id=market.window_id,
        winners=allocation,
        losers=tuple(losers),
        payments=payments,
        uav_utilities=uav_utils,
        ugv_utilities=ugv_utils,
        social_surplus=social_surplus(allocation, phi_by_id),
    )


OUTCOME_CSV_HEADER = ("window_id", "uav_id", "ugv_id", "bid", "q", "payment", "utility", "rank")


def outcome_lines(outcome: AuctionOutcome) -> list[str]:
    """Format an outcome as CSV text lines, one per participating UAV.

    Winners come first by rank (``winner_line``), then losers in rank
    order (``loser_line``), each after the window id. A loser has empty
    ugv/q/rank fields, a zero payment and zero utility, matching its
    settlement. Each line is what ``csv.writer`` writes for these fields
    (``str`` of an int, ``repr`` of a float, nothing for an empty
    field); no field needs quoting, as none can hold a comma, a quote or
    a newline.
    """
    lead = f"{outcome.window_id},"
    utilities = outcome.uav_utilities
    lines = [lead + winner_line(m.uav_id, m.ugv_id, m.bid, m.q, p, utilities[m.uav_id], m.rank)
             for m, p in zip(outcome.winners, outcome.payments)]
    lines += [lead + loser_line(uav_id) for uav_id in outcome.losers]
    return lines


def winner_line(uav_id: int, ugv_id: int, bid: float, q: float, payment: float,
                utility: float, rank: int) -> str:
    """A winner's ``outcomes.csv`` line after its window id."""
    return f"{uav_id},{ugv_id},{bid!r},{q!r},{payment!r},{utility!r},{rank}\n"


def loser_line(uav_id: int) -> str:
    """A losing bidder's ``outcomes.csv`` line after its window id."""
    return f"{uav_id},,,,0.0,0.0,\n"
