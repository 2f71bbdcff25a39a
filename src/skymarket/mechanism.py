"""Sealed-bid window auction: admission, assortative allocation, pricing.

Each window clears in four steps:

1.  ``admit`` takes the window's bidders as (id, Phi_bar, bid) rows and
    the idle vehicles as (id, q, supply) values, keeps the vehicles with
    q > 0 whose supply covers every bidder's satisfaction gap, and forms
    a :class:`WindowMarket` with deterministic sorted views (bids
    descending, quality scores descending; ties broken by agent id).
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

from dataclasses import dataclass
from typing import NamedTuple, Sequence

from .types import AuctionOutcome, Match

__all__ = [
    "DemandEntry",
    "SupplyEntry",
    "WindowMarket",
    "PaymentSchedule",
    "admit",
    "with_replaced_bid",
    "allocate",
    "price",
    "uav_utility",
    "ugv_utility",
    "social_surplus",
    "run_auction",
    "outcome_rows",
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
    """One window's demand and supply sides plus their sorted views."""

    window_id: int
    demand: tuple[DemandEntry, ...]
    supply: tuple[SupplyEntry, ...]
    demand_ranked: tuple[DemandEntry, ...]
    supply_ranked: tuple[SupplyEntry, ...]

    def __post_init__(self):
        if sorted(self.demand) != sorted(self.demand_ranked):
            raise ValueError("demand_ranked must be a permutation of demand")
        if sorted(self.supply) != sorted(self.supply_ranked):
            raise ValueError("supply_ranked must be a permutation of supply")
        if any(s.q <= 0 for s in self.supply):
            raise ValueError("admitted vehicles must have q > 0")

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
        demand = tuple(
            DemandEntry(i, float(p), float(b)) for i, (p, b) in enumerate(zip(phi_bars, bids))
        )
        supply = tuple(SupplyEntry(j, float(q)) for j, q in enumerate(qs))
        return cls(
            window_id=window_id,
            demand=demand,
            supply=supply,
            demand_ranked=_rank_demand(demand),
            supply_ranked=_rank_supply(supply),
        )


@dataclass(frozen=True)
class PaymentSchedule:
    """Winner payments ordered by rank; nonnegative by construction."""

    payments: tuple[float, ...]

    def __post_init__(self):
        if any(p < 0 for p in self.payments):
            raise ValueError("payments must be >= 0")

    def __len__(self) -> int:
        return len(self.payments)

    def __getitem__(self, j: int) -> float:
        return self.payments[j]


def _rank_demand(demand: Sequence[DemandEntry]) -> tuple[DemandEntry, ...]:
    # deterministic tie-break: bid descending, then id ascending
    return tuple(sorted(demand, key=lambda e: (-e.bid, e.uav_id)))


def _rank_supply(supply: Sequence[SupplyEntry]) -> tuple[SupplyEntry, ...]:
    return tuple(sorted(supply, key=lambda e: (-e.q, e.ugv_id)))


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
    # a list first: tuple() of a generator over-allocates and shrinks, and
    # the shrunk tuples pile up in CPython's per-size tuple free lists
    supply = [SupplyEntry(j, q) for j, q, s in offers if q > 0 and s >= max_gap]
    demand_t = tuple(demand)
    supply_t = tuple(supply)
    return WindowMarket(
        window_id=window_id,
        demand=demand_t,
        supply=supply_t,
        demand_ranked=_rank_demand(demand_t),
        supply_ranked=_rank_supply(supply_t),
    )


def with_replaced_bid(market: WindowMarket, uav_id: int, new_bid: float) -> WindowMarket:
    """Clone a market with one bid swapped out (deviation replays).

    Ids, valuations, and the supply side are untouched, so tie-breaking
    stays comparable with the original market.
    """
    if new_bid < 0:
        raise ValueError("bids must be >= 0")
    if all(e.uav_id != uav_id for e in market.demand):
        raise ValueError(f"uav {uav_id} not in market")
    demand = tuple(
        e if e.uav_id != uav_id else DemandEntry(e.uav_id, e.phi_bar, new_bid)
        for e in market.demand
    )
    return WindowMarket(
        window_id=market.window_id,
        demand=demand,
        supply=market.supply,
        demand_ranked=_rank_demand(demand),
        supply_ranked=market.supply_ranked,
    )


def allocate(market: WindowMarket) -> tuple[Match, ...]:
    """Assortative matching: rank-j bid gets the rank-j quality score."""
    k = min(market.num_uavs, market.num_ugvs)
    return tuple(
        Match(
            rank=j + 1,
            uav_id=market.demand_ranked[j].uav_id,
            ugv_id=market.supply_ranked[j].ugv_id,
            bid=market.demand_ranked[j].bid,
            q=market.supply_ranked[j].q,
        )
        for j in range(k)
    )


def price(market: WindowMarket, allocation: Sequence[Match]) -> PaymentSchedule:
    """Externality payments, built by the last-winner base case plus the
    rank recursion p_j = (q_j - q_{j+1}) * b_{j+1} + p_{j+1}."""
    k = len(allocation)
    if k == 0:
        return PaymentSchedule(())
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
    return PaymentSchedule(tuple(payments))


def uav_utility(phi_bar: float, q: float, payment: float) -> float:
    """Winner utility q * Phi_bar - p; losers and non-participants get 0."""
    return q * phi_bar - payment


def ugv_utility(payment: float) -> float:
    """A matched vehicle's utility is exactly the payment it collects."""
    return payment


def social_surplus(allocation: Sequence[Match], phi_bars: dict[int, float]) -> float:
    """Payment-free welfare: sum of q_j * Phi_bar_i over matched pairs."""
    total = 0.0
    for m in allocation:
        total += m.q * phi_bars[m.uav_id]
    return total


def run_auction(market: WindowMarket) -> AuctionOutcome:
    """Clear one window: allocate, price, and settle utilities.

    Deterministic given the market (ties were already broken in the sorted
    views). Losers are listed for re-entry into the next window.
    """
    allocation = allocate(market)
    payments = price(market, allocation)
    phi_by_id = {e.uav_id: e.phi_bar for e in market.demand}

    uav_utils: dict[int, float] = {e.uav_id: 0.0 for e in market.demand}
    ugv_utils: dict[int, float] = {e.ugv_id: 0.0 for e in market.supply}
    for m, p in zip(allocation, payments.payments):
        uav_utils[m.uav_id] = uav_utility(phi_by_id[m.uav_id], m.q, p)
        ugv_utils[m.ugv_id] = ugv_utility(p)

    winner_ids = {m.uav_id for m in allocation}
    losers = tuple(e.uav_id for e in market.demand_ranked if e.uav_id not in winner_ids)
    return AuctionOutcome(
        window_id=market.window_id,
        winners=allocation,
        losers=losers,
        payments=payments.payments,
        uav_utilities=uav_utils,
        ugv_utilities=ugv_utils,
        social_surplus=social_surplus(allocation, phi_by_id),
    )


OUTCOME_CSV_HEADER = ("window_id", "uav_id", "ugv_id", "bid", "q", "payment", "utility", "rank")


def outcome_rows(outcome: AuctionOutcome) -> list[tuple]:
    """Flatten an outcome to CSV rows (one per participating UAV).

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
