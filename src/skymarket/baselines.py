"""Comparison scheme: the omniscient welfare-maximizing planner.

The planner matches true average valuations, not bids, to quality
scores so as to maximize the social surplus (sum of q * Phi_bar over
matched pairs). By the rearrangement inequality the assortative match,
the j-th highest valuation to the j-th best vehicle, attains that
maximum, so ``optimal_scheme_outcome`` clears a copy of the market whose
bids are the valuations through the auction itself; the result is priced
by the auction's externality rule and its utilities stay comparable.
Under truthful bids, which is every market the simulator and the presets
build, it returns exactly the auction's outcome. So no product code
calls it: every window clears through ``run_auction``, a sweep reports
its ``optimal`` rows from the ``ours`` world, and ``table-envy`` copies
its ``ours`` statistics. The tests run it inside worlds as the oracle.

``best_assignment`` is an exact branch-and-bound search over injections,
kept as the oracle the closed form is checked against; no scheme calls it.

The static-pad scheme is scored in the simulator
(``World.service_distance``) and clears through the unchanged auction.
"""

from __future__ import annotations

import math
from typing import Sequence

from .mechanism import DemandEntry, WindowMarket, run_auction
from .types import AuctionOutcome

__all__ = [
    "best_assignment",
    "optimal_scheme_outcome",
]


def best_assignment(
    small: Sequence[float],
    large: Sequence[float],
) -> tuple[float, list[int]]:
    """Max of sum(small[t] * large[assign[t]]) over injections, by
    depth-first search with an assortative upper bound for pruning.

    ``small`` must be sorted descending; returns (best score, chosen
    indices into ``large`` per position of ``small``).
    """
    n_small, n_large = len(small), len(large)
    order = sorted(range(n_large), key=lambda j: -large[j])
    sorted_large = [large[j] for j in order]

    best_score = -math.inf
    best_assign: list[int] = []
    used = [False] * n_large
    current: list[int] = []

    def bound(depth: int, acc: float) -> float:
        # pair remaining small values with the best unused large values
        b = acc
        t = depth
        for pos in range(n_large):
            if t >= n_small:
                break
            if not used[pos]:
                b += small[t] * sorted_large[pos]
                t += 1
        return b

    def dfs(depth: int, acc: float):
        nonlocal best_score, best_assign
        if depth == n_small:
            if acc > best_score:
                best_score = acc
                best_assign = current.copy()
            return
        if bound(depth, acc) <= best_score:
            return
        for pos in range(n_large):
            if used[pos]:
                continue
            used[pos] = True
            current.append(pos)
            dfs(depth + 1, acc + small[depth] * sorted_large[pos])
            current.pop()
            used[pos] = False

    dfs(0, 0.0)
    return best_score, [order[pos] for pos in best_assign]


def optimal_scheme_outcome(market: WindowMarket) -> AuctionOutcome:
    """Welfare-optimal outcome: the auction run on true valuations."""
    demand = [DemandEntry(e.uav_id, e.phi_bar, e.phi_bar) for e in market.demand]
    return run_auction(WindowMarket(market.window_id, demand, market.supply))
