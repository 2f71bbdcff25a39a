"""Shared helpers: independent oracles kept free of package internals."""

import itertools
from dataclasses import dataclass

import numpy as np
import pytest


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


@pytest.fixture
def rng():
    return np.random.default_rng(20240811)
