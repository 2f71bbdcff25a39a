"""Shared helpers: independent oracles kept free of package internals."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from skymarket.audit import deviation_grid
from skymarket.mechanism import run_auction, with_replaced_bid
from skymarket.types import Activity


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
