"""Shared helpers: independent oracles kept free of package internals."""

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

import skymarket._kernels as K
from skymarket._kernels import (  # the names step_world_loop reads
    ACT_ASCEND, ACT_CHARGE, ACT_DESCEND, ACT_FLY_BACK, ACT_FLY_OUT, ACT_SENSE, ACT_WAIT,
    F_CAP, F_CHARGE_GAIN, F_CRUISE_Z, F_DRAIN_ASC, F_DRAIN_DESC, F_DRAIN_FLY, F_DRAIN_HOV,
    F_HOME_X, F_HOME_Y, F_SAT, F_SOC, F_STEP_DOWN, F_STEP_UP, F_STEP_XY, F_SUPPLY_DRAW,
    F_TX, F_TY, F_X, F_Y, F_Z, G_STEP, G_SUPPLY, G_TX, G_TY, G_X, G_Y, GI_PARTNER, GI_STATE,
    I_ACT, I_PARTNER, UGV_ENROUTE, UGV_IDLE, UGV_SERVING,
)
from skymarket.audit import deviation_grid
from skymarket.energy import ascend_power, descend_power, flight_power, hover_power
from skymarket.mechanism import run_auction, with_replaced_bid
from skymarket.simulator import SCHEME_STATIC, advance_slot, close_window
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


def run_world_windowwise(world, horizon, with_audit=False, keep_outcomes=False):
    """One world run alone, slot by slot, every window through
    ``close_window``: the oracle for ``run_worlds``, which stacks worlds
    and records bidderless windows without building a market."""
    spw = world.config.slots_per_window
    rows, outcomes, audits = [], [], []
    for _ in range(horizon):
        advance_slot(world)
        if world.clock % spw == 0:
            outcome, row, *report = close_window(world, with_audit=with_audit)
            rows.append(row)
            audits.extend(report)
            if keep_outcomes:
                outcomes.append(outcome)
    return rows, outcomes, audits


def agent_arrays_per_agent(c, seed, scheme):
    """(uav_f, uav_i, ugv_f, ugv_i, ugv_speed_kmh) of (c, seed, scheme),
    one seeded Generator per agent and one ``rng.uniform`` per draw: the
    oracle for ``generate_scenario``, which draws each agent's uniforms
    in one call and builds the arrays column by column."""
    n, m = c.uav_count, c.ugv_count
    uav_f = np.zeros((n, K.N_UAV_F), order="F")
    uav_i = np.zeros((n, K.N_UAV_I), dtype=np.int64, order="F")
    ugv_f = np.zeros((m, K.N_UGV_F), order="F")
    ugv_i = np.zeros((m, K.N_UGV_I), dtype=np.int64, order="F")
    uav_i[:, K.I_PARTNER] = -1
    ugv_i[:, K.GI_PARTNER] = -1

    cx, cy = c.spot
    thrust = c.thrust_newton if c.thrust_newton is not None else c.uav_mass_kg * 9.8
    p_fly = flight_power(c.uav_speed_max, thrust, c.kappa1, c.kappa2, c.kappa3)
    p_hov = hover_power(c.uav_mass_kg, c.kappa2, c.kappa3)
    p_desc = descend_power(c.uav_descend_speed, c.uav_mass_kg, c.eps1, c.eps2, c.kappa3)
    p_asc = ascend_power(c.uav_ascend_speed, c.uav_mass_kg, c.eps1, c.eps2, c.kappa3)
    dt = c.slot_len

    for i in range(n):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 0, i])))
        radius = c.task_radius * math.sqrt(rng.uniform())
        bearing = rng.uniform(0.0, 2.0 * math.pi)
        x = cx + radius * math.cos(bearing)
        y = cy + radius * math.sin(bearing)
        z = rng.uniform(c.uav_altitude_min, c.uav_altitude_max)
        soc = c.uav_capacity_wh * rng.uniform(c.uav_soc_frac_min, c.uav_soc_frac_max)
        uav_f[i, K.F_SOC] = soc
        uav_f[i, K.F_X] = uav_f[i, K.F_HOME_X] = x
        uav_f[i, K.F_Y] = uav_f[i, K.F_HOME_Y] = y
        uav_f[i, K.F_Z] = uav_f[i, K.F_CRUISE_Z] = z
        uav_f[i, K.F_CAP] = c.uav_capacity_wh
        uav_f[i, K.F_SAT] = c.uav_sat_frac * c.uav_capacity_wh
        uav_f[i, K.F_DRAIN_FLY] = c.uav_discharge_eff * p_fly * dt / 3600.0
        uav_f[i, K.F_DRAIN_HOV] = c.uav_discharge_eff * p_hov * dt / 3600.0
        uav_f[i, K.F_DRAIN_DESC] = c.uav_discharge_eff * p_desc * dt / 3600.0
        uav_f[i, K.F_DRAIN_ASC] = c.uav_discharge_eff * p_asc * dt / 3600.0
        uav_f[i, K.F_STEP_XY] = c.uav_speed_max * dt
        uav_f[i, K.F_STEP_DOWN] = c.uav_descend_speed * dt
        uav_f[i, K.F_STEP_UP] = c.uav_ascend_speed * dt

    speeds = np.zeros(m)
    for j in range(m):
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, 1, j])))
        d = rng.uniform(c.ugv_distance_min, c.ugv_distance_max)
        bearing = rng.uniform(0.0, 2.0 * math.pi)
        ugv_f[j, K.G_X] = cx + d * math.cos(bearing)
        ugv_f[j, K.G_Y] = cy + d * math.sin(bearing)
        ugv_f[j, K.G_SUPPLY] = c.ugv_supply_wh
        speed = rng.uniform(c.ugv_speed_min_kmh, c.ugv_speed_max_kmh)
        ugv_i[j, K.GI_STATE] = K.UGV_IDLE
        if scheme == SCHEME_STATIC:
            speed = 0.0
        ugv_f[j, K.G_STEP] = (speed / 3.6) * dt
        speeds[j] = speed
    return uav_f, uav_i, ugv_f, ugv_i, speeds


def aggregate_row_objects(rows):
    """Mean/sd of every metric, grouped by (scheme, J, tau), from a list
    of ``MetricsRow``: the oracle for the columnar ``aggregate_rows``."""
    groups = {}
    for r in rows:
        groups.setdefault((r.scheme, r.ugv_count, r.tau), []).append(r)
    out = []
    for key in sorted(groups):
        rs = groups[key]
        stats = {"scheme": key[0], "J": key[1], "tau": key[2], "windows": len(rs)}
        for name, field in (("SL", "sl"), ("uav_utility", "uav_utility"),
                            ("ugv_utility", "ugv_utility"), ("surplus", "surplus")):
            values = np.array([getattr(r, field) for r in rs])
            stats[f"{name}_mean"] = float(values.mean())
            stats[f"{name}_sd"] = float(values.std())
        ne = np.array([r.non_envy_ratio for r in rs])
        stats["non_envy_min"] = float(ne.min())
        stats["non_envy_mean"] = float(ne.mean())
        stats["winners_mean"] = float(np.array([r.winners for r in rs], dtype=float).mean())
        out.append(stats)
    return out


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


def step_world_loop(uav_f, uav_i, ugv_f, ugv_i):
    """One slot, agent by agent, in scalar Python: the oracle for
    ``K.step_world``, which must match it bit for bit on either array
    order (see ``skymarket._kernels`` for the layouts)."""
    # vehicles first: same-slot arrivals become visible to waiting UAVs
    for j in range(ugv_f.shape[0]):
        if ugv_i[j, GI_STATE] == UGV_ENROUTE:
            dx = ugv_f[j, G_TX] - ugv_f[j, G_X]
            dy = ugv_f[j, G_TY] - ugv_f[j, G_Y]
            dist = math.sqrt(dx * dx + dy * dy)
            step = ugv_f[j, G_STEP]
            if dist <= step:
                ugv_f[j, G_X] = ugv_f[j, G_TX]
                ugv_f[j, G_Y] = ugv_f[j, G_TY]
                ugv_i[j, GI_STATE] = UGV_SERVING
            else:
                ugv_f[j, G_X] += step * dx / dist
                ugv_f[j, G_Y] += step * dy / dist

    for i in range(uav_f.shape[0]):
        act = uav_i[i, I_ACT]
        if act == ACT_SENSE or act == ACT_WAIT:
            soc = uav_f[i, F_SOC] - uav_f[i, F_DRAIN_HOV]
            uav_f[i, F_SOC] = soc if soc > 0.0 else 0.0
            if act == ACT_WAIT:
                j = uav_i[i, I_PARTNER]
                if ugv_i[j, GI_STATE] == UGV_SERVING:
                    uav_i[i, I_ACT] = ACT_DESCEND
        elif act == ACT_FLY_OUT or act == ACT_FLY_BACK:
            soc = uav_f[i, F_SOC] - uav_f[i, F_DRAIN_FLY]
            uav_f[i, F_SOC] = soc if soc > 0.0 else 0.0
            dx = uav_f[i, F_TX] - uav_f[i, F_X]
            dy = uav_f[i, F_TY] - uav_f[i, F_Y]
            dist = math.sqrt(dx * dx + dy * dy)
            step = uav_f[i, F_STEP_XY]
            if dist <= step:
                uav_f[i, F_X] = uav_f[i, F_TX]
                uav_f[i, F_Y] = uav_f[i, F_TY]
                uav_i[i, I_ACT] = ACT_WAIT if act == ACT_FLY_OUT else ACT_SENSE
            else:
                uav_f[i, F_X] += step * dx / dist
                uav_f[i, F_Y] += step * dy / dist
        elif act == ACT_DESCEND:
            soc = uav_f[i, F_SOC] - uav_f[i, F_DRAIN_DESC]
            uav_f[i, F_SOC] = soc if soc > 0.0 else 0.0
            z = uav_f[i, F_Z] - uav_f[i, F_STEP_DOWN]
            if z <= 0.0:
                uav_f[i, F_Z] = 0.0
                uav_i[i, I_ACT] = ACT_CHARGE
            else:
                uav_f[i, F_Z] = z
        elif act == ACT_CHARGE:
            j = uav_i[i, I_PARTNER]
            draw = uav_f[i, F_SUPPLY_DRAW]
            done = False
            if ugv_f[j, G_SUPPLY] >= draw:
                ugv_f[j, G_SUPPLY] -= draw
                soc = uav_f[i, F_SOC] + uav_f[i, F_CHARGE_GAIN]
                cap = uav_f[i, F_CAP]
                uav_f[i, F_SOC] = soc if soc < cap else cap
                done = uav_f[i, F_SOC] >= uav_f[i, F_SAT]
            else:
                done = True  # pad starved; lift off with what was delivered
            if done:
                uav_i[i, I_ACT] = ACT_ASCEND
                uav_i[i, I_PARTNER] = -1
                ugv_i[j, GI_STATE] = UGV_IDLE
                ugv_i[j, GI_PARTNER] = -1
        elif act == ACT_ASCEND:
            soc = uav_f[i, F_SOC] - uav_f[i, F_DRAIN_ASC]
            uav_f[i, F_SOC] = soc if soc > 0.0 else 0.0
            z = uav_f[i, F_Z] + uav_f[i, F_STEP_UP]
            if z >= uav_f[i, F_CRUISE_Z]:
                uav_f[i, F_Z] = uav_f[i, F_CRUISE_Z]
                uav_i[i, I_ACT] = ACT_FLY_BACK
                uav_f[i, F_TX] = uav_f[i, F_HOME_X]
                uav_f[i, F_TY] = uav_f[i, F_HOME_Y]
            else:
                uav_f[i, F_Z] = z


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
