"""Time-slotted world model: scenario generation, dynamics, experiments.

A ``World`` holds every agent's state in struct-of-arrays form and
advances one slot at a time: batteries follow the linear activity model,
matched vehicles drive to their rendezvous, charging sessions hold a pad
until the satisfactory level and UAVs that cross the urgency threshold
queue as bidders. Every ``window_len`` seconds the accumulated bidders
and idle vehicles clear through the auction, against mobile vehicles or
static pads.

Every simulated bid is truthful, and under truthful bids the omniscient
welfare-maximizing planner's outcome is the auction's own
(``baselines``). So every scheme clears through ``run_auction``, and a
sweep steps one mobile world per (cell, seed) and reports it under both
``ours`` and ``optimal``.

A sweep runs all its worlds in lockstep (``run_worlds``): their agent
arrays are stacked, so each slot costs one kernel call and one
bookkeeping pass for the whole sweep rather than one per world, and
each world still clears its windows at its own ``window_len``. Nothing
couples agents except partner indices, which are offset into the stack,
so every world evolves bit-identically to a run on its own. Window
metrics are kept in columns (``MetricsColumns``), one block of entries
per world, and rows are built only when written or asked for. Most
windows of a sweep have no bidder; those are told apart by segment sums
over the stack and recorded in bulk, without building a market.

Scenario generation draws each agent from its own seeded substream keyed
by (seed, side, index), so enlarging one side of the market leaves every
other draw untouched: sweeps over fleet sizes are paired comparisons by
construction, and identical (config, seed) pairs rebuild bit-identical
worlds. A sweep draws each seed's substreams once, for its largest
fleet, and builds every world of that seed from them by prefix.

Scheme-specific geometry: a mobile vehicle meets its UAV halfway, so its
quality score reflects half its distance to the sensing spot; a static
pad is met at the pad, full distance, and never moves.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field
from typing import Mapping, Optional, Sequence

import numpy as np

from . import _kernels as K
from .audit import audit_market, audit_report_row, non_envy_ratio
# no caller here; kept importable because the benchmark's tracer hooks this name
from .baselines import optimal_scheme_outcome
from .energy import ascend_power, descend_power, flight_power, hover_power
from .mechanism import DemandEntry, admit, run_auction
from .metrics import MetricsColumns, MetricsRow, aggregate_rows
from .types import (
    Activity,
    AuctionOutcome,
    PowerParams,
    ScenarioConfig,
    UavState,
    UgvState,
    validate,
)
from .valuation import qors_from_distance

SCHEME_OURS = "ours"
SCHEME_OPTIMAL = "optimal"
SCHEME_STATIC = "static"
ALL_SCHEMES = (SCHEME_OURS, SCHEME_OPTIMAL, SCHEME_STATIC)

_CODE_TO_ACTIVITY = {
    K.ACT_SENSE: Activity.HOVERING,
    K.ACT_WAIT: Activity.HOVERING,
    K.ACT_FLY_OUT: Activity.FLYING,
    K.ACT_FLY_BACK: Activity.FLYING,
    K.ACT_DESCEND: Activity.DESCENDING,
    K.ACT_CHARGE: Activity.CHARGING,
    K.ACT_ASCEND: Activity.ASCENDING,
}

__all__ = [
    "SCHEME_OURS",
    "SCHEME_OPTIMAL",
    "SCHEME_STATIC",
    "ALL_SCHEMES",
    "MetricsRow",
    "World",
    "rendezvous",
    "satisfaction_level",
    "generate_scenario",
    "advance_slot",
    "close_window",
    "run_world",
    "run_worlds",
    "ExperimentResult",
    "sweep_cells",
    "run_experiment",
    "aggregate_rows",
]


@dataclass
class World:
    """Mutable simulation state; one instance per run, single-threaded.

    While ``run_worlds`` steps a sweep, the agent arrays and the per-UAV
    bookkeeping arrays are views into one stack shared by every world of
    the sweep, and the partner columns hold stack-global indices: a
    world's UAV i is row ``uav_base + i`` of the stack, its vehicle j row
    ``ugv_base + j``. Outside ``run_worlds`` the arrays are the world's
    own, partner indices are local and both bases are 0.
    """

    config: ScenarioConfig
    scheme: str
    seed: int
    clock: int = 0
    uav_base: int = 0
    ugv_base: int = 0

    # struct-of-arrays agent state, column-contiguous (see _kernels for layouts)
    uav_f: np.ndarray = field(default=None, repr=False)
    uav_i: np.ndarray = field(default=None, repr=False)
    ugv_f: np.ndarray = field(default=None, repr=False)
    ugv_i: np.ndarray = field(default=None, repr=False)

    # per-UAV bookkeeping outside the kernel
    soc_alert: np.ndarray = field(default=None, repr=False)
    eta_i: np.ndarray = field(default=None, repr=False)
    bidder: np.ndarray = field(default=None, repr=False)
    excluded: np.ndarray = field(default=None, repr=False)
    fail_count: np.ndarray = field(default=None, repr=False)
    phi_sum: np.ndarray = field(default=None, repr=False)
    rho_sum: np.ndarray = field(default=None, repr=False)
    sample_count: np.ndarray = field(default=None, repr=False)

    # per-UGV static attributes
    ugv_speed_kmh: np.ndarray = field(default=None, repr=False)
    ugv_transfer_power: np.ndarray = field(default=None, repr=False)
    ugv_eta: np.ndarray = field(default=None, repr=False)

    @property
    def spot(self) -> tuple[float, float]:
        return self.config.spot

    @property
    def num_uavs(self) -> int:
        return self.uav_f.shape[0]

    @property
    def num_ugvs(self) -> int:
        return self.ugv_f.shape[0]

    def uav_state(self, i: int) -> UavState:
        """Validated value-object snapshot of UAV i."""
        c = self.config
        return UavState(
            id=i,
            position=(
                float(self.uav_f[i, K.F_X]),
                float(self.uav_f[i, K.F_Y]),
                float(self.uav_f[i, K.F_Z]),
            ),
            velocity_max=c.uav_speed_max,
            battery_capacity=float(self.uav_f[i, K.F_CAP]),
            soc=float(self.uav_f[i, K.F_SOC]),
            soc_alert=float(self.soc_alert[i]),
            soc_satisfactory=float(self.uav_f[i, K.F_SAT]),
            activity=_CODE_TO_ACTIVITY[int(self.uav_i[i, K.I_ACT])],
            mass=c.uav_mass_kg,
            power_params=PowerParams(c.kappa1, c.kappa2, c.kappa3, c.eps1, c.eps2),
            discharge_efficiency=float(self.eta_i[i]),
            sensing_radius=c.uav_sensing_radius,
            detection_angle=c.uav_detection_angle,
            altitude_max=c.uav_altitude_max,
        )

    def ugv_state(self, j: int, qors: float) -> UgvState:
        c = self.config
        return UgvState(
            id=j,
            position=(float(self.ugv_f[j, K.G_X]), float(self.ugv_f[j, K.G_Y])),
            speed_kmh=float(self.ugv_speed_kmh[j]),
            supply_capacity=c.ugv_supply_wh,
            supply_remaining=float(self.ugv_f[j, K.G_SUPPLY]),
            transfer_power=float(self.ugv_transfer_power[j]),
            transfer_efficiency=float(self.ugv_eta[j]),
            qors=qors,
        )

    def service_distance(self, j: int) -> float:
        """Distance a UAV flies to reach vehicle j's service point."""
        d = math.hypot(
            self.ugv_f[j, K.G_X] - self.spot[0], self.ugv_f[j, K.G_Y] - self.spot[1]
        )
        return d if self.scheme == SCHEME_STATIC else d / 2.0

    def ugv_qors(self, j: int) -> float:
        c = self.config
        d = min(self.service_distance(j), c.qors_ref_distance)
        return qors_from_distance(d, c.qors_ref_distance, c.qors_floor)

    def urgency(self) -> np.ndarray:
        """Charging urgency per UAV, pinned to 1 below the alert level."""
        rho = 1.0 - (self.uav_f[:, K.F_SOC] - self.soc_alert) / self.uav_f[:, K.F_CAP]
        return np.minimum(rho, 1.0)


def rendezvous(spot: Sequence[float], ugv_pos: Sequence[float]) -> tuple[float, float]:
    """Meeting point for a matched pair: the spot-to-vehicle midpoint."""
    return ((spot[0] + ugv_pos[0]) / 2.0, (spot[1] + ugv_pos[1]) / 2.0)


def satisfaction_level(outcome: AuctionOutcome, rho_bars: Mapping[int, float]) -> float:
    """Allocation quality weighted by urgency: sum of q_j * rho_bar_i."""
    total = 0.0
    for m in outcome.winners:
        total += m.q * rho_bars[m.uav_id]
    return total


def _checked(config: ScenarioConfig) -> ScenarioConfig:
    """``config``, or ValueError listing what ``validate`` finds wrong."""
    problems = validate(config)
    if problems:
        raise ValueError("invalid scenario config: " + "; ".join(problems))
    return config


def _draw_agents(seed: int, uavs: int, ugvs: int) -> tuple[list, list]:
    """Raw uniforms of the first ``uavs`` UAVs and ``ugvs`` vehicles of ``seed``.

    Each agent draws from its own substream keyed by (seed, side, index):
    4 uniforms per UAV (radius, bearing, altitude, SoC) and 3 per vehicle
    (distance, bearing, speed). Fewer agents draw a prefix of the lists.
    """
    def side(key: int, count: int, k: int) -> list:
        return [
            np.random.Generator(np.random.PCG64(np.random.SeedSequence([seed, key, i])))
            .random(k).tolist()
            for i in range(count)
        ]

    if seed < 0:
        raise ValueError("seed must be >= 0")
    return side(0, uavs, 4), side(1, ugvs, 3)


def generate_scenario(config: ScenarioConfig, seed: Optional[int] = None,
                      scheme: str = SCHEME_OURS) -> World:
    """Build a deterministic initial world for (config, seed).

    UAVs hover over the sensing spot inside the task circle at their
    drawn working altitude; vehicles sit at drawn bearings and distances
    from the spot. Each agent consumes its own RNG substream, so worlds
    with more agents extend, rather than reshuffle, smaller ones.
    """
    _checked(config)
    if scheme not in ALL_SCHEMES:
        raise ValueError(f"unknown scheme {scheme!r}")
    if seed is None:
        seed = config.seed
    uav_u, ugv_u = _draw_agents(seed, config.uav_count, config.ugv_count)
    return _build_world(config, seed, scheme, uav_u, ugv_u)


def _build_world(c: ScenarioConfig, seed: int, scheme: str,
                 uav_u: Sequence, ugv_u: Sequence) -> World:
    """The world of (c, seed, scheme) from its agents' raw uniforms
    (``_draw_agents``; longer lists are used by prefix)."""
    n, m = c.uav_count, c.ugv_count
    cx, cy = c.spot
    # rng.uniform(lo, hi) is lo + (hi - lo) * u, bit for bit
    xs, ys, zs, socs = [], [], [], []
    for u_radius, u_bearing, u_z, u_soc in uav_u[:n]:
        radius = c.task_radius * math.sqrt(u_radius)
        bearing = 2.0 * math.pi * u_bearing
        xs.append(cx + radius * math.cos(bearing))
        ys.append(cy + radius * math.sin(bearing))
        zs.append(c.uav_altitude_min + (c.uav_altitude_max - c.uav_altitude_min) * u_z)
        socs.append(c.uav_capacity_wh * (
            c.uav_soc_frac_min + (c.uav_soc_frac_max - c.uav_soc_frac_min) * u_soc))
    gxs, gys, speeds = [], [], []
    for u_d, u_bearing, u_speed in ugv_u[:m]:
        d = c.ugv_distance_min + (c.ugv_distance_max - c.ugv_distance_min) * u_d
        bearing = 2.0 * math.pi * u_bearing
        gxs.append(cx + d * math.cos(bearing))
        gys.append(cy + d * math.sin(bearing))
        speeds.append(c.ugv_speed_min_kmh
                      + (c.ugv_speed_max_kmh - c.ugv_speed_min_kmh) * u_speed)
    # a static pad is the same draw pinned in place (paired comparison)
    speeds = np.zeros(m) if scheme == SCHEME_STATIC else np.array(speeds, dtype=float)

    thrust = c.thrust_newton if c.thrust_newton is not None else c.uav_mass_kg * 9.8
    p_fly = flight_power(c.uav_speed_max, thrust, c.kappa1, c.kappa2, c.kappa3)
    p_hov = hover_power(c.uav_mass_kg, c.kappa2, c.kappa3)
    p_desc = descend_power(c.uav_descend_speed, c.uav_mass_kg, c.eps1, c.eps2, c.kappa3)
    p_asc = ascend_power(c.uav_ascend_speed, c.uav_mass_kg, c.eps1, c.eps2, c.kappa3)
    dt = c.slot_len

    # column-contiguous: the kernel and the bookkeeping read whole columns
    uav_f = np.zeros((n, K.N_UAV_F), order="F")
    uav_i = np.zeros((n, K.N_UAV_I), dtype=np.int64, order="F")
    ugv_f = np.zeros((m, K.N_UGV_F), order="F")
    ugv_i = np.zeros((m, K.N_UGV_I), dtype=np.int64, order="F")
    uav_i[:, K.I_PARTNER] = -1
    ugv_i[:, K.GI_PARTNER] = -1
    uav_f[:, K.F_SOC] = socs
    uav_f[:, K.F_X] = uav_f[:, K.F_HOME_X] = xs
    uav_f[:, K.F_Y] = uav_f[:, K.F_HOME_Y] = ys
    uav_f[:, K.F_Z] = uav_f[:, K.F_CRUISE_Z] = zs
    uav_f[:, K.F_CAP] = c.uav_capacity_wh
    uav_f[:, K.F_SAT] = c.uav_sat_frac * c.uav_capacity_wh
    uav_f[:, K.F_DRAIN_FLY] = c.uav_discharge_eff * p_fly * dt / 3600.0
    uav_f[:, K.F_DRAIN_HOV] = c.uav_discharge_eff * p_hov * dt / 3600.0
    uav_f[:, K.F_DRAIN_DESC] = c.uav_discharge_eff * p_desc * dt / 3600.0
    uav_f[:, K.F_DRAIN_ASC] = c.uav_discharge_eff * p_asc * dt / 3600.0
    uav_f[:, K.F_STEP_XY] = c.uav_speed_max * dt
    uav_f[:, K.F_STEP_DOWN] = c.uav_descend_speed * dt
    uav_f[:, K.F_STEP_UP] = c.uav_ascend_speed * dt
    ugv_f[:, K.G_X] = gxs
    ugv_f[:, K.G_Y] = gys
    ugv_f[:, K.G_SUPPLY] = c.ugv_supply_wh
    ugv_f[:, K.G_STEP] = (speeds / 3.6) * dt
    ugv_i[:, K.GI_STATE] = K.UGV_IDLE

    return World(
        config=c,
        scheme=scheme,
        seed=seed,
        uav_f=uav_f,
        uav_i=uav_i,
        ugv_f=ugv_f,
        ugv_i=ugv_i,
        soc_alert=np.full(n, c.uav_alert_frac * c.uav_capacity_wh),
        eta_i=np.full(n, c.uav_discharge_eff),
        bidder=np.zeros(n, dtype=bool),
        excluded=np.zeros(n, dtype=bool),
        fail_count=np.zeros(n, dtype=np.int64),
        phi_sum=np.zeros(n),
        rho_sum=np.zeros(n),
        sample_count=np.zeros(n, dtype=np.int64),
        ugv_speed_kmh=speeds,
        ugv_transfer_power=np.full(m, c.ugv_transfer_power_w),
        ugv_eta=np.full(m, c.ugv_transfer_eff),
    )


def advance_slot(world: World) -> World:
    """Advance one slot: physics step, then bidder bookkeeping."""
    K.step_world(world.uav_f, world.uav_i, world.ugv_f, world.ugv_i)

    # run_worlds stacks only worlds that agree on every config field read here
    c = world.config
    act = world.uav_i[:, K.I_ACT]
    rho = world.urgency()
    sensing = act == K.ACT_SENSE
    joining = sensing & ~world.bidder & ~world.excluded & (rho >= c.enter_urgency)
    world.bidder |= joining

    sampling = world.bidder & sensing
    np.add(world.phi_sum, c.mu0 + c.mu1 * rho, out=world.phi_sum, where=sampling)
    np.add(world.rho_sum, rho, out=world.rho_sum, where=sampling)
    world.sample_count += sampling

    world.clock += 1
    return world


def close_window(world: World, with_audit: bool = False):
    """Clear the pending window at the current slot boundary.

    Reads the market inputs as whole-array slices: the queued bidders'
    window-average valuations and urgencies, their satisfaction gaps, and
    each idle vehicle's quality score and remaining supply. Clears the
    market through the auction, schedules rendezvous for matched pairs,
    and re-queues losers. Returns (outcome, metrics row[, audit report]).
    """
    c = world.config
    spw = c.slots_per_window
    if world.clock % spw != 0 or world.clock == 0:
        raise ValueError(f"clock {world.clock} is not at a window boundary")
    window_id = world.clock // spw

    ids = np.flatnonzero(world.bidder & (world.sample_count > 0))
    soc = world.uav_f[ids, K.F_SOC]
    if not np.all((soc >= 0.0) & (soc <= world.uav_f[ids, K.F_CAP])):
        raise ValueError(f"window {window_id}: a bidder's SoC left [0, capacity]")
    n_s = world.sample_count[ids]
    # plain floats from here on: outcomes serialize to JSON/CSV
    bidder_ids = ids.tolist()
    phi = (world.phi_sum[ids] / n_s).tolist()
    phi_bars = dict(zip(bidder_ids, phi))
    rho_bars = dict(zip(bidder_ids, (world.rho_sum[ids] / n_s).tolist()))
    gaps = (world.uav_f[ids, K.F_SAT] - soc).tolist()
    demand = list(map(DemandEntry, bidder_ids, phi, phi))  # truthful bids

    idle = np.flatnonzero(world.ugv_i[:, K.GI_STATE] == K.UGV_IDLE).tolist()
    supply = world.ugv_f[idle, K.G_SUPPLY].tolist()
    offers = [(j, world.ugv_qors(j), s) for j, s in zip(idle, supply)]

    market = admit(demand, offers, window_id, gaps)
    outcome = run_auction(market)

    envy = non_envy_ratio(outcome, phi_bars) if phi_bars else None
    row = MetricsRow(
        scheme=world.scheme,
        ugv_count=c.ugv_count,
        tau=c.window_len,
        seed=world.seed,
        window=window_id,
        sl=satisfaction_level(outcome, rho_bars),
        uav_utility=sum(outcome.uav_utilities.values()),
        ugv_utility=sum(outcome.ugv_utilities.values()),
        surplus=outcome.social_surplus,
        non_envy_ratio=envy.all_participants if envy else 1.0,
        winners=outcome.num_winners,
    )

    # schedule matched pairs
    for m in outcome.winners:
        i, j = m.uav_id, m.ugv_id
        pad = (world.ugv_f[j, K.G_X], world.ugv_f[j, K.G_Y])
        meet = pad if world.scheme == SCHEME_STATIC else rendezvous(world.spot, pad)
        world.uav_i[i, K.I_ACT] = K.ACT_FLY_OUT
        world.uav_i[i, K.I_PARTNER] = j + world.ugv_base
        world.uav_f[i, K.F_TX] = meet[0]
        world.uav_f[i, K.F_TY] = meet[1]
        gain = (
            world.eta_i[i]
            * world.ugv_eta[j]
            * world.ugv_transfer_power[j]
            * c.slot_len
            / 3600.0
        )
        world.uav_f[i, K.F_CHARGE_GAIN] = gain
        # sender-side loss: the pad draws delivered/eta_j from its stock
        world.uav_f[i, K.F_SUPPLY_DRAW] = gain / world.ugv_eta[j]
        world.ugv_i[j, K.GI_PARTNER] = i + world.uav_base
        if world.scheme == SCHEME_STATIC:
            world.ugv_i[j, K.GI_STATE] = K.UGV_SERVING
        else:
            world.ugv_i[j, K.GI_STATE] = K.UGV_ENROUTE
            world.ugv_f[j, K.G_TX] = meet[0]
            world.ugv_f[j, K.G_TY] = meet[1]
        world.bidder[i] = False
        world.fail_count[i] = 0

    for i in outcome.losers:
        world.fail_count[i] += 1
        if c.max_failed_windows > 0 and world.fail_count[i] >= c.max_failed_windows:
            # stop bidding for the rest of the run; the UAV keeps hovering
            # over its task and draining, with no other way to recharge
            world.bidder[i] = False
            world.excluded[i] = True

    # fresh valuation series for the next window
    world.phi_sum[:] = 0.0
    world.rho_sum[:] = 0.0
    world.sample_count[:] = 0

    if with_audit:
        report = audit_market(market, instance=f"{world.scheme}-seed{world.seed}-w{window_id}")
        return outcome, row, report
    return outcome, row


# agent state and per-UAV bookkeeping, stacked across the worlds of a sweep
_UAV_ARRAYS = (
    "uav_f", "uav_i", "soc_alert", "bidder", "excluded", "fail_count",
    "phi_sum", "rho_sum", "sample_count",
)
_UGV_ARRAYS = ("ugv_f", "ugv_i")


def _shift_partners(worlds: Sequence[World], sign: int) -> None:
    """Add (sign=1) or remove (sign=-1) each world's bases on its partners."""
    for w in worlds:
        p = w.uav_i[:, K.I_PARTNER]
        p[p >= 0] += sign * w.ugv_base
        p = w.ugv_i[:, K.GI_PARTNER]
        p[p >= 0] += sign * w.uav_base


def _stack(worlds: Sequence[World]) -> World:
    """One world over every member's agents; members become views of it.

    The stacked agent arrays are column-contiguous, like the ones
    ``generate_scenario`` builds, so each column of a member's view is
    a contiguous slice of the stack's.
    """
    first = worlds[0]
    stack = World(config=first.config, scheme=first.scheme, seed=first.seed,
                  clock=first.clock)
    for name in _UAV_ARRAYS + _UGV_ARRAYS:
        setattr(stack, name,
                np.asfortranarray(np.concatenate([getattr(w, name) for w in worlds])))
    uav_base = ugv_base = 0
    for w in worlds:
        n, m = w.num_uavs, w.num_ugvs
        for name in _UAV_ARRAYS:
            setattr(w, name, getattr(stack, name)[uav_base:uav_base + n])
        for name in _UGV_ARRAYS:
            setattr(w, name, getattr(stack, name)[ugv_base:ugv_base + m])
        w.uav_base, w.ugv_base = uav_base, ugv_base
        uav_base += n
        ugv_base += m
    _shift_partners(worlds, 1)
    return stack


def _unstack(worlds: Sequence[World]) -> None:
    """Give every member its own arrays again, with local partner indices."""
    _shift_partners(worlds, -1)
    for w in worlds:
        for name in _UAV_ARRAYS + _UGV_ARRAYS:
            setattr(w, name, getattr(w, name).copy(order="K"))
        w.uav_base = w.ugv_base = 0


def _offered(world: World) -> np.ndarray:
    """Mask of the vehicles ``admit`` keeps when no bidder has a gap:
    idle with supply >= 0 (every q is at least ``qors_floor`` > 0)."""
    return (world.ugv_i[:, K.GI_STATE] == K.UGV_IDLE) & (world.ugv_f[:, K.G_SUPPLY] >= 0.0)


def _no_market_outcome(world: World, window_id: int) -> AuctionOutcome:
    """``close_window``'s outcome for a window with no sampled bidder:
    nothing clears, and every vehicle ``admit`` would keep settles at 0."""
    offered = np.flatnonzero(_offered(world)).tolist()
    return AuctionOutcome(
        window_id=window_id, winners=(), losers=(), payments=(), uav_utilities={},
        ugv_utilities=dict.fromkeys(offered, 0.0), social_surplus=0.0,
    )


def _run_lockstep(worlds: Sequence[World], horizon: int, first_entry: Sequence[int],
                  cols: MetricsColumns, outcomes: Optional[list],
                  audits: Optional[list]) -> None:
    """Step worlds that share advance_slot's constants as one stack.

    Member k's windows fill ``cols`` from entry ``first_entry[k]`` on. At
    a slot boundary one segment sum over the stack counts each world's
    sampled bidders. Due worlds with a bidder clear through
    ``close_window``. The rest (most windows of a sweep) keep their new
    entries, except that a second segment sum finds which of them have a
    vehicle ``admit`` would keep: its zero utility makes ``ugv_utility``
    the float 0.0 instead of the empty sum 0. Nothing else changes in a
    window with no sampled bidder: the valuation sums grow only on
    sampled bidders, so they are zero already. ``outcomes`` (one list per
    member) and ``audits`` (one item per entry) are filled unless None.
    """
    stack = _stack(worlds)
    start = stack.clock
    by_spw: dict[int, list[int]] = {}  # window length in slots -> member indices
    for k, w in enumerate(worlds):
        by_spw.setdefault(w.config.slots_per_window, []).append(k)
    # per window length s: its members, and the entries of their windows
    # that close at clock t, less t // s
    classes = [(s, np.array(ks), np.array([first_entry[k] for k in ks]) - start // s - 1)
               for s, ks in by_spw.items()]
    uav_starts = np.array([w.uav_base for w in worlds])
    ugv_starts = np.array([w.ugv_base for w in worlds])
    try:
        for _ in range(horizon):
            advance_slot(stack)
            clock = stack.clock
            due = [(ks, base + clock // s) for s, ks, base in classes if clock % s == 0]
            if not due:
                continue
            queued = np.add.reduceat(stack.bidder & (stack.sample_count > 0), uav_starts) > 0
            stocked = None
            for ks, entry in due:
                market = queued[ks]
                if not market.all():
                    if stocked is None:
                        stocked = np.add.reduceat(_offered(stack), ugv_starts) > 0
                    quiet = ~market
                    cols.ugv_empty[entry[quiet]] = ~stocked[ks[quiet]]
                    if outcomes is not None:
                        for k, e in zip(ks[quiet].tolist(), entry[quiet].tolist()):
                            outcomes[k].append(_no_market_outcome(worlds[k], int(cols.window[e])))
                for k, e in zip(ks[market].tolist(), entry[market].tolist()):
                    world = worlds[k]
                    world.clock = clock
                    outcome, row, *report = close_window(world, with_audit=audits is not None)
                    cols.record(e, row)
                    if outcomes is not None:
                        outcomes[k].append(outcome)
                    if audits is not None:
                        audits[e] = audit_report_row(report[0])[1:]
    finally:
        for w in worlds:
            w.clock = stack.clock
        _unstack(worlds)


def _run_columns(worlds: Sequence[World], horizon_slots: Optional[int],
                 with_audit: bool, keep_outcomes: bool):
    """``run_worlds`` into columns: (``MetricsColumns`` with one run per
    world, under its own scheme; outcomes per world or None; audit
    fields per entry or None, see ``MetricsColumns.audit_reports``)."""
    if len({w.clock for w in worlds}) > 1:
        raise ValueError("run_worlds needs every world at the same clock")
    groups: dict[tuple, list[int]] = {}
    runs, windows = [], [np.zeros(0, dtype=np.int64)]
    stop = 0
    for k, w in enumerate(worlds):
        c = w.config
        horizon = horizon_slots if horizon_slots is not None else c.horizon_slots
        groups.setdefault((horizon, c.enter_urgency, c.mu0, c.mu1), []).append(k)
        spw = c.slots_per_window
        first, last = w.clock // spw, (w.clock + horizon) // spw
        count = last - first
        windows.append(np.arange(first + 1, last + 1))
        runs.append((w.scheme, c.ugv_count, c.window_len, w.seed, stop, stop + count))
        stop += count
    cols = MetricsColumns(runs, np.concatenate(windows))
    outcomes = [[] for _ in worlds] if keep_outcomes else None
    audits = [None] * stop if with_audit else None
    for (horizon, *_), members in groups.items():
        _run_lockstep([worlds[k] for k in members], horizon,
                      [runs[k][4] for k in members], cols,
                      None if outcomes is None else [outcomes[k] for k in members], audits)
    return cols, outcomes, audits


def run_worlds(
    worlds: Sequence[World],
    horizon_slots: Optional[int] = None,
    with_audit: bool = False,
    keep_outcomes: bool = False,
) -> list[tuple[list[MetricsRow], list[AuctionOutcome], list]]:
    """Run every world's horizon in lockstep; one result per world, in order.

    Worlds that share a horizon and the constants ``advance_slot`` reads
    (``enter_urgency``, ``mu0``, ``mu1``) are stacked and stepped by one
    ``advance_slot`` call per slot; each world's windows still close at its
    own ``slots_per_window``. The kernel and the bookkeeping are per
    agent, so every world evolves exactly as it would alone. A window
    with no sampled bidder is recorded without building a market; its
    row, outcome and audit report equal ``close_window``'s. Each result
    is (metrics rows, outcomes, audit reports), as from ``run_world``.
    """
    cols, outcomes, audits = _run_columns(worlds, horizon_slots, with_audit, keep_outcomes)
    rows = cols.rows()
    return [
        (rows[run[4]:run[5]],
         outcomes[k] if keep_outcomes else [],
         cols.audit_reports(audits, run) if with_audit else [])
        for k, run in enumerate(cols.runs)
    ]


def run_world(
    world: World,
    horizon_slots: Optional[int] = None,
    with_audit: bool = False,
    keep_outcomes: bool = False,
):
    """Run the horizon; returns (metrics rows, outcomes, audit reports)."""
    return run_worlds([world], horizon_slots, with_audit, keep_outcomes)[0]


@dataclass
class ExperimentResult:
    """A sweep's window metrics in columns, its aggregates, and the audit
    reports and outcomes asked for, all in row order."""

    metrics: MetricsColumns
    aggregates: list[dict]
    audits: list = field(default_factory=list)
    outcomes: list = field(default_factory=list)  # (scheme, seed, AuctionOutcome)

    @property
    def rows(self) -> list[MetricsRow]:
        """The metrics rows in output order, built from the columns on each access."""
        return self.metrics.rows()


def sweep_cells(config: ScenarioConfig, sweep: Mapping[str, Sequence]) -> list[ScenarioConfig]:
    """``config`` with each combination of ``sweep``'s value lists applied,
    in cartesian-product order; ``sweep`` maps field names to values."""
    keys = list(sweep)
    return [
        config.replace(**dict(zip(keys, combo)))
        for combo in itertools.product(*(sweep[k] for k in keys))
    ]


def run_experiment(
    config: ScenarioConfig,
    sweep: Mapping[str, Sequence],
    replications: int,
    schemes: Sequence[str] = ALL_SCHEMES,
    base_seed: int = 0,
    with_audit: bool = False,
    keep_outcomes: bool = False,
) -> ExperimentResult:
    """Grid x seeds x schemes Monte-Carlo sweep.

    ``sweep`` maps ScenarioConfig field names to value lists; the full
    cartesian product is simulated for ``replications`` seeds
    (base_seed, base_seed+1, ...). Each seed's agent substreams are drawn
    once, for the largest fleet of the sweep, and every world of that
    seed is built from them: a smaller fleet takes a prefix, a static
    world the same draws pinned in place. ``ours`` and ``optimal`` clear
    identically under truthful bids, so they share one mobile world per
    (cell, seed); its windows are emitted once per scheme, under that
    scheme's label, in (cell, seed, ``schemes``) order.
    """
    for scheme in schemes:
        if scheme not in ALL_SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
    cells = [_checked(cfg) for cfg in sweep_cells(config, sweep)] if replications > 0 else []
    uavs = max((cfg.uav_count for cfg in cells), default=0)
    ugvs = max((cfg.ugv_count for cfg in cells), default=0)
    draws = [_draw_agents(base_seed + rep, uavs, ugvs) for rep in range(replications)]
    worlds: list[World] = []
    emitted: list[tuple[str, int]] = []  # (scheme, index of its world)
    for cfg in cells:
        for rep in range(replications):
            built: dict[str, int] = {}
            for scheme in schemes:
                kind = SCHEME_STATIC if scheme == SCHEME_STATIC else SCHEME_OURS
                if kind not in built:
                    built[kind] = len(worlds)
                    worlds.append(_build_world(cfg, base_seed + rep, kind, *draws[rep]))
                emitted.append((scheme, built[kind]))
    cols, world_outcomes, world_audits = _run_columns(worlds, None, with_audit, keep_outcomes)
    runs, audits, outcomes = [], [], []
    for scheme, k in emitted:
        run = (scheme, *cols.runs[k][1:])
        runs.append(run)
        if with_audit:
            audits += cols.audit_reports(world_audits, run)
        if keep_outcomes:
            outcomes += [(scheme, run[3], o) for o in world_outcomes[k]]
    cols.runs = runs
    return ExperimentResult(
        metrics=cols, aggregates=aggregate_rows(cols), audits=audits, outcomes=outcomes,
    )
