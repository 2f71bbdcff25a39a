"""Time-slotted world model: scenario generation, dynamics, experiments.

A ``World`` holds every agent's state in struct-of-arrays form, and
each kernel call advances it by a block of slots: batteries follow the
linear activity model, matched vehicles drive to their rendezvous,
charging sessions hold a pad until the satisfactory level and UAVs that
cross the urgency threshold queue as bidders. Every ``window_len``
seconds the accumulated bidders and idle vehicles clear through the
auction, against mobile vehicles or static pads.

Every simulated bid is truthful, and under truthful bids the omniscient
welfare-maximizing planner's outcome is the auction's own
(``baselines``). So every scheme clears through ``run_auction``, and a
sweep steps one mobile world per (cell, seed) and reports it under both
``ours`` and ``optimal``.

A sweep runs all its worlds in lockstep (``run_worlds``): their agent
arrays are stacked, and each block of slots up to the next window
boundary is one kernel call for the whole sweep. The kernel buffers
each slot's SoC and sensing mask, all that the bidder bookkeeping
(urgency, joining the bidders, valuation sums) reads, so it runs once
per block (``_book``); a block in which no UAV of the stack bids or
can join books nothing. Each world still clears its windows at its own
``window_len``. Nothing couples agents except partner indices, which
are offset into the stack, so every world evolves bit-identically to a
run on its own. Window metrics, and the outcomes and audit findings
asked for, are kept in columns (``MetricsColumns``), one block of
entries per world, and the CSVs are written from them as text; rows,
reports and outcomes are built only when read.

Every window that closes at a slot boundary is cleared by one
``_close_boundary`` call for the whole stack, from arrays. Most windows
of a sweep have no trade: no sampled bidder, or no vehicle that could
serve the neediest one. Segment reductions over the stack tell those
apart, and they are settled in bulk; a boundary at which no world has
a sampled bidder only sets its windows' empty-side flags. A window with
a trade is cleared without building a market: one sort ranks the
bidders of every due world, and Python scores only each trade's
admitted vehicles and clears both sides through ``mechanism.clear``, as
``run_auction`` does. An audited trade keeps its ranked bids and its
vehicles' q, and the run's trades are audited from those arrays in one
batch after its last slot, still with no market object. ``close_window``
is the one-world call of ``_close_boundary``; the tests hold both to the
scalar reference ``tests/conftest.py::close_window_loop``, which clears
each window through ``admit`` and ``run_auction``.

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
from typing import Mapping, NamedTuple, Optional, Sequence

import numpy as np

from . import _kernels as K
from .audit import _audit_arrays
# no caller here; kept importable because the benchmark's tracer hooks these names
from .audit import audit_market, non_envy_ratio
from .baselines import optimal_scheme_outcome
from .mechanism import admit, run_auction
from .energy import slot_constants
from .mechanism import Trade, clear
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
    own, partner indices are local and both bases are 0. A constant
    that the config sets for every agent, such as an efficiency, is read
    from ``config`` or folded into the agent arrays at build (the drains
    and the charging rates).
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
    bidder: np.ndarray = field(default=None, repr=False)
    excluded: np.ndarray = field(default=None, repr=False)
    fail_count: np.ndarray = field(default=None, repr=False)
    phi_sum: np.ndarray = field(default=None, repr=False)
    rho_sum: np.ndarray = field(default=None, repr=False)
    sample_count: np.ndarray = field(default=None, repr=False)

    # per-UGV static attribute (0 on a static pad)
    ugv_speed_kmh: np.ndarray = field(default=None, repr=False)

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
            discharge_efficiency=c.uav_discharge_eff,
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
            transfer_power=c.ugv_transfer_power_w,
            transfer_efficiency=c.ugv_transfer_eff,
            qors=qors,
        )

    def qors(self, ugvs: list) -> list[float]:
        """The QoRS of vehicles ``ugvs``, from the distance a UAV flies to
        reach each one's service point: its distance to the spot, halved
        for a mobile vehicle, which meets the UAV halfway, and capped at
        ``qors_ref_distance``. The coordinates are read once, as floats."""
        c = self.config
        spot_x, spot_y = c.spot
        halve = self.scheme != SCHEME_STATIC
        rows = self.ugv_f.take(ugvs, axis=0)
        qs = []
        for x, y in zip(rows[:, K.G_X].tolist(), rows[:, K.G_Y].tolist()):
            d = math.hypot(x - spot_x, y - spot_y)
            if halve:
                d = d / 2.0
            qs.append(qors_from_distance(min(d, c.qors_ref_distance), c.qors_ref_distance,
                                         c.qors_floor))
        return qs


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

    per_slot = slot_constants(c)

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
    uav_f[:, K.F_DRAIN_FLY] = per_slot.drain_fly
    uav_f[:, K.F_DRAIN_HOV] = per_slot.drain_hov
    uav_f[:, K.F_DRAIN_DESC] = per_slot.drain_desc
    uav_f[:, K.F_DRAIN_ASC] = per_slot.drain_asc
    # the kernel reads both only while a UAV charges
    uav_f[:, K.F_CHARGE_GAIN] = per_slot.charge_gain
    uav_f[:, K.F_SUPPLY_DRAW] = per_slot.supply_draw
    uav_f[:, K.F_STEP_XY] = per_slot.step_xy
    uav_f[:, K.F_STEP_DOWN] = per_slot.step_down
    uav_f[:, K.F_STEP_UP] = per_slot.step_up
    ugv_f[:, K.G_X] = gxs
    ugv_f[:, K.G_Y] = gys
    ugv_f[:, K.G_SUPPLY] = c.ugv_supply_wh
    ugv_f[:, K.G_STEP] = (speeds / 3.6) * c.slot_len
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
        bidder=np.zeros(n, dtype=bool),
        excluded=np.zeros(n, dtype=bool),
        fail_count=np.zeros(n, dtype=np.int64),
        phi_sum=np.zeros(n),
        rho_sum=np.zeros(n),
        sample_count=np.zeros(n, dtype=np.int64),
        ugv_speed_kmh=speeds,
    )


def advance_slot(world: World) -> World:
    """Advance one slot: a one-slot kernel block, booked by ``_book``."""
    soc = np.empty((1, world.num_uavs))
    sensing = np.empty(soc.shape, dtype=bool)
    K.step_world(world.uav_f, world.uav_i, world.ugv_f, world.ugv_i, soc=soc, sensing=sensing)
    _book(world, soc, sensing)
    world.clock += 1
    return world


def _book(world: World, soc: np.ndarray, sensing: np.ndarray) -> None:
    """Bidder bookkeeping for a block of consecutive slots, in slot order.

    ``soc[t]`` and ``sensing[t]`` are every UAV's SoC and whether it is
    sensing after the block's slot t was stepped. A sensing UAV that is
    not excluded joins the bidders once its urgency reaches
    ``enter_urgency``; every sensing bidder samples its valuation and
    urgency. Each element goes through the float operations of a
    slot-by-slot pass: the sums add one slot row at a time, and a slot
    that does not sample adds +0.0, which leaves a sum that starts at
    +0.0 unchanged. Only a window boundary removes bidders or excludes
    UAVs, so a block must not span one.

    With no bidder in ``world`` (most blocks of a sweep), the block's
    last slot decides alone, and when no UAV would join there, nothing
    is written. This is exact: inside a block no UAV leaves SENSE (only
    a boundary sends one out), a sensing UAV's SoC never rises, and the
    urgency is monotone in SoC under IEEE rounding, so a UAV that would
    join at some slot would also join at the last one. Without a
    bidder, no slot samples, and every sum would gain only +0.0.
    """
    # run_worlds stacks only worlds that agree on every config field read here
    c = world.config

    def joining(soc, sensing):  # charging urgency, pinned to 1 below the alert level
        rho = np.minimum(1.0 - (soc - world.soc_alert) / world.uav_f[:, K.F_CAP], 1.0)
        return rho, sensing & ~world.excluded & (rho >= c.enter_urgency)

    bidder = world.bidder
    if not (bidder.any() or joining(soc[-1], sensing[-1])[1].any()):
        return
    rho, joins = joining(soc, sensing)
    sampling = np.empty_like(sensing)
    for t in range(len(sampling)):
        bidder |= joins[t]
        np.logical_and(bidder, sensing[t], out=sampling[t])
    phi_sum, rho_sum = world.phi_sum, world.rho_sum
    for phi_t, rho_t in zip(np.where(sampling, c.mu0 + c.mu1 * rho, 0.0),
                            np.where(sampling, rho, 0.0)):
        phi_sum += phi_t
        rho_sum += rho_t
    world.sample_count += sampling.sum(0)


def close_window(world: World) -> tuple[AuctionOutcome, MetricsRow]:
    """Clear the pending window of ``world``, a world of its own (not a
    member of a stack), at the current slot boundary: the one-world call
    of ``_close_boundary``, with the outcome kept and no market built.
    Returns (outcome, metrics row). The tests hold it to the scalar
    reference ``tests/conftest.py::close_window_loop``."""
    c = world.config
    spw = c.slots_per_window
    if world.clock % spw != 0 or world.clock == 0:
        raise ValueError(f"clock {world.clock} is not at a window boundary")
    if world.uav_base or world.ugv_base:
        raise ValueError("close_window clears a world of its own, not a member of a stack")
    window = world.clock // spw
    cols = MetricsColumns([(world.scheme, c.ugv_count, c.window_len, world.seed, 0, 1)],
                          np.array([window]), False, True)
    one = np.zeros(1, dtype=np.int64)  # the one member, and its one entry
    _close_boundary(world, [world], one, one, cols, _layout([world]))
    return cols.outcomes[0].outcome(window), cols.rows()[0]


# most slots in one kernel call and its booking: at least one window at
# the usual window lengths, a few MB of buffers at 10,000 UAV rows
_BOOK_SLOTS = 32

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


class _Layout(NamedTuple):
    """Where each member of a stack lies in it, and the per-world
    constants a slot boundary reads."""

    uav_starts: np.ndarray  # each world's first UAV row
    ugv_starts: np.ndarray  # each world's first vehicle row
    uav_world: np.ndarray  # each UAV row's world
    ugv_world: np.ndarray  # each vehicle row's world
    uav_base: np.ndarray  # each UAV row's world's first row
    ugv_base: np.ndarray  # each vehicle row's world's first row
    max_fails: np.ndarray  # each UAV row's world's max_failed_windows
    static: np.ndarray  # per world: static pads, met where they stand
    spot_x: np.ndarray  # per world: the sensing spot
    spot_y: np.ndarray


def _layout(worlds: Sequence[World]) -> _Layout:
    """The layout of the stacked ``worlds`` (after ``_stack``)."""
    uav_starts = np.array([w.uav_base for w in worlds])
    ugv_starts = np.array([w.ugv_base for w in worlds])
    uav_world = np.repeat(np.arange(len(worlds)), [w.num_uavs for w in worlds])
    ugv_world = np.repeat(np.arange(len(worlds)), [w.num_ugvs for w in worlds])
    return _Layout(
        uav_starts, ugv_starts, uav_world, ugv_world,
        uav_starts[uav_world], ugv_starts[ugv_world],
        np.array([w.config.max_failed_windows for w in worlds])[uav_world],
        np.array([w.scheme == SCHEME_STATIC for w in worlds]),
        np.array([w.spot[0] for w in worlds]), np.array([w.spot[1] for w in worlds]),
    )


class _Boundary(NamedTuple):
    """The masks ``_close_boundary`` computes at one slot boundary."""

    sampled: np.ndarray  # per UAV row: a bidder with a valuation sample
    queued: np.ndarray  # per world: some UAV row is sampled
    admitted: np.ndarray  # per vehicle row: idle, and covers its world's largest gap
    trading: np.ndarray  # per due member: bidders and an admitted vehicle
    losing: np.ndarray  # per UAV row: lost a window that closed here


def _run_lockstep(worlds: Sequence[World], horizon: int, first_entry: Sequence[int],
                  cols: MetricsColumns) -> None:
    """Step worlds that share ``_book``'s constants as one stack.

    The stack steps a block of slots per kernel call: up to the next
    boundary of any member's windows, at most ``_BOOK_SLOTS`` slots and
    no further than the horizon. The kernel fills the block's SoC and
    sensing buffers, and ``_book`` books them before the boundary reads
    the bidders. Member k's windows fill ``cols`` from entry ``first_entry[k]`` on.
    Every window that closes at a slot, whatever its world's window
    length, is cleared by one ``_close_boundary`` call for the whole
    stack, which fills the windows' entries; one array test of the clock
    finds the due members. The trades it keeps for the audit are audited
    in one ``_audit_arrays`` batch after the last slot. The members are
    left as views of the stack (``run_worlds`` unstacks them).
    """
    stack = _stack(worlds)
    start = stack.clock
    # per member: its window length in slots, and the entry of its window
    # that closes at clock t, less t // spw
    spw = np.array([w.config.slots_per_window for w in worlds])
    base = np.array(first_entry) - start // spw - 1
    lengths = set(spw.tolist())
    layout = _layout(worlds)
    soc = np.empty((min(*lengths, _BOOK_SLOTS), stack.num_uavs))  # a block's, slot by slot
    sensing = np.empty(soc.shape, dtype=bool)
    clock, end = start, start + horizon
    try:
        while clock < end:
            k = min(end, clock + _BOOK_SLOTS, *((clock // s + 1) * s for s in lengths)) - clock
            K.step_world(stack.uav_f, stack.uav_i, stack.ugv_f, stack.ugv_i,
                         soc=soc[:k], sensing=sensing[:k])
            stack.clock = clock = clock + k
            _book(stack, soc[:k], sensing[:k])
            ks = np.flatnonzero(clock % spw == 0)  # in stack order, as the boundary ranks them
            if ks.size:
                _close_boundary(stack, worlds, ks, base[ks] + clock // spw[ks], cols, layout)
        if cols.audited:
            entries, ranked, bids, qs = zip(*cols.audited)
            flat = itertools.chain.from_iterable
            bids = list(flat(bids))  # truthful: each bid is its valuation
            fields = _audit_arrays([len(r) for r in ranked], [len(q) for q in qs],
                                   list(flat(ranked)), bids, bids, list(flat(qs)))
            for e, f in zip(entries, fields):
                cols.audits[e] = f
            cols.audited.clear()
    finally:
        for w in worlds:
            w.clock = stack.clock


def _close_boundary(stack: World, worlds: Sequence[World], ks: np.ndarray,
                    entry: np.ndarray, cols: MetricsColumns, layout: _Layout) -> _Boundary:
    """Clear every window of the stack that closes at the stack's clock.

    ``ks`` are the due members, ascending, and ``entry`` their windows'
    entries in ``cols``. Segment reductions over the stack find each
    world's sampled bidders and their largest satisfaction gap (0 with
    no bidder, as in ``admit``), and then the vehicles ``admit`` would
    keep: idle, with supply covering that gap (every q is at least
    ``qors_floor`` > 0). A due world with a bidder and an admitted
    vehicle trades. One stable ``np.lexsort`` ranks the due worlds'
    bidders by (world, bid descending, row), as the auction ranks them.

    A trade clears without building a market: ``_clear_window`` passes
    the ranking and the world's admitted vehicles, scored by one
    ``World.qors`` call, to ``mechanism.clear``, and sums SL and the
    utilities in the order of ``tests/conftest.py::close_window_loop``,
    the scalar reference, into the ``MetricsRow`` that checks them; the
    pairs are scheduled in one array pass. Every other bidder of a due
    world loses, and all of them, in trades or not, settle through one
    ``_settle_losers``. Every due entry's empty-side flags are set here,
    and when ``cols`` keeps them, its ``Trade`` record (with no winner
    for a window with no trade); for an audit, a trade's ranked bidders,
    their bids and its vehicles' q are kept in ``cols.audited``. A
    bidder whose SoC has left [0, capacity] is a ValueError.

    With no sampled bidder in the whole stack (most boundaries of a
    sweep) and no outcome kept, only the due entries' empty-side flags
    are set, and the masks returned are the ones the full pass would
    return: no window can trade, no UAV loses, and ``admit``'s largest
    gap is 0, so every idle vehicle with supply is admitted.
    """
    L = layout
    sampled = stack.bidder & (stack.sample_count > 0)
    keep = cols.outcomes is not None
    if not (keep or sampled.any()):
        admitted = ((stack.ugv_i[:, K.GI_STATE] == K.UGV_IDLE)
                    & (stack.ugv_f[:, K.G_SUPPLY] >= 0.0))
        cols.ugv_empty[entry] = np.add.reduceat(admitted, L.ugv_starts)[ks] == 0
        return _Boundary(sampled, np.zeros(len(worlds), dtype=bool), admitted,
                         np.zeros(ks.size, dtype=bool), np.zeros(stack.num_uavs, dtype=bool))
    n_sampled = np.add.reduceat(sampled, L.uav_starts)
    queued = n_sampled > 0
    bids = queued[ks]
    bidding = bids.any()  # false at most boundaries of a sweep
    need = 0.0  # admit's largest satisfaction gap with no bidder
    if bidding:
        gap = np.where(sampled, stack.uav_f[:, K.F_SAT] - stack.uav_f[:, K.F_SOC], -np.inf)
        need = np.where(queued, np.maximum.reduceat(gap, L.uav_starts), 0.0)[L.ugv_world]
    admitted = ((stack.ugv_i[:, K.GI_STATE] == K.UGV_IDLE)
                & (stack.ugv_f[:, K.G_SUPPLY] >= need))
    n_admitted = np.add.reduceat(admitted, L.ugv_starts)
    sells = n_admitted[ks] > 0
    trading = bids & sells
    # every due entry's empty-side flags are set here, trades included
    cols.ugv_empty[entry] = ~sells
    trades = np.flatnonzero(trading).tolist()
    losing = np.zeros(stack.num_uavs, dtype=bool)
    masks = _Boundary(sampled, queued, admitted, trading, losing)
    if not (bidding or keep):
        return masks
    due = np.zeros(len(worlds), dtype=bool)
    due[ks] = True
    if bidding:
        cols.uav_empty[entry] = ~bids
        rows = np.flatnonzero(sampled & due[L.uav_world])
        soc = stack.uav_f[rows, K.F_SOC]
        bad = rows[~((soc >= 0.0) & (soc <= stack.uav_f[rows, K.F_CAP]))]
        if bad.size:
            window = stack.clock // worlds[L.uav_world[bad[0]]].config.slots_per_window
            raise ValueError(f"window {window}: a bidder's SoC left [0, capacity]")
        losing[rows] = True
    if keep or trades:
        # the due members' bidders, ranked, and admitted vehicles in id
        # order (local ids), member after member
        ranked: list = []
        if bidding:
            n = stack.sample_count[rows]
            bid = stack.phi_sum[rows] / n
            # lexsort is stable: equal bids stay in row (id) order
            order = np.lexsort((-bid, L.uav_world[rows]))
            rows, bid, n = rows[order], bid[order], n[order]
            ranked = (rows - L.uav_base[rows]).tolist()
        n_bid = n_sampled[ks].tolist()
        bid_end = list(itertools.accumulate(n_bid))
        offered = np.flatnonzero(admitted & due[L.ugv_world])
        offered = (offered - L.ugv_base[offered]).tolist()
        n_offer = n_admitted[ks].tolist()
        offer_end = list(itertools.accumulate(n_offer))
        members, entries = ks.tolist(), entry.tolist()
    if trades:
        rho_bar = (stack.rho_sum[rows] / n).tolist()
        rows, bid = rows.tolist(), bid.tolist()
        won, won_ugvs = [], []  # stack rows of the pairs
        for i in trades:
            world, e = worlds[members[i]], entries[i]
            window = stack.clock // world.config.slots_per_window
            s, stop = bid_end[i] - n_bid[i], bid_end[i]
            js = offered[offer_end[i] - n_offer[i]:offer_end[i]]
            trade, row, qs = _clear_window(world, window, ranked[s:stop], bid[s:stop],
                                           rho_bar[s:stop], js)
            cols.record(e, row)
            won += rows[s:s + row.winners]
            won_ugvs += [j + world.ugv_base for j in trade.vehicles]
            if keep:
                cols.outcomes[e] = trade
            if cols.audits is not None:
                cols.audited.append((e, trade.ranked, bid[s:stop], qs))
        won, won_ugvs = np.array(won), np.array(won_ugvs)
        _schedule(stack, L, won, won_ugvs)
        losing[won] = False
    if bidding:
        losers = np.flatnonzero(losing)
        _settle_losers(stack, losers, L.max_fails[losers])
    if keep:
        for i in np.flatnonzero(~trading).tolist():
            cols.outcomes[entries[i]] = Trade(ranked[bid_end[i] - n_bid[i]:bid_end[i]],
                                             offered[offer_end[i] - n_offer[i]:offer_end[i]])
    return masks


def _clear_window(world: World, window: int, ranked: list, bid: list, rho_bar: list,
                  ugvs: list) -> tuple[Trade, MetricsRow, list]:
    """One trading window of ``world``, cleared as the scalar reference
    ``tests/conftest.py::close_window_loop`` clears it, float for float,
    without building a market.

    ``ranked``, ``bid`` and ``rho_bar`` are the window's bidders in the
    auction's order (local id, truthful bid, window-average urgency),
    and ``ugvs`` its admitted vehicles in id order, scored by one
    ``World.qors`` call; ``mechanism.clear`` clears them against the
    vehicles ranked by (q descending, id). Only the vehicles and the
    winners are visited. Returns the trade, its row and the vehicles'
    scores in id order, which an audit reads.
    """
    c = world.config
    qs = world.qors(ugvs)
    offers = list(zip(ugvs, qs))
    # sorted is stable: equal q stay in id order
    offers.sort(key=lambda offer: -offer[1])
    trade = clear(ranked, bid, bid, ugvs, offers)  # truthful: each bid is its valuation
    sl = 0.0
    for q, rho in zip(trade.qs, rho_bar):
        sl += q * rho
    # the reference sums every participant's utility in id order; a
    # loser's 0.0 leaves a sum that starts at the int 0 unchanged
    row = MetricsRow(
        scheme=world.scheme, ugv_count=c.ugv_count, tau=c.window_len, seed=world.seed,
        window=window, sl=sl,
        uav_utility=sum([u for _, u in sorted(zip(ranked, trade.utilities))]),
        ugv_utility=sum([p for _, p in sorted(zip(trade.vehicles, trade.payments))]),
        surplus=trade.surplus, non_envy_ratio=1.0, winners=len(trade.vehicles),
    )
    return trade, row, qs


def _schedule(stack: World, layout: _Layout, uavs: np.ndarray, ugvs: np.ndarray) -> None:
    """Send each winner (stack row ``uavs[r]``) to its vehicle (row
    ``ugvs[r]``), as ``tests/conftest.py::close_window_loop`` schedules a
    pair: a mobile vehicle drives to the rendezvous halfway to the spot,
    a static pad is met where it stands and starts serving. The winners
    leave the queue with a fresh valuation series."""
    world = layout.ugv_world[ugvs]
    static = layout.static[world]
    x, y = stack.ugv_f[ugvs, K.G_X], stack.ugv_f[ugvs, K.G_Y]
    # the rendezvous midpoint's float operations, elementwise
    tx = np.where(static, x, (layout.spot_x[world] + x) / 2.0)
    ty = np.where(static, y, (layout.spot_y[world] + y) / 2.0)
    stack.uav_i[uavs, K.I_ACT] = K.ACT_FLY_OUT
    stack.uav_i[uavs, K.I_PARTNER] = ugvs
    stack.uav_f[uavs, K.F_TX] = tx
    stack.uav_f[uavs, K.F_TY] = ty
    stack.ugv_i[ugvs, K.GI_PARTNER] = uavs
    stack.ugv_i[ugvs, K.GI_STATE] = np.where(static, K.UGV_SERVING, K.UGV_ENROUTE)
    mobile = ~static
    stack.ugv_f[ugvs[mobile], K.G_TX] = tx[mobile]
    stack.ugv_f[ugvs[mobile], K.G_TY] = ty[mobile]
    stack.bidder[uavs] = False
    stack.fail_count[uavs] = 0
    stack.phi_sum[uavs] = stack.rho_sum[uavs] = 0.0
    stack.sample_count[uavs] = 0


def _settle_losers(world: World, losers: np.ndarray, max_fails) -> None:
    """Settle the losing bidders ``losers`` (rows of ``world``) of a window,
    with or without a trade: each fails once more, and one that reaches
    ``max_fails`` (its world's ``max_failed_windows``: a scalar, or one
    limit per loser; 0 never excludes) stops bidding for the rest of the
    run. It keeps hovering over its task and draining, with no other way
    to recharge. Every loser's valuation series restarts."""
    fails = world.fail_count[losers] + 1
    world.fail_count[losers] = fails
    out = losers[(max_fails > 0) & (fails >= max_fails)]
    world.bidder[out] = False
    world.excluded[out] = True
    world.phi_sum[losers] = world.rho_sum[losers] = 0.0
    world.sample_count[losers] = 0


def _run_columns(worlds: Sequence[World], horizon_slots: Optional[int],
                 with_audit: bool, keep_outcomes: bool) -> MetricsColumns:
    """``run_worlds`` into columns: one run per world, under its own
    scheme, with audit fields and outcomes if asked for."""
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
    cols = MetricsColumns(runs, np.concatenate(windows), with_audit, keep_outcomes)
    for (horizon, *_), members in groups.items():
        _run_lockstep([worlds[k] for k in members], horizon, [runs[k][4] for k in members], cols)
    return cols


def run_worlds(
    worlds: Sequence[World],
    horizon_slots: Optional[int] = None,
    with_audit: bool = False,
    keep_outcomes: bool = False,
) -> list[tuple[list[MetricsRow], list[AuctionOutcome], list]]:
    """Run every world's horizon in lockstep; one result per world, in order.

    Worlds that share a horizon and the constants the bidder bookkeeping
    reads (``enter_urgency``, ``mu0``, ``mu1``) are stacked and stepped by
    one kernel call, and booked once, per block of slots up to a window
    boundary; each world's windows still close at its own
    ``slots_per_window``. The kernel and the bookkeeping are per agent,
    so every world evolves exactly as it would alone, slot by slot
    through ``advance_slot``. Every window that closes at a slot is
    cleared by one ``_close_boundary`` call for the stack, without
    building a market, audited or not; each window's row, outcome,
    audit report and state updates equal those of the scalar reference
    ``tests/conftest.py::close_window_loop`` and of ``audit_market`` on
    its market. Each result is (metrics rows, outcomes, audit reports),
    as from ``run_world``, and each world gets its own arrays back.
    """
    try:
        cols = _run_columns(worlds, horizon_slots, with_audit, keep_outcomes)
    finally:
        _unstack(worlds)  # the caller keeps its worlds
    # one run per world, in entry order: output position is entry index
    rows, audits = cols.rows(), cols.audit_reports()
    outcomes = [outcome for *_, outcome in cols.outcome_tuples()]
    return [
        (rows[start:stop], outcomes[start:stop], audits[start:stop])
        for *_, start, stop in cols.runs
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
    """A sweep's windows in columns (metrics, and the audit findings and
    outcomes asked for) and its aggregates; rows, audit reports and
    outcomes are built from the columns, in row order, on each access."""

    metrics: MetricsColumns
    aggregates: list[dict]

    @property
    def rows(self) -> list[MetricsRow]:
        return self.metrics.rows()

    @property
    def audits(self) -> list:
        return self.metrics.audit_reports()

    @property
    def outcomes(self) -> list:
        """(scheme, seed, AuctionOutcome) per window; empty unless kept."""
        return list(self.metrics.outcome_tuples())


def sweep_cells(config: ScenarioConfig, sweep: Mapping[str, Sequence]) -> list[ScenarioConfig]:
    """``config`` with each combination of ``sweep``'s value lists applied,
    in cartesian-product order; ``sweep`` maps field names to values.
    ValueError if a list repeats a value: its cells would be simulated,
    written and aggregated twice."""
    for key, values in sweep.items():
        for k, value in enumerate(values):
            if value in values[:k]:
                raise ValueError(f"{key}: the sweep repeats {value!r}")
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
    scheme's label, in (cell, seed, ``schemes``) order. A value list
    that repeats a value is a ValueError (``sweep_cells``).
    """
    for scheme in schemes:
        if scheme not in ALL_SCHEMES:
            raise ValueError(f"unknown scheme {scheme!r}")
    cells = sweep_cells(config, sweep)
    cells = [_checked(cfg) for cfg in cells] if replications > 0 else []
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
    cols = _run_columns(worlds, None, with_audit, keep_outcomes)
    cols.runs = [(scheme, *cols.runs[k][1:]) for scheme, k in emitted]
    return ExperimentResult(metrics=cols, aggregates=aggregate_rows(cols))
