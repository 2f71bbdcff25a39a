"""World stepping kernel, vectorized in pure numpy.

The simulator keeps agent state in struct-of-arrays form. It calls
``step_world`` once per block of slots up to the next window boundary,
on the stacked arrays of every world in a sweep, and the kernel writes
each slot's SoC and sensing mask into the buffers the bidder bookkeeping
reads, as it does for ``advance_slot``'s one-slot block; nothing else
writes the agent arrays inside a block. The only link between rows is a
partner index, which the simulator offsets into the stack, so each row's
arithmetic is the same as in a world stepped alone. ``step_world``
updates whole columns, and writes single rows only where an agent
changes activity, with the same float operations on each element as
the scalar loop ``step_world_loop`` in ``tests/conftest.py``, which the
tests hold it to bit for bit; ``benchmarks/bench_kernels.py`` times it.

A run keeps the kernel's set-up across its blocks. ``step_world``
returns a ``Carry``, and a caller that passes it back with the same four
arrays steps on from the state the last block left: the delta and
threshold columns below and the mover set are built once per carry,
not once per call. The contract is that nothing but the kernel writes
the kernel's columns between two carried blocks.
``simulator._run_lockstep`` keeps one carry per stack and drops it
after a slot boundary whose ``_schedule`` sent a pair out, which is the
only write between its blocks. A call without a carry builds a fresh
one, so a one-shot call and a carried block run the same code.

A slot is a few operations over whole columns, plus writes to the rows
that change activity:

* each slot changes state by whole-column subtractions of per-row
  deltas: ``drain`` from the SoC (``-charge_gain`` while charging, as
  ``soc - (-g)`` is bitwise ``soc + g``), ``lift`` from the altitude
  (``step_down`` descending, ``-step_up`` climbing, +0.0 otherwise) and
  ``pad_draw`` from each vehicle's supply (the draw of the UAV it
  charges, 0.0 otherwise). The carry builds them from each row's
  activity, and a transition rewrites only the rows it moves;
* each transition is found by one comparison over all rows with a
  threshold column: ``z <= floor`` lands (0.0 descending, -inf
  otherwise), ``z >= ceil`` tops out (``cruise_z`` climbing, +inf
  otherwise) and ``soc >= full`` ends a session (``sat`` charging,
  +inf otherwise). A test or subtraction whose phase holds no row is
  skipped. ``validate()`` keeps ``sat <= cap``, so the clamp to ``cap``
  binds only in a session's last slot, and is applied there;
* a pad is tested for starvation in a slot only when some pad might
  not cover the rest of the block: ``_lasts`` bounds it at the start of
  each block, and again for the pads of each landing. A starved pad's
  draw and its UAV's gain are zeroed before the subtractions, and its
  ``full`` set to -inf, so the session ends without a transfer;
* a waiting UAV starts down in the slot its vehicle arrives, or in the
  slot after it reaches a pad already on station;
* en-route vehicles and flying UAVs take the same leg step, so they
  move as one set with positions local to the carry. Arrivals are
  dropped in the slot they arrive, and UAVs that top out join. The
  positions are written back at the end of every call, so the arrays
  hold the truth between calls;
* each slot's SoC is written straight into the block's ``soc[t]`` row
  (the SoC column gets the last at the end of the call), and
  ``sensing`` is filled once per block, then set from slot t on for
  the UAVs that reach home in slot t: inside a block rows only join
  SENSE.

Array layouts (float64 / int64), one row per agent:

    uav_f[i]: soc, x, y, z, tx, ty, home_x, home_y, cruise_z, cap, sat,
              drain_fly, drain_hov, drain_desc, drain_asc,
              charge_gain, supply_draw, step_xy, step_down, step_up
    uav_i[i]: activity, partner
    ugv_f[j]: x, y, tx, ty, step, supply
    ugv_i[j]: state, partner

The simulator stores all four column-contiguous (Fortran order), so each
column is a contiguous 1-D array; the kernel gathers and scatters one
column at a time. It accepts either order, with the same bits.

Energy deltas are precomputed per slot when a world is built: the drains
eta_i * P * dt / 3600, the charging gain eta_i * eta_j * P_e * dt / 3600
and the supply a pad draws for it, gain / eta_j. So the kernel only
adds, clamps, moves, and switches activity. Vehicles arrive before the
pad-ready test, so a pad that arrives in a slot is visible to its
waiting UAV in the same slot.
"""

from __future__ import annotations

import numpy as np

# UAV float columns
F_SOC = 0
F_X = 1
F_Y = 2
F_Z = 3
F_TX = 4
F_TY = 5
F_HOME_X = 6
F_HOME_Y = 7
F_CRUISE_Z = 8
F_CAP = 9
F_SAT = 10
F_DRAIN_FLY = 11
F_DRAIN_HOV = 12
F_DRAIN_DESC = 13
F_DRAIN_ASC = 14
F_CHARGE_GAIN = 15
F_SUPPLY_DRAW = 16
F_STEP_XY = 17
F_STEP_DOWN = 18
F_STEP_UP = 19
N_UAV_F = 20

# UAV int columns
I_ACT = 0
I_PARTNER = 1
N_UAV_I = 2

# UAV activity codes (sim phases; they map onto the five activity states)
ACT_SENSE = 0
ACT_FLY_OUT = 1
ACT_WAIT = 2
ACT_DESCEND = 3
ACT_CHARGE = 4
ACT_ASCEND = 5
ACT_FLY_BACK = 6

# UGV float columns
G_X = 0
G_Y = 1
G_TX = 2
G_TY = 3
G_STEP = 4
G_SUPPLY = 5
N_UGV_F = 6

# UGV int columns
GI_STATE = 0
GI_PARTNER = 1
N_UGV_I = 2

UGV_IDLE = 0
UGV_ENROUTE = 1
UGV_SERVING = 2

# 0-d constants: a ufunc takes them without converting a Python scalar
_ZERO = np.array(0.0)
_SERVING = np.array(UGV_SERVING)
_SENSE = np.array(ACT_SENSE)
_NONE = np.empty(0, dtype=np.int64)


class Carry:
    """The kernel's state between the blocks of one run, built on four
    arrays and valid only with them: a generator suspended at the end of
    its last block, holding the delta and threshold columns, the movers
    with their local positions and the waiting rows due to start down."""

    __slots__ = ("arrays", "blocks")

    def __init__(self, uav_f, uav_i, ugv_f, ugv_i):
        self.arrays = (uav_f, uav_i, ugv_f, ugv_i)
        self.blocks = _blocks(uav_f, uav_i, ugv_f, ugv_i)
        next(self.blocks)  # to where it takes the first block; the set-up runs then


def step_world(uav_f, uav_i, ugv_f, ugv_i, *, soc, sensing, carry=None):
    """Advance every agent ``len(soc)`` slots in place; ``soc[t]`` and
    ``sensing[t]`` receive every UAV's SoC and whether it is sensing
    after slot t. Returns the carry the block was stepped on.

    ``carry`` is what an earlier call on the same four arrays returned,
    or None for a fresh one. A carry is valid only while nothing but the
    kernel writes the kernel's columns: after any other write (the
    simulator's ``_schedule``), drop it. A carry passed with any other
    array is a ValueError.
    """
    if carry is None:
        carry = Carry(uav_f, uav_i, ugv_f, ugv_i)
    else:
        a = carry.arrays
        if a[0] is not uav_f or a[1] is not uav_i or a[2] is not ugv_f or a[3] is not ugv_i:
            raise ValueError("a carry steps only the four arrays it was built on")
    carry.blocks.send((soc, sensing))
    return carry


def _blocks(uav_f, uav_i, ugv_f, ugv_i):
    """``step_world``'s body: receives each block's buffers in turn.

    Each column is a 1-D view. ``drain``, ``lift`` and ``pad_draw`` are
    the per-slot deltas and ``floor``, ``ceil`` and ``full`` the
    thresholds of the module docstring; ``n_desc``, ``n_asc`` and
    ``n_chg`` count the rows of each phase they serve. ``go`` holds the
    waiting rows that start down in the current slot and ``nxt`` those
    that start in the next. The movers (en-route vehicles, then outbound
    and homebound UAVs) have local positions: arrivals are dropped, and
    written back, in the slot they arrive, UAVs that top out are
    appended, and the rest are written back at the end of every block.
    """
    soc, sensing = yield
    (soc_col, x, y, z, tx, ty, home_x, home_y, cruise_z, cap, sat,
     drain_fly, drain_hov, drain_desc, drain_asc,
     charge_gain, supply_draw, step_xy, step_down, step_up) = uav_f.T
    act, partner = uav_i.T
    gx, gy, gtx, gty, gstep, supply = ugv_f.T
    state, gpartner = ugv_i.T

    # each activity's rows; only a window boundary sends a vehicle en route
    # or a UAV out, and the outbound UAVs sit before the homebound ones
    out, wait, desc, chg, asc, back = ((act == code).nonzero()[0] for code in (
        ACT_FLY_OUT, ACT_WAIT, ACT_DESCEND, ACT_CHARGE, ACT_ASCEND, ACT_FLY_BACK))
    fly = np.concatenate((out, back))
    n_out = out.size
    # the deltas and thresholds of each row's activity
    drain = drain_hov.copy()  # sensing and waiting rows hover
    drain[fly] = drain_fly[fly]
    drain[desc] = drain_desc[desc]
    drain[asc] = drain_asc[asc]
    drain[chg] = -charge_gain[chg]
    lift = np.zeros(act.shape)
    lift[desc] = step_down[desc]
    lift[asc] = -step_up[asc]
    floor = np.full(act.shape, -np.inf)
    floor[desc] = _ZERO
    ceil = np.full(act.shape, np.inf)
    ceil[asc] = cruise_z[asc]
    full = np.full(act.shape, np.inf)
    full[chg] = sat[chg]
    pad_draw = np.zeros(supply.shape)
    pad_draw[partner[chg]] = supply_draw[chg]
    # rows in each vertical phase and charging: a test with none is skipped
    n_desc, n_asc, n_chg = desc.size, asc.size, chg.size
    # a waiting row whose pad is on station starts down in the first slot;
    # the others start down in the slot their vehicle arrives
    nxt = wait[state[partner[wait]] == _SERVING]
    en = (state == UGV_ENROUTE).nonzero()[0]
    mx, my, mtx, mty, mstep = (np.concatenate((g[en], u[fly])) for g, u in (
        (gx, x), (gy, y), (gtx, tx), (gty, ty), (gstep, step_xy)))
    while True:
        k = len(soc)
        # rows only join SENSE inside a block, so the mask is set once and
        # then from each homecoming on
        sensing[...] = act == _SENSE
        # a pad that covers the rest of the block cannot starve in it
        starve = n_chg > 0 and not _lasts(supply, pad_draw, k)
        last = soc_col
        for t in range(k):
            go, nxt = nxt, _NONE
            if starve:
                pads = (supply < pad_draw).nonzero()[0]
                if pads.size:  # rare: a starved session ends without a transfer
                    rows = gpartner[pads]
                    pad_draw[pads] = _ZERO
                    drain[rows] = _ZERO
                    full[rows] = -np.inf

            # a charging row adds its gain; it passes the clamp unchanged
            now = soc[t]
            np.subtract(last, drain, out=now)
            np.maximum(now, _ZERO, out=now)
            last = now
            if n_chg:
                np.subtract(supply, pad_draw, out=supply)
            if n_desc or n_asc:
                np.subtract(z, lift, out=z)

            # horizontal legs; a pad that arrives is ready for its waiting
            # UAV in the same slot
            if mx.size:
                dx = mtx - mx
                dy = mty - my
                dist = np.sqrt(dx * dx + dy * dy)
                arrive = dist <= mstep
                if np.count_nonzero(arrive):  # rare: drop the arrivals, move the rest
                    at_pad, at_uav = arrive[:en.size], arrive[en.size:]
                    arrived = en[at_pad]
                    gx[arrived] = gtx[arrived]
                    gy[arrived] = gty[arrived]
                    state[arrived] = UGV_SERVING
                    rows = gpartner[arrived]
                    go = np.concatenate((go, rows[act[rows] == ACT_WAIT]))
                    done = fly[at_uav]  # outbound rows first
                    x[done] = tx[done]
                    y[done] = ty[done]
                    drain[done] = drain_hov[done]
                    n_rdv = np.count_nonzero(at_uav[:n_out])
                    if n_rdv:
                        rdv = done[:n_rdv]
                        act[rdv] = ACT_WAIT
                        nxt = rdv[state[partner[rdv]] == _SERVING]
                        n_out -= n_rdv
                    home = done[n_rdv:]
                    act[home] = ACT_SENSE
                    sensing[t:, home] = True
                    move = ~arrive
                    en, fly = en[move[:en.size]], fly[move[en.size:]]
                    mx, my, mtx, mty, mstep, dx, dy, dist = (
                        v[move] for v in (mx, my, mtx, mty, mstep, dx, dy, dist))
                mx += mstep * dx / dist
                my += mstep * dy / dist

            # top-outs, then session ends, then landings: each test runs before
            # a later transition writes a threshold it reads (an ended session
            # sets `ceil`, a landing `full`)
            if n_asc:
                rows = (z >= ceil).nonzero()[0]
                if rows.size:
                    n_asc -= rows.size
                    z[rows] = cruise_z[rows]
                    act[rows] = ACT_FLY_BACK
                    tx[rows] = home_x[rows]
                    ty[rows] = home_y[rows]
                    drain[rows] = drain_fly[rows]
                    lift[rows] = _ZERO
                    ceil[rows] = np.inf
                    # homebound, so they join the movers at the end
                    fly = np.concatenate((fly, rows))
                    mx, my, mtx, mty, mstep = (np.concatenate((m, u[rows])) for m, u in (
                        (mx, x), (my, y), (mtx, tx), (mty, ty), (mstep, step_xy)))

            # partners are unique while charging, so each pad is written once;
            # validate() keeps sat <= cap, so the cap binds only a session's last slot
            if n_chg:
                rows = (now >= full).nonzero()[0]
                if rows.size:
                    n_chg -= rows.size
                    n_asc += rows.size
                    pads = partner[rows]
                    now[rows] = np.minimum(now[rows], cap[rows])
                    act[rows] = ACT_ASCEND
                    partner[rows] = -1
                    drain[rows] = drain_asc[rows]
                    lift[rows] = -step_up[rows]
                    ceil[rows] = cruise_z[rows]
                    full[rows] = np.inf
                    pad_draw[pads] = _ZERO
                    state[pads] = UGV_IDLE
                    gpartner[pads] = -1

            if n_desc:
                rows = (z <= floor).nonzero()[0]
                if rows.size:
                    n_desc -= rows.size
                    n_chg += rows.size
                    pads = partner[rows]
                    z[rows] = _ZERO
                    act[rows] = ACT_CHARGE
                    drain[rows] = -charge_gain[rows]
                    lift[rows] = _ZERO
                    floor[rows] = -np.inf
                    full[rows] = sat[rows]
                    pad_draw[pads] = supply_draw[rows]
                    starve = starve or not _lasts(supply[pads], pad_draw[pads], k - 1 - t)

            if go.size:
                n_desc += go.size
                act[go] = ACT_DESCEND
                drain[go] = drain_desc[go]
                lift[go] = step_down[go]
                floor[go] = _ZERO

        soc_col[...] = last
        gx[en] = mx[:en.size]
        gy[en] = my[:en.size]
        x[fly] = mx[en.size:]
        y[fly] = my[en.size:]
        soc, sensing = yield


def _lasts(supply, draw, slots):
    """Whether every pad's supply covers ``slots`` more of its draws,
    however they round: each subtraction rounds by at most 2**-53 of
    the supply, so a supply that, cut by ``(slots + 1) * 2**-52``, still
    holds ``slots + 1`` draws, with both products rounded, does."""
    return bool(np.all(supply * (1.0 - (slots + 1) * 2.0**-52) >= draw * (slots + 1)))


def active_backend() -> str:
    """The kernel's implementation, as recorded in benchmark provenance."""
    return "numpy"
