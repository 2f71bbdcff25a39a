"""World stepping kernel, vectorized in pure numpy.

The simulator keeps agent state in struct-of-arrays form. It calls
``step_world`` once per block of slots up to the next window boundary,
on the stacked arrays of every world in a sweep, and the kernel writes
each slot's SoC and sensing mask into the buffers the bidder bookkeeping
reads, as it does for ``advance_slot``'s one-slot block; nothing else
writes the agent arrays inside a block. The only link between rows is a
partner index, which the simulator offsets into the stack, so each row's
arithmetic is the same as in a world stepped alone. ``step_world``
updates whole columns and groups of rows, in the same per-element order
as the scalar loop ``step_world_loop`` in ``tests/conftest.py``, which
the tests hold it to bit for bit; ``benchmarks/bench_kernels.py`` times
it.

Per-slot work follows what changed, not the number of rows:

* every UAV row's drain per slot sits in one column, built at the start
  of a call from its activity (0.0 while charging); each slot subtracts
  it from the SoC column and clamps at 0 over all rows, and a
  transition writes the new drain of the rows it moves;
* the waiting, descending, ascending and charging rows are each
  gathered, with their constants, only after a slot in which a row
  joined or left the group, so a transition costs the groups it
  touches and no sort of every row;
* en-route vehicles and flying UAVs take the same leg step, so they
  move as one set with positions local to the call. Arrivals are
  dropped in the slot they arrive, and UAVs that top out join.

Each branch tests first whether any of its rows transitions, and
otherwise updates its whole group without splitting it. Each element
gets the same float operations either way.

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


def step_world(uav_f, uav_i, ugv_f, ugv_i, *, soc, sensing):
    """Advance every agent ``len(soc)`` slots in place; ``soc[t]`` and
    ``sensing[t]`` receive every UAV's SoC and whether it is sensing
    after slot t.

    Each column is a 1-D view. ``drain`` holds each UAV row's drain per
    slot for its activity, 0.0 while charging, so every slot drains all
    rows at once; a transition writes the drain of the rows it moves.
    The waiting, descending, ascending and charging rows, and their
    constants, are gathered at the first slot and after a slot in which
    a row joined or left the group. The movers (en-route vehicles, then
    outbound and homebound UAVs) step as one set with positions local to
    the call: arrivals are dropped, and written back, in the slot they
    arrive, UAVs that top out are appended, and the rest are written
    back when the call returns.
    """
    (soc_col, x, y, z, tx, ty, home_x, home_y, cruise_z, cap, sat,
     drain_fly, drain_hov, drain_desc, drain_asc,
     charge_gain, supply_draw, step_xy, step_down, step_up) = uav_f.T
    act, partner = uav_i.T
    gx, gy, gtx, gty, gstep, supply = ugv_f.T
    state, gpartner = ugv_i.T

    # each activity's drain, in code order; a charging row drains nothing
    drain = np.choose(act, (drain_hov, drain_fly, drain_hov, drain_desc, _ZERO, drain_asc,
                            drain_fly))
    # only a window boundary sends a vehicle en route or a UAV out; the
    # outbound UAVs sit before the homebound ones
    en = (state == UGV_ENROUTE).nonzero()[0]
    out = (act == ACT_FLY_OUT).nonzero()[0]
    fly = np.concatenate((out, (act == ACT_FLY_BACK).nonzero()[0]))
    n_out = out.size
    mx, my, mtx, mty, mstep = (np.concatenate((g[en], u[fly])) for g, u in (
        (gx, x), (gy, y), (gtx, tx), (gty, ty), (gstep, step_xy)))
    wait = descend = ascend = charge = True  # the groups to gather before the next slot
    for t in range(len(soc)):
        if wait:
            w_idx = (act == ACT_WAIT).nonzero()[0]
            w_pads = partner[w_idx]
        if descend:
            d_idx = (act == ACT_DESCEND).nonzero()[0]
            d_step = step_down[d_idx]
        if ascend:
            a_idx = (act == ACT_ASCEND).nonzero()[0]
            a_step, a_top = step_up[a_idx], cruise_z[a_idx]
        if charge:
            c_idx = (act == ACT_CHARGE).nonzero()[0]
            c_pads, c_draw, c_gain, c_cap, c_sat = (
                partner[c_idx], supply_draw[c_idx], charge_gain[c_idx], cap[c_idx], sat[c_idx])
        wait = descend = ascend = charge = False

        # a charging row subtracts +0.0 and passes the clamp unchanged
        np.subtract(soc_col, drain, out=soc_col)
        np.maximum(soc_col, _ZERO, out=soc_col)

        # horizontal legs, before the pad-ready test, so a pad that arrives
        # in a slot is ready for its waiting UAV in the same slot
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
                done = fly[at_uav]  # outbound rows first
                x[done] = tx[done]
                y[done] = ty[done]
                drain[done] = drain_hov[done]
                n_rdv = np.count_nonzero(at_uav[:n_out])
                if n_rdv:
                    act[done[:n_rdv]] = ACT_WAIT
                    wait = True
                    n_out -= n_rdv
                act[done[n_rdv:]] = ACT_SENSE
                move = ~arrive
                en, fly = en[move[:en.size]], fly[move[en.size:]]
                mx, my, mtx, mty, mstep, dx, dy, dist = (
                    v[move] for v in (mx, my, mtx, mty, mstep, dx, dy, dist))
            mx += mstep * dx / dist
            my += mstep * dy / dist

        # pad-waiting rows whose vehicle is on station start down
        if w_idx.size:
            ready = state[w_pads] == _SERVING
            if np.count_nonzero(ready):
                go = w_idx[ready]
                act[go] = ACT_DESCEND
                drain[go] = drain_desc[go]
                wait = descend = True

        # vertical legs
        if d_idx.size:
            d_z = z[d_idx] - d_step
            landed = d_z <= _ZERO
            if np.count_nonzero(landed):
                z[d_idx] = np.where(landed, _ZERO, d_z)
                down = d_idx[landed]
                act[down] = ACT_CHARGE
                drain[down] = _ZERO
                descend = charge = True
            else:
                z[d_idx] = d_z

        if a_idx.size:
            a_z = z[a_idx] + a_step
            top = a_z >= a_top
            if np.count_nonzero(top):
                z[a_idx] = np.where(top, a_top, a_z)
                done = a_idx[top]
                act[done] = ACT_FLY_BACK
                tx[done] = home_x[done]
                ty[done] = home_y[done]
                drain[done] = drain_fly[done]
                ascend = True
                # homebound, so they join the movers at the end
                fly = np.concatenate((fly, done))
                mx, my, mtx, mty, mstep = (np.concatenate((m, u[done])) for m, u in (
                    (mx, x), (my, y), (mtx, tx), (mty, ty), (mstep, step_xy)))
            else:
                z[a_idx] = a_z

        # charging transfers (partners are unique while charging, so each
        # pad's supply is read and written once)
        if c_idx.size:
            left = supply[c_pads]
            ok = left >= c_draw
            n_ok = np.count_nonzero(ok)
            if n_ok == c_idx.size:
                supply[c_pads] = left - c_draw
                c_soc = np.minimum(soc_col[c_idx] + c_gain, c_cap)
                soc_col[c_idx] = c_soc
                done = c_soc >= c_sat
            else:  # rare: a starved session ends without a transfer
                done = ~ok
                if n_ok:
                    fed = c_idx[ok]
                    supply[c_pads[ok]] = left[ok] - c_draw[ok]
                    c_soc = np.minimum(soc_col[fed] + c_gain[ok], c_cap[ok])
                    soc_col[fed] = c_soc
                    done[ok] = c_soc >= c_sat[ok]
            if np.count_nonzero(done):
                done_idx = c_idx[done]
                done_pads = c_pads[done]
                act[done_idx] = ACT_ASCEND
                partner[done_idx] = -1
                drain[done_idx] = drain_asc[done_idx]
                state[done_pads] = UGV_IDLE
                gpartner[done_pads] = -1
                charge = ascend = True

        soc[t] = soc_col
        np.equal(act, _SENSE, out=sensing[t])

    gx[en] = mx[:en.size]
    gy[en] = my[:en.size]
    x[fly] = mx[en.size:]
    y[fly] = my[en.size:]


def active_backend() -> str:
    """The kernel's implementation, as recorded in benchmark provenance."""
    return "numpy"
