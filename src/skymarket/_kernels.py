"""World stepping kernel, vectorized in pure numpy.

The simulator keeps agent state in struct-of-arrays form. It calls
``step_world`` once per block of slots up to the next window boundary,
on the stacked arrays of every world in a sweep, and the kernel writes
each slot's SoC and sensing mask into the buffers the bidder bookkeeping
reads, as it does for ``advance_slot``'s one-slot block; nothing else
writes the agent arrays inside a block. The only link between rows is a
partner index, which the simulator offsets into the stack, so each row's
arithmetic is the same as in a world stepped alone. ``step_world``
groups rows by activity and updates each group with whole-column
operations, in the same per-element order as the scalar loop
``step_world_loop`` in ``tests/conftest.py``, which the tests hold it to
bit for bit; ``benchmarks/bench_kernels.py`` times it.

Transitions (arrivals, landings, top-outs, pads that starve or turn
ready, sessions that end) happen in few slots: on perfbench's sweeps
some UAV changes activity in about a third of them. So the rows are
regrouped, and each group's constants gathered, only after such a slot,
and each branch tests first whether any of its rows transitions and
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
adds, clamps, moves, and switches activity. Vehicles advance before UAVs
so a pad that arrives in a slot is visible to its waiting UAV in the
same slot.
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

# the kernel's branches in the order it runs them; codes that share
# a branch sit side by side, so each branch is one run of sorted rows
_BRANCH_ORDER = (ACT_SENSE, ACT_WAIT, ACT_FLY_OUT, ACT_FLY_BACK, ACT_DESCEND,
                 ACT_ASCEND, ACT_CHARGE)
# activity code -> rank in _BRANCH_ORDER (a list, not np.argsort: a numpy
# sort at import pages in ~0.4 MB of sort code that only the kernel needs)
_GROUP_KEY = np.array([_BRANCH_ORDER.index(code) for code in range(len(_BRANCH_ORDER))],
                      dtype=np.int8)


# 0-d constants: a ufunc takes them without converting a Python scalar
_ZERO = np.array(0.0)
_SERVING = np.array(UGV_SERVING)
_SENSE = np.array(ACT_SENSE)


def step_world(uav_f, uav_i, ugv_f, ugv_i, *, soc, sensing):
    """Advance every agent ``len(soc)`` slots in place; ``soc[t]`` and
    ``sensing[t]`` receive every UAV's SoC and whether it is sensing
    after slot t.

    Each column is a 1-D view. UAV rows are sorted by activity, and each
    group's constants gathered (the drains of all but the charging rows
    into one vector), at the first slot and after any slot in which some
    row changed activity. The en-route vehicles are gathered once, and
    dropped as they arrive; their positions are written back when they
    arrive and when the call returns.
    """
    (soc_col, x, y, z, tx, ty, home_x, home_y, cruise_z, cap, sat,
     drain_fly, drain_hov, drain_desc, drain_asc,
     charge_gain, supply_draw, step_xy, step_down, step_up) = uav_f.T
    act, partner = uav_i.T
    gx, gy, gtx, gty, gstep, supply = ugv_f.T
    state, gpartner = ugv_i.T

    # vehicles move first; only a window boundary sends one en route
    en = (state == UGV_ENROUTE).nonzero()[0]
    ex, ey, etx, ety, estep = gx[en], gy[en], gtx[en], gty[en], gstep[en]
    regroup = True
    for t in range(len(soc)):
        if en.size:
            dx = etx - ex
            dy = ety - ey
            dist = np.sqrt(dx * dx + dy * dy)
            arrive = dist <= estep
            if np.count_nonzero(arrive):  # rare: drop the arrivals, move the rest
                arrived = en[arrive]
                gx[arrived] = etx[arrive]
                gy[arrived] = ety[arrive]
                state[arrived] = UGV_SERVING
                move = ~arrive
                en, ex, ey, etx, ety, estep, dx, dy, dist = (
                    v[move] for v in (en, ex, ey, etx, ety, estep, dx, dy, dist))
            ex += estep * dx / dist
            ey += estep * dy / dist

        if regroup:  # int8 keys radix-sort; each branch's codes sit side by side
            key = _GROUP_KEY[act]
            rows = key.argsort(kind="stable")
            ends = np.bincount(key, minlength=len(_GROUP_KEY)).cumsum().tolist()
            e_sense, e_wait, e_out, e_back, e_desc, e_asc, _ = ends
            w_idx = rows[e_sense:e_wait]
            w_pads = partner[w_idx]
            f_idx = rows[e_wait:e_back]
            f_tx, f_ty, f_step = tx[f_idx], ty[f_idx], step_xy[f_idx]
            n_out = e_out - e_wait
            d_idx = rows[e_back:e_desc]
            d_step = step_down[d_idx]
            a_idx = rows[e_desc:e_asc]
            a_step, a_top = step_up[a_idx], cruise_z[a_idx]
            c_idx = rows[e_asc:]
            c_pads, c_draw, c_gain, c_cap, c_sat = (
                partner[c_idx], supply_draw[c_idx], charge_gain[c_idx], cap[c_idx], sat[c_idx])
            # every row but the charging ones drains, each at its activity's rate
            drained = rows[:e_asc]
            drain = np.concatenate((drain_hov[rows[:e_wait]], drain_fly[f_idx],
                                    drain_desc[d_idx], drain_asc[a_idx]))
            regroup = False

        if drained.size:
            soc_col[drained] = np.maximum(soc_col[drained] - drain, _ZERO)

        # pad-waiting rows whose vehicle is on station start down
        if w_idx.size:
            ready = state[w_pads] == _SERVING
            if np.count_nonzero(ready):
                act[w_idx[ready]] = ACT_DESCEND
                regroup = True

        # horizontal legs, outbound rows first
        if f_idx.size:
            fx, fy = x[f_idx], y[f_idx]
            dx = f_tx - fx
            dy = f_ty - fy
            dist = np.sqrt(dx * dx + dy * dy)
            arrive = dist <= f_step
            if np.count_nonzero(arrive):  # rare, as for vehicles
                done = f_idx[arrive]
                x[done] = f_tx[arrive]
                y[done] = f_ty[arrive]
                act[f_idx[:n_out][arrive[:n_out]]] = ACT_WAIT
                act[f_idx[n_out:][arrive[n_out:]]] = ACT_SENSE
                regroup = True  # so the cached group may shrink here
                move = ~arrive
                f_idx, f_step, fx, fy, dx, dy, dist = (
                    v[move] for v in (f_idx, f_step, fx, fy, dx, dy, dist))
            x[f_idx] = fx + f_step * dx / dist
            y[f_idx] = fy + f_step * dy / dist

        # vertical legs
        if d_idx.size:
            d_z = z[d_idx] - d_step
            landed = d_z <= _ZERO
            if np.count_nonzero(landed):
                z[d_idx] = np.where(landed, _ZERO, d_z)
                act[d_idx[landed]] = ACT_CHARGE
                regroup = True
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
                regroup = True
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
                state[done_pads] = UGV_IDLE
                gpartner[done_pads] = -1
                regroup = True

        soc[t] = soc_col
        np.equal(act, _SENSE, out=sensing[t])

    if en.size:
        gx[en] = ex
        gy[en] = ey


def active_backend() -> str:
    """The kernel's implementation, as recorded in benchmark provenance."""
    return "numpy"
