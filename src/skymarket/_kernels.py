"""Per-slot world stepping kernel, vectorized in pure numpy.

The simulator keeps agent state in struct-of-arrays form and advances one
slot per call. It calls ``step_world`` on the stacked arrays of every
world in a sweep: the only link between rows is a partner index, which
the simulator offsets into the stack, so each row's arithmetic is the
same as in a world stepped alone. ``step_world`` groups rows by activity
and updates each group with whole-column operations, in the same
per-element order as the scalar loop ``step_world_loop`` in
``tests/conftest.py``, which the tests hold it to bit for bit;
``benchmarks/bench_kernels.py`` times it.

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


def step_world(uav_f, uav_i, ugv_f, ugv_i):
    """Advance every agent one slot, in place.

    Every column is bound once as a 1-D view and indexed on its own, and
    UAV rows are grouped by activity with one sort per step: on
    column-contiguous arrays each fancy index is then a plain 1-D gather.
    """
    # unpacked in the order of the F_*, I_*, G_* and GI_* column indices
    (soc, x, y, z, tx, ty, home_x, home_y, cruise_z, cap, sat,
     drain_fly, drain_hov, drain_desc, drain_asc,
     charge_gain, supply_draw, step_xy, step_down, step_up) = uav_f.T
    act, partner = uav_i.T
    gx, gy, gtx, gty, gstep, supply = ugv_f.T
    state, gpartner = ugv_i.T

    # --- vehicles ---
    en = (state == UGV_ENROUTE).nonzero()[0]
    if en.size:
        dx = gtx[en] - gx[en]
        dy = gty[en] - gy[en]
        dist = np.sqrt(dx * dx + dy * dy)
        step = gstep[en]
        arrive = dist <= step
        a_idx = en[arrive]
        gx[a_idx] = gtx[a_idx]
        gy[a_idx] = gty[a_idx]
        state[a_idx] = UGV_SERVING
        move = ~arrive
        m_idx = en[move]
        nd = dist[move]
        gx[m_idx] += step[move] * dx[move] / nd
        gy[m_idx] += step[move] * dy[move] / nd

    # group rows by their activity at the start of the slot; int8 keys
    # radix-sort, and the key order puts each branch's codes side by side
    key = _GROUP_KEY[act]
    rows = key.argsort(kind="stable")
    ends = np.bincount(key, minlength=len(_GROUP_KEY)).cumsum().tolist()
    e_sense, e_wait, e_out, e_back, e_desc, e_asc, e_chg = ends

    # hover drain: sensing and pad-waiting
    h_idx = rows[:e_wait]
    if h_idx.size:
        h_soc = soc[h_idx] - drain_hov[h_idx]
        soc[h_idx] = np.maximum(h_soc, 0.0)
    w_idx = rows[e_sense:e_wait]
    if w_idx.size:
        ready = state[partner[w_idx]] == UGV_SERVING
        act[w_idx[ready]] = ACT_DESCEND

    # horizontal legs, outbound rows first
    f_idx = rows[e_wait:e_back]
    if f_idx.size:
        f_soc = soc[f_idx] - drain_fly[f_idx]
        soc[f_idx] = np.maximum(f_soc, 0.0)
        dx = tx[f_idx] - x[f_idx]
        dy = ty[f_idx] - y[f_idx]
        dist = np.sqrt(dx * dx + dy * dy)
        step = step_xy[f_idx]
        arrive = dist <= step
        a_idx = f_idx[arrive]
        x[a_idx] = tx[a_idx]
        y[a_idx] = ty[a_idx]
        n_out = e_out - e_wait
        act[f_idx[:n_out][arrive[:n_out]]] = ACT_WAIT
        act[f_idx[n_out:][arrive[n_out:]]] = ACT_SENSE
        move = ~arrive
        m_idx = f_idx[move]
        nd = dist[move]
        x[m_idx] += step[move] * dx[move] / nd
        y[m_idx] += step[move] * dy[move] / nd

    # vertical legs
    d_idx = rows[e_back:e_desc]
    if d_idx.size:
        d_soc = soc[d_idx] - drain_desc[d_idx]
        soc[d_idx] = np.maximum(d_soc, 0.0)
        d_z = z[d_idx] - step_down[d_idx]
        landed = d_z <= 0.0
        z[d_idx] = np.where(landed, 0.0, d_z)
        act[d_idx[landed]] = ACT_CHARGE

    a_idx = rows[e_desc:e_asc]
    if a_idx.size:
        a_soc = soc[a_idx] - drain_asc[a_idx]
        soc[a_idx] = np.maximum(a_soc, 0.0)
        a_z = z[a_idx] + step_up[a_idx]
        top_z = cruise_z[a_idx]
        top = a_z >= top_z
        z[a_idx] = np.where(top, top_z, a_z)
        t_idx = a_idx[top]
        act[t_idx] = ACT_FLY_BACK
        tx[t_idx] = home_x[t_idx]
        ty[t_idx] = home_y[t_idx]

    # charging transfers (partners are unique while charging)
    c_idx = rows[e_asc:e_chg]
    if c_idx.size:
        pads = partner[c_idx]
        draw = supply_draw[c_idx]
        ok = supply[pads] >= draw
        ok_idx = c_idx[ok]
        supply[pads[ok]] -= draw[ok]
        c_soc = soc[ok_idx] + charge_gain[ok_idx]
        soc[ok_idx] = np.minimum(c_soc, cap[ok_idx])
        done = ~ok
        done[ok] = soc[ok_idx] >= sat[ok_idx]
        done_idx = c_idx[done]
        done_pads = pads[done]
        act[done_idx] = ACT_ASCEND
        partner[done_idx] = -1
        state[done_pads] = UGV_IDLE
        gpartner[done_pads] = -1


def active_backend() -> str:
    """The kernel's implementation, as recorded in benchmark provenance."""
    return "numpy"
