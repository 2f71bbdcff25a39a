"""Per-slot world stepping kernels: numba-jitted with a numpy fallback.

The simulator keeps agent state in struct-of-arrays form and advances one
slot per call. It calls ``step_world`` on the stacked arrays of every
world in a sweep: the only link between rows is a partner index, which
the simulator offsets into the stack, so each row's arithmetic is the
same as in a world stepped alone. Two implementations share the exact
same arithmetic, in the same per-element order, so they produce
bit-identical trajectories:

* ``step_world_numba`` - explicit loops under ``@njit(cache=True)``;
* ``step_world_numpy`` - vectorized masks, pure numpy.

Backend selection happens once at import: the environment variable
``SKYMARKET_NO_NUMBA`` (any non-empty value except ``0``) forces the
numpy path, as does a missing/broken numba install. ``step_world`` is
whatever got selected; ``benchmarks/bench_kernels.py`` times one against
the other.

Array layouts (float64 / int64):

    uav_f[i]: soc, x, y, z, tx, ty, home_x, home_y, cruise_z, cap, sat,
              drain_fly, drain_hov, drain_desc, drain_asc,
              charge_gain, supply_draw, step_xy, step_down, step_up
    uav_i[i]: activity, partner
    ugv_f[j]: x, y, tx, ty, step, supply
    ugv_i[j]: state, partner

Energy deltas are precomputed per slot (eta_i * P * dt / 3600 and the
charging analogue), so the kernel only adds, clamps, moves, and switches
activity. Vehicles advance before UAVs so a pad that arrives in a slot
is visible to its waiting UAV in the same slot.
"""

from __future__ import annotations

import math
import os

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


def _step_world_py(uav_f, uav_i, ugv_f, ugv_i):
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


def step_world_numpy(uav_f, uav_i, ugv_f, ugv_i):
    """Vectorized slot step; arithmetic mirrors the loop kernel exactly."""
    # --- vehicles ---
    en = ugv_i[:, GI_STATE] == UGV_ENROUTE
    if en.any():
        dx = ugv_f[en, G_TX] - ugv_f[en, G_X]
        dy = ugv_f[en, G_TY] - ugv_f[en, G_Y]
        dist = np.sqrt(dx * dx + dy * dy)
        step = ugv_f[en, G_STEP]
        arrive = dist <= step
        idx = np.flatnonzero(en)
        a_idx = idx[arrive]
        m_idx = idx[~arrive]
        ugv_f[a_idx, G_X] = ugv_f[a_idx, G_TX]
        ugv_f[a_idx, G_Y] = ugv_f[a_idx, G_TY]
        ugv_i[a_idx, GI_STATE] = UGV_SERVING
        nd = dist[~arrive]
        ugv_f[m_idx, G_X] += step[~arrive] * dx[~arrive] / nd
        ugv_f[m_idx, G_Y] += step[~arrive] * dy[~arrive] / nd

    act = uav_i[:, I_ACT].copy()

    # hover drain: sensing and pad-waiting
    hov = (act == ACT_SENSE) | (act == ACT_WAIT)
    if hov.any():
        soc = uav_f[hov, F_SOC] - uav_f[hov, F_DRAIN_HOV]
        uav_f[hov, F_SOC] = np.maximum(soc, 0.0)
    wait = act == ACT_WAIT
    if wait.any():
        w_idx = np.flatnonzero(wait)
        ready = ugv_i[uav_i[w_idx, I_PARTNER], GI_STATE] == UGV_SERVING
        uav_i[w_idx[ready], I_ACT] = ACT_DESCEND

    # horizontal legs
    fly = (act == ACT_FLY_OUT) | (act == ACT_FLY_BACK)
    if fly.any():
        f_idx = np.flatnonzero(fly)
        soc = uav_f[f_idx, F_SOC] - uav_f[f_idx, F_DRAIN_FLY]
        uav_f[f_idx, F_SOC] = np.maximum(soc, 0.0)
        dx = uav_f[f_idx, F_TX] - uav_f[f_idx, F_X]
        dy = uav_f[f_idx, F_TY] - uav_f[f_idx, F_Y]
        dist = np.sqrt(dx * dx + dy * dy)
        step = uav_f[f_idx, F_STEP_XY]
        arrive = dist <= step
        a_idx = f_idx[arrive]
        uav_f[a_idx, F_X] = uav_f[a_idx, F_TX]
        uav_f[a_idx, F_Y] = uav_f[a_idx, F_TY]
        out = act[a_idx] == ACT_FLY_OUT
        uav_i[a_idx[out], I_ACT] = ACT_WAIT
        uav_i[a_idx[~out], I_ACT] = ACT_SENSE
        m_idx = f_idx[~arrive]
        nd = dist[~arrive]
        uav_f[m_idx, F_X] += step[~arrive] * dx[~arrive] / nd
        uav_f[m_idx, F_Y] += step[~arrive] * dy[~arrive] / nd

    # vertical legs
    desc = act == ACT_DESCEND
    if desc.any():
        soc = uav_f[desc, F_SOC] - uav_f[desc, F_DRAIN_DESC]
        uav_f[desc, F_SOC] = np.maximum(soc, 0.0)
        d_idx = np.flatnonzero(desc)
        z = uav_f[d_idx, F_Z] - uav_f[d_idx, F_STEP_DOWN]
        landed = z <= 0.0
        uav_f[d_idx[landed], F_Z] = 0.0
        uav_i[d_idx[landed], I_ACT] = ACT_CHARGE
        uav_f[d_idx[~landed], F_Z] = z[~landed]

    asc = act == ACT_ASCEND
    if asc.any():
        soc = uav_f[asc, F_SOC] - uav_f[asc, F_DRAIN_ASC]
        uav_f[asc, F_SOC] = np.maximum(soc, 0.0)
        a_idx = np.flatnonzero(asc)
        z = uav_f[a_idx, F_Z] + uav_f[a_idx, F_STEP_UP]
        top = z >= uav_f[a_idx, F_CRUISE_Z]
        t_idx = a_idx[top]
        uav_f[t_idx, F_Z] = uav_f[t_idx, F_CRUISE_Z]
        uav_i[t_idx, I_ACT] = ACT_FLY_BACK
        uav_f[t_idx, F_TX] = uav_f[t_idx, F_HOME_X]
        uav_f[t_idx, F_TY] = uav_f[t_idx, F_HOME_Y]
        uav_f[a_idx[~top], F_Z] = z[~top]

    # charging transfers (partners are unique while charging)
    chg = act == ACT_CHARGE
    if chg.any():
        c_idx = np.flatnonzero(chg)
        pads = uav_i[c_idx, I_PARTNER]
        draw = uav_f[c_idx, F_SUPPLY_DRAW]
        ok = ugv_f[pads, G_SUPPLY] >= draw
        ok_idx = c_idx[ok]
        ok_pads = pads[ok]
        ugv_f[ok_pads, G_SUPPLY] -= draw[ok]
        soc = uav_f[ok_idx, F_SOC] + uav_f[ok_idx, F_CHARGE_GAIN]
        uav_f[ok_idx, F_SOC] = np.minimum(soc, uav_f[ok_idx, F_CAP])
        done = np.zeros(len(c_idx), dtype=bool)
        done[~ok] = True
        done[ok] = uav_f[ok_idx, F_SOC] >= uav_f[ok_idx, F_SAT]
        d_idx = c_idx[done]
        d_pads = pads[done]
        uav_i[d_idx, I_ACT] = ACT_ASCEND
        uav_i[d_idx, I_PARTNER] = -1
        ugv_i[d_pads, GI_STATE] = UGV_IDLE
        ugv_i[d_pads, GI_PARTNER] = -1


def _want_numba() -> bool:
    flag = os.environ.get("SKYMARKET_NO_NUMBA", "")
    return flag in ("", "0")


try:
    from numba import njit

    step_world_numba = njit(cache=True)(_step_world_py)
except ImportError:  # pragma: no cover - every import where numba is absent
    step_world_numba = None

if _want_numba() and step_world_numba is not None:
    step_world = step_world_numba
    BACKEND = "numba"
else:
    step_world = step_world_numpy
    BACKEND = "numpy"


def active_backend() -> str:
    """Which implementation ``step_world`` dispatches to."""
    return BACKEND
