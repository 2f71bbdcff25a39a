"""The vectorized stepper against the scalar loop oracle, bit for bit."""

import functools
import gc
import weakref

import numpy as np
import pytest

import skymarket._kernels as K
import skymarket.simulator as simulator
from skymarket.simulator import advance_slot, close_window, generate_scenario
from skymarket.types import ScenarioConfig

from conftest import (
    close_window_loop, run_benchmark_script, step_block_loop, step_one_slot, step_world_loop,
)


def snapshot(world):
    """Copies of the agent arrays in the layout the simulator steps."""
    return tuple(a.copy(order="K") for a in (world.uav_f, world.uav_i,
                                             world.ugv_f, world.ugv_i))


def warmed_world(seed=7, slots=40):
    """A world a few windows in, with matched pairs in flight and charging."""
    world = generate_scenario(ScenarioConfig(), seed=seed)
    spw = world.config.slots_per_window
    for _ in range(slots):
        advance_slot(world)
        if world.clock % spw == 0:
            close_window(world)
    return world


def test_numpy_path_matches_loop_kernel_single_steps():
    world = warmed_world()
    uf1, ui1, gf1, gi1 = snapshot(world)
    uf2, ui2, gf2, gi2 = (a.copy(order="K") for a in (uf1, ui1, gf1, gi1))

    for _ in range(200):
        step_world_loop(uf1, ui1, gf1, gi1)
        step_one_slot(uf2, ui2, gf2, gi2)
        assert np.array_equal(uf1, uf2)
        assert np.array_equal(ui1, ui2)
        assert np.array_equal(gf1, gf2)
        assert np.array_equal(gi1, gi2)


def stacked_sweep_states(slots=200):
    """Kernel inputs of a three-world stack, slot by slot, with windows
    clearing in between. Fast pads make sessions short, and the second
    world's 60 Wh pads run dry, so the steps include vehicles en route and
    arriving, landings, finished and starved charges and top-outs. The
    members' windows close one by one through ``close_window_loop``, as
    ``close_window`` clears only a world of its own."""
    cfg = ScenarioConfig(uav_count=12, uav_soc_frac_min=0.3, uav_soc_frac_max=0.6,
                         ugv_transfer_power_w=6000.0)
    worlds = [
        generate_scenario(cfg.replace(ugv_count=m, ugv_supply_wh=supply), 5, scheme)
        for m, supply, scheme in ((6, 3000.0, "ours"), (4, 60.0, "ours"),
                                  (5, 3000.0, "static"))
    ]
    stack = simulator._stack(worlds)
    spw = cfg.slots_per_window
    for _ in range(slots):
        yield stack.uav_f, stack.uav_i, stack.ugv_f, stack.ugv_i
        advance_slot(stack)
        if stack.clock % spw == 0:
            for w in worlds:
                w.clock = stack.clock
                close_window_loop(w)


@functools.cache
def sweep_states():
    """Copies of ``stacked_sweep_states``' 200 kernel inputs."""
    return [tuple(a.copy(order="K") for a in s) for s in stacked_sweep_states()]


def with_transitions_within(state, k, seed):
    """A copy of a kernel input in which about half the moving rows of
    each kind are placed to transition at a slot drawn from 1 to k + 1
    (k + 1: just after a k-slot block): flights and vehicles that arrive,
    descents that land, ascents that top out, sessions that end and pads
    that starve. A UAV that reaches its rendezvous before its vehicle
    waits, and its pad turns ready when the vehicle arrives. About half
    the landing rows land on a pad that holds half their draw, so their
    session ends the slot after they land."""
    rng = np.random.default_rng(seed)
    uf, ui, gf, gi = (a.copy(order="K") for a in state)
    act = ui[:, K.I_ACT]

    def pick(mask):  # some rows of the mask, and the slot each transitions at, less 0.5
        rows = np.flatnonzero(mask & (rng.random(mask.size) < 0.5))
        return rows, rng.integers(1, k + 2, rows.size) - 0.5

    f, at = pick(np.isin(act, (K.ACT_FLY_OUT, K.ACT_FLY_BACK)))
    uf[f, K.F_X] = uf[f, K.F_TX] - at * uf[f, K.F_STEP_XY]
    uf[f, K.F_Y] = uf[f, K.F_TY]
    v, at = pick(gi[:, K.GI_STATE] == K.UGV_ENROUTE)
    gf[v, K.G_X] = gf[v, K.G_TX] - at * gf[v, K.G_STEP]
    gf[v, K.G_Y] = gf[v, K.G_TY]
    d, at = pick(act == K.ACT_DESCEND)
    uf[d, K.F_Z] = at * uf[d, K.F_STEP_DOWN]
    a, at = pick(act == K.ACT_ASCEND)
    uf[a, K.F_Z] = uf[a, K.F_CRUISE_Z] - at * uf[a, K.F_STEP_UP]
    c, at = pick(act == K.ACT_CHARGE)
    uf[c, K.F_SOC] = np.maximum(uf[c, K.F_SAT] - at * uf[c, K.F_CHARGE_GAIN], 0.0)
    c, at = pick(act == K.ACT_CHARGE)
    gf[ui[c, K.I_PARTNER], K.G_SUPPLY] = at * uf[c, K.F_SUPPLY_DRAW]
    d = d[rng.random(d.size) < 0.5]
    gf[ui[d, K.I_PARTNER], K.G_SUPPLY] = 0.5 * uf[d, K.F_SUPPLY_DRAW]
    return uf, ui, gf, gi


def with_every_transition(state):
    """A copy of a kernel input in which every flying UAV and every en-route
    vehicle is half a step short of its target, and every charging UAV's
    pad holds half its draw: each branch's rows all transition at once."""
    uf, ui, gf, gi = (a.copy(order="K") for a in state)
    flying = np.isin(ui[:, K.I_ACT], (K.ACT_FLY_OUT, K.ACT_FLY_BACK))
    uf[flying, K.F_X] = uf[flying, K.F_TX] - 0.5 * uf[flying, K.F_STEP_XY]
    uf[flying, K.F_Y] = uf[flying, K.F_TY]
    en = gi[:, K.GI_STATE] == K.UGV_ENROUTE
    gf[en, K.G_X] = gf[en, K.G_TX] - 0.5 * gf[en, K.G_STEP]
    gf[en, K.G_Y] = gf[en, K.G_TY]
    charging = ui[:, K.I_ACT] == K.ACT_CHARGE
    gf[ui[charging, K.I_PARTNER], K.G_SUPPLY] = 0.5 * uf[charging, K.F_SUPPLY_DRAW]
    return uf, ui, gf, gi


def share(mask):
    """How many of a non-empty mask's entries are set: none, some or all."""
    return "all" if mask.all() else "some" if mask.any() else "none"


def transitions(before, after):
    """Names of the state changes one kernel step made, and of the side of
    each of the kernel's gates it took: how many rows of a branch that has
    rows arrive, starve or end their session."""
    uf, ui, gf, gi = before
    act0, act1 = ui[:, K.I_ACT], after[1][:, K.I_ACT]
    st0, st1 = gi[:, K.GI_STATE], after[3][:, K.GI_STATE]
    seen = set()
    if ((st0 == K.UGV_ENROUTE) & (st1 == K.UGV_ENROUTE)).any():
        seen.add("vehicle en route")
    if ((st0 == K.UGV_ENROUTE) & (st1 == K.UGV_SERVING)).any():
        seen.add("vehicle arrives")
    for a, b, name in ((K.ACT_FLY_OUT, K.ACT_WAIT, "reaches rendezvous"),
                       (K.ACT_WAIT, K.ACT_DESCEND, "pad ready"),
                       (K.ACT_DESCEND, K.ACT_CHARGE, "lands"),
                       (K.ACT_ASCEND, K.ACT_FLY_BACK, "tops out"),
                       (K.ACT_FLY_BACK, K.ACT_SENSE, "home")):
        if ((act0 == a) & (act1 == b)).any():
            seen.add(name)
    lift = np.flatnonzero((act0 == K.ACT_CHARGE) & (act1 == K.ACT_ASCEND))
    starved = gf[ui[lift, K.I_PARTNER], K.G_SUPPLY] < uf[lift, K.F_SUPPLY_DRAW]
    if starved.any():
        seen.add("pad starves")
    if (~starved).any():
        seen.add("charge completes")
    flying = np.isin(act0, (K.ACT_FLY_OUT, K.ACT_FLY_BACK))
    if flying.any():
        seen.add(f"flights arriving: {share(act1[flying] != act0[flying])}")
    en = st0 == K.UGV_ENROUTE
    if en.any():
        seen.add(f"vehicles arriving: {share(st1[en] != K.UGV_ENROUTE)}")
    charging = np.flatnonzero(act0 == K.ACT_CHARGE)
    if charging.size:
        draw = uf[charging, K.F_SUPPLY_DRAW]
        seen.add(f"pads starving: {share(gf[ui[charging, K.I_PARTNER], K.G_SUPPLY] < draw)}")
        seen.add(f"sessions ending: {share(act1[charging] != K.ACT_CHARGE)}")
    return seen


@pytest.mark.parametrize("order", ["C", "F"])
def test_numpy_path_matches_loop_kernel_on_a_stack_in_either_order(order):
    # every tenth slot is also stepped with every transition forced, so
    # both sides of each of the kernel's gates are reached
    contiguous = {"C": "C_CONTIGUOUS", "F": "F_CONTIGUOUS"}[order]
    seen = set()
    for k, state in enumerate(stacked_sweep_states()):
        for case in (state, with_every_transition(state)) if k % 10 == 0 else (state,):
            ref = [a.copy() for a in case]
            got = [np.array(a, order=order) for a in case]
            assert all(a.flags[contiguous] for a in got)
            step_world_loop(*ref)
            step_one_slot(*got)
            for a, b in zip(ref, got):
                assert a.tobytes() == b.tobytes()  # bit for bit, in C order
            seen |= transitions(case, ref)
    gates = {f"{name}: {side}" for name in ("flights arriving", "vehicles arriving",
                                            "pads starving", "sessions ending")
             for side in ("none", "some", "all")}
    assert seen == {"vehicle en route", "vehicle arrives", "reaches rendezvous",
                    "pad ready", "lands", "pad starves", "charge completes",
                    "tops out", "home"} | gates


def test_forced_blocks_transition_in_the_middle_of_a_block():
    # the blocks tests/test_properties.py steps in one call see every
    # UAV and vehicle transition after a block's first slot, where only
    # the deltas and thresholds the call rewrote step the row in its new
    # phase, and sessions that end the slot after their UAV lands on a
    # pad short of one draw, which inside the block only the landing's
    # own starvation check catches
    seen = set()
    for index in range(0, 200, 10):
        before = with_transitions_within(sweep_states()[index], 32, index)
        landed = np.zeros(len(before[0]), dtype=bool)
        for t in range(32):
            after = [a.copy() for a in before]
            step_world_loop(*after)
            if t:
                seen |= transitions(before, after)
            act0, act1 = before[1][:, K.I_ACT], after[1][:, K.I_ACT]
            if (landed & (act1 == K.ACT_ASCEND)).any():
                seen.add("lifts off the slot after landing")
            landed = (act0 == K.ACT_DESCEND) & (act1 == K.ACT_CHARGE)
            before = after
    assert {"vehicle arrives", "reaches rendezvous", "pad ready", "lands", "pad starves",
            "charge completes", "tops out", "home", "lifts off the slot after landing"} <= seen


def test_a_finished_stack_is_freed(monkeypatch):
    # nothing the kernel or the simulator keeps may hold a lockstep run's
    # stack alive once its worlds have their own arrays again
    refs, stack = [], simulator._stack

    def stack_and_watch(worlds):
        built = stack(worlds)
        refs.append(weakref.ref(built.uav_f))
        return built

    monkeypatch.setattr(simulator, "_stack", stack_and_watch)
    worlds = [generate_scenario(ScenarioConfig(), 3, scheme) for scheme in ("ours", "static")]
    simulator.run_worlds(worlds, 16)
    gc.collect()
    assert len(refs) == 1 and refs[0]() is None


def test_a_sweeps_stack_is_freed_once_it_returns(monkeypatch):
    # run_experiment builds its worlds into their stack, discards them
    # without copying their arrays back, and nothing it returns keeps
    # their stack alive
    refs, build, unstacked = [], simulator._build_stack, []

    def build_and_watch(worlds, draws):
        built = build(worlds, draws)
        refs.append(weakref.ref(built.uav_f))
        return built

    monkeypatch.setattr(simulator, "_build_stack", build_and_watch)
    monkeypatch.setattr(simulator, "_stack", None)
    monkeypatch.setattr(simulator, "_unstack", unstacked.append)
    res = simulator.run_experiment(ScenarioConfig(horizon_slots=16), {"ugv_count": [3, 5]}, 2)
    gc.collect()
    assert len(res.rows) == 2 * 2 * 3 * 2
    assert len(refs) == 1 and refs[0]() is None and unstacked == []


def test_kernel_steps_the_arrays_it_is_given_as_they_change():
    # a call without a carry keeps nothing between calls; world A, then
    # B, then A again, then a fresh copy of A, then A once more, a set
    # that shares only its UAV arrays with A, and the arrays _unstack
    # hands back in place of a stack's views must each step as the loop
    # oracle steps them
    def check(got, ref, carry=None):
        soc = np.empty((1, got[0].shape[0]))
        carry = K.step_world(*got, soc=soc, sensing=np.empty(soc.shape, dtype=bool),
                             carry=carry)
        step_world_loop(*ref)
        for a, b in zip(got, ref):
            assert a.tobytes() == b.tobytes()
        return carry

    a, b = snapshot(warmed_world(seed=7)), snapshot(warmed_world(seed=8))
    ref_a, ref_b = ([x.copy(order="K") for x in s] for s in (a, b))
    for got, ref in ((a, ref_a), (a, ref_a), (b, ref_b), (a, ref_a)):
        check(got, ref)
    fresh = tuple(x.copy(order="K") for x in a)
    ref_fresh = [x.copy(order="K") for x in ref_a]
    check(fresh, ref_fresh)
    check(a, ref_a)
    check(fresh, ref_fresh)
    assert a[0].tobytes() != fresh[0].tobytes()  # each stepped only by its own calls
    mixed = (*a[:2], *(x.copy(order="K") for x in a[2:]))
    ref_mixed = [*ref_a[:2], *(x.copy(order="K") for x in ref_a[2:])]
    check(mixed, ref_mixed)
    check(a, ref_a)

    # a carry built on A steps on A after a call on B without one; with
    # B, or with any one of A's arrays swapped for B's, it is a
    # ValueError that writes nothing
    carry = check(a, ref_a)
    check(b, ref_b)
    carry = check(a, ref_a, carry)
    soc = np.empty((1, a[0].shape[0]))
    sensing = np.empty(soc.shape, dtype=bool)
    for other in (b, mixed, *((*a[:i], b[i], *a[i + 1:]) for i in range(4))):
        before = [x.copy() for x in other]
        with pytest.raises(ValueError, match="carry"):
            K.step_world(*other, soc=soc, sensing=sensing, carry=carry)
        assert all(x.tobytes() == y.tobytes() for x, y in zip(other, before))
    # and A, then B, then A, each without a carry, still step as the oracle
    for got, ref in ((a, ref_a), (b, ref_b), (a, ref_a)):
        check(got, ref)

    worlds = [warmed_world(seed=s) for s in (9, 10)]
    stack = simulator._stack(worlds)
    ref_stack = snapshot(stack)
    for _ in range(3):
        check((stack.uav_f, stack.uav_i, stack.ugv_f, stack.ugv_i), ref_stack)
    simulator._unstack(worlds)
    del stack
    for w in worlds:
        ref = snapshot(w)
        for _ in range(3):
            check((w.uav_f, w.uav_i, w.ugv_f, w.ugv_i), ref)


# perfbench's crowded_market config: 100 UAVs against 25 vehicles, from
# 30-60% charge, so pairs trade at many boundaries, not just the first
CROWDED = ScenarioConfig(uav_count=100, ugv_count=25, uav_soc_frac_min=0.3,
                         uav_soc_frac_max=0.6)


@pytest.mark.parametrize("config", [ScenarioConfig(), CROWDED],
                         ids=["default", "crowded_market"])
def test_full_runs_identical_across_backends(monkeypatch, config):
    # a run steps block by block on one carry, dropped after every
    # boundary that trades; the oracle steps each block slot by slot
    from skymarket.simulator import run_world

    def run_with(backend):
        monkeypatch.setattr(K, "step_world", backend)
        world = generate_scenario(config, seed=3)
        rows, _, _ = run_world(world)
        return rows, world

    rows_np, world_np = run_with(K.step_world)
    rows_py, world_py = run_with(step_block_loop)
    assert rows_np == rows_py
    for name in ("uav_f", "uav_i", "ugv_f", "ugv_i"):
        assert getattr(world_np, name).tobytes() == getattr(world_py, name).tobytes()


def test_backend_flag_reports():
    assert K.active_backend() == "numpy"


def test_kernel_benchmark_script_runs():
    # a two-step smoke run, so the script tracks the kernel's API
    out = run_benchmark_script("bench_kernels.py", "--steps", "2", "--repeats", "1")
    assert out.returncode == 0, out.stderr
    assert "1000x1000" in out.stdout and "full default run" in out.stdout
    assert "fleet_sweep, 10 worlds x 10 UAVs" in out.stdout
    assert "crowded_market, 2 worlds x 100 UAVs" in out.stdout
    assert out.stdout.count("_close_boundary") == 2
    assert "kernel replay" in out.stdout
    assert out.stdout.count(" set-ups, ") == 3
    for title in ("fleet_sweep (100 UAVs x 100 vehicles, 2 slots)",
                  "crowded_market (200 UAVs x 50 vehicles, 2 slots)",
                  "criterion 7 (10000 UAVs x 10000 vehicles, 2 slots)"):
        assert title in out.stdout
    for branch in ("flying UAVs", "charging UAVs", "en-route vehicles"):
        assert out.stdout.count(branch) == 3


def test_starved_pad_releases_uav_early():
    # a pad that cannot cover one more slot's draw must end the session:
    # UAV lifts off, pad goes idle, no supply goes negative
    world = generate_scenario(ScenarioConfig(), seed=3)
    i, j = 0, 0
    world.uav_i[i, K.I_ACT] = K.ACT_CHARGE
    world.uav_i[i, K.I_PARTNER] = j
    world.uav_f[i, K.F_Z] = 0.0
    world.uav_f[i, K.F_SOC] = 40.0
    world.uav_f[i, K.F_CHARGE_GAIN] = 0.12
    world.uav_f[i, K.F_SUPPLY_DRAW] = 0.15
    world.ugv_i[j, K.GI_STATE] = K.UGV_SERVING
    world.ugv_i[j, K.GI_PARTNER] = i
    world.ugv_f[j, K.G_SUPPLY] = 0.1  # below the per-slot draw
    for backend in (step_one_slot, step_world_loop):
        uf, ui, gf, gi = snapshot(world)
        backend(uf, ui, gf, gi)
        assert ui[i, K.I_ACT] == K.ACT_ASCEND
        assert ui[i, K.I_PARTNER] == -1
        assert gi[j, K.GI_STATE] == K.UGV_IDLE
        assert gf[j, K.G_SUPPLY] == 0.1  # nothing drawn, nothing negative
        assert uf[i, K.F_SOC] == 40.0  # nothing delivered either


@pytest.mark.parametrize("backend", [step_one_slot, step_world_loop], ids=["numpy", "loop"])
def test_pad_holding_exactly_one_draw_delivers_it(backend):
    # supply == draw is a last full draw; one ulp less starves the pad,
    # in either array order
    world = generate_scenario(ScenarioConfig(), seed=3)
    i, j = 0, 0
    draw, gain = 0.15, 0.12
    world.uav_i[i, K.I_ACT] = K.ACT_CHARGE
    world.uav_i[i, K.I_PARTNER] = j
    world.uav_f[i, K.F_Z] = 0.0
    world.uav_f[i, K.F_SOC] = 40.0
    world.uav_f[i, K.F_CHARGE_GAIN] = gain
    world.uav_f[i, K.F_SUPPLY_DRAW] = draw
    world.ugv_i[j, K.GI_STATE] = K.UGV_SERVING
    world.ugv_i[j, K.GI_PARTNER] = i

    below = np.nextafter(draw, 0.0)
    for order in ("C", "F"):
        world.ugv_f[j, K.G_SUPPLY] = draw
        uf, ui, gf, gi = (np.array(a, order=order) for a in snapshot(world))
        backend(uf, ui, gf, gi)
        assert gf[j, K.G_SUPPLY] == 0.0
        assert uf[i, K.F_SOC] == 40.0 + gain
        assert ui[i, K.I_ACT] == K.ACT_CHARGE and ui[i, K.I_PARTNER] == j
        assert gi[j, K.GI_STATE] == K.UGV_SERVING

        world.ugv_f[j, K.G_SUPPLY] = below
        uf, ui, gf, gi = (np.array(a, order=order) for a in snapshot(world))
        backend(uf, ui, gf, gi)
        assert gf[j, K.G_SUPPLY] == below
        assert uf[i, K.F_SOC] == 40.0
        assert ui[i, K.I_ACT] == K.ACT_ASCEND and ui[i, K.I_PARTNER] == -1
        assert gi[j, K.GI_STATE] == K.UGV_IDLE


def test_kernel_drains_match_scalar_soc_model():
    # one hovering slot must equal the scalar battery step to the bit
    from skymarket.energy import hover_power
    from skymarket.types import Activity

    from conftest import PowerBreakdown, soc_step

    cfg = ScenarioConfig()
    world = generate_scenario(cfg, seed=9)
    soc_before = world.uav_f[:, K.F_SOC].copy()
    step_one_slot(world.uav_f, world.uav_i, world.ugv_f, world.ugv_i)
    p_hov = hover_power(cfg.uav_mass_kg, cfg.kappa2, cfg.kappa3)
    powers = PowerBreakdown(fly=0, hover=p_hov, descend=0, ascend=0, receive=0)
    for i in range(world.num_uavs):
        expected = soc_step(
            float(soc_before[i]), Activity.HOVERING, powers,
            cfg.uav_discharge_eff, cfg.ugv_transfer_eff, cfg.slot_len,
            cfg.uav_capacity_wh,
        )
        assert world.uav_f[i, K.F_SOC] == pytest.approx(expected, abs=1e-15)
