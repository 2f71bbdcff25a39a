"""Backend equivalence: the jitted and vectorized steppers must agree bitwise."""

import numpy as np
import pytest

import skymarket._kernels as K
from skymarket.simulator import advance_slot, close_window, generate_scenario
from skymarket.types import ScenarioConfig


def snapshot(world):
    return (
        world.uav_f.copy(), world.uav_i.copy(),
        world.ugv_f.copy(), world.ugv_i.copy(),
    )


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
    uf2, ui2, gf2, gi2 = (a.copy() for a in (uf1, ui1, gf1, gi1))

    for _ in range(200):
        K._step_world_py(uf1, ui1, gf1, gi1)
        K.step_world_numpy(uf2, ui2, gf2, gi2)
        assert np.array_equal(uf1, uf2)
        assert np.array_equal(ui1, ui2)
        assert np.array_equal(gf1, gf2)
        assert np.array_equal(gi1, gi2)


@pytest.mark.skipif(K.step_world_numba is None, reason="numba unavailable")
def test_numba_path_matches_loop_kernel():
    world = warmed_world(seed=12)
    uf1, ui1, gf1, gi1 = snapshot(world)
    uf2, ui2, gf2, gi2 = (a.copy() for a in (uf1, ui1, gf1, gi1))
    for _ in range(200):
        K._step_world_py(uf1, ui1, gf1, gi1)
        K.step_world_numba(uf2, ui2, gf2, gi2)
    assert np.array_equal(uf1, uf2)
    assert np.array_equal(ui1, ui2)
    assert np.array_equal(gf1, gf2)
    assert np.array_equal(gi1, gi2)


def test_full_runs_identical_across_backends(monkeypatch):
    from skymarket.simulator import run_world

    def run_with(backend):
        monkeypatch.setattr(K, "step_world", backend)
        world = generate_scenario(ScenarioConfig(), seed=3)
        rows, _, _ = run_world(world)
        return rows, world

    rows_np, world_np = run_with(K.step_world_numpy)
    rows_py, world_py = run_with(K._step_world_py)
    assert rows_np == rows_py
    assert np.array_equal(world_np.uav_f, world_py.uav_f)
    assert np.array_equal(world_np.ugv_f, world_py.ugv_f)


def test_backend_flag_reports():
    assert K.active_backend() in ("numba", "numpy")


def test_env_flag_selects_numpy_backend():
    # backend choice happens at import, so probe in a fresh interpreter;
    # the child imports the same copy of skymarket as this process
    import os
    import subprocess
    import sys
    from pathlib import Path

    src_dir = str(Path(K.__file__).resolve().parent.parent)
    inherited = os.environ.get("PYTHONPATH")
    env = dict(os.environ, SKYMARKET_NO_NUMBA="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (src_dir, inherited)))

    probe = ("import skymarket._kernels as K; "
             "print(K.active_backend(), K._want_numba())")
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env=env, capture_output=True, text=True, check=True,
    )
    # _want_numba() must read the flag even where numba is absent and the
    # backend would be numpy regardless
    assert out.stdout.split() == ["numpy", "False"]


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
    for backend in filter(None, (K.step_world_numba, K.step_world_numpy)):
        uf, ui, gf, gi = (a.copy() for a in (world.uav_f, world.uav_i,
                                             world.ugv_f, world.ugv_i))
        backend(uf, ui, gf, gi)
        assert ui[i, K.I_ACT] == K.ACT_ASCEND
        assert ui[i, K.I_PARTNER] == -1
        assert gi[j, K.GI_STATE] == K.UGV_IDLE
        assert gf[j, K.G_SUPPLY] == 0.1  # nothing drawn, nothing negative
        assert uf[i, K.F_SOC] == 40.0  # nothing delivered either


def test_kernel_drains_match_scalar_soc_model():
    # one hovering slot must equal the scalar battery step to the bit
    from skymarket.energy import hover_power
    from skymarket.types import Activity

    from conftest import PowerBreakdown, soc_step

    cfg = ScenarioConfig()
    world = generate_scenario(cfg, seed=9)
    soc_before = world.uav_f[:, K.F_SOC].copy()
    K.step_world(world.uav_f, world.uav_i, world.ugv_f, world.ugv_i)
    p_hov = hover_power(cfg.uav_mass_kg, cfg.kappa2, cfg.kappa3)
    powers = PowerBreakdown(fly=0, hover=p_hov, descend=0, ascend=0, receive=0)
    for i in range(world.num_uavs):
        expected = soc_step(
            float(soc_before[i]), Activity.HOVERING, powers,
            cfg.uav_discharge_eff, cfg.ugv_transfer_eff, cfg.slot_len,
            cfg.uav_capacity_wh,
        )
        assert world.uav_f[i, K.F_SOC] == pytest.approx(expected, abs=1e-15)
