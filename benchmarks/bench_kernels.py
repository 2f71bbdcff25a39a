#!/usr/bin/env python3
"""Time the slot-stepping kernel: numba JIT vs vectorized numpy vs plain loops.

Two workloads:

* raw kernel throughput on synthetic fleets of increasing size, agents
  mid-mission so every activity branch stays hot;
* a full default-scenario run (600 slots, 75 auction windows) under each
  backend, which shows how much of the end-to-end wall time the kernel
  actually owns.

Usage: python benchmarks/bench_kernels.py [--steps 2000] [--repeats 5]
"""

import argparse
import time

import numpy as np

import skymarket._kernels as K
from skymarket.simulator import advance_slot, close_window, generate_scenario, run_world
from skymarket.types import ScenarioConfig


def warmed_arrays(n_uavs, n_ugvs, seed=0):
    """A mid-mission world scaled up to the requested fleet sizes."""
    cfg = ScenarioConfig(
        uav_count=n_uavs, ugv_count=n_ugvs,
        uav_soc_frac_min=0.3, uav_soc_frac_max=0.6,
    )
    world = generate_scenario(cfg, seed=seed)
    spw = cfg.slots_per_window
    for _ in range(48):
        advance_slot(world)
        if world.clock % spw == 0:
            close_window(world)
    return world.uav_f, world.uav_i, world.ugv_f, world.ugv_i


def time_backend(step, arrays, steps, repeats):
    best = np.inf
    for _ in range(repeats):
        # order="K" keeps the simulator's column-contiguous layout
        uf, ui, gf, gi = (a.copy(order="K") for a in arrays)
        t0 = time.perf_counter()
        for _ in range(steps):
            step(uf, ui, gf, gi)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_raw(steps, repeats):
    backends = [("numpy", K.step_world_numpy), ("python", K._step_world_py)]
    if K.step_world_numba is not None:
        backends.insert(0, ("numba", K.step_world_numba))
        # trigger compilation outside the timed region
        arrays = warmed_arrays(8, 8)
        K.step_world_numba(*(a.copy(order="K") for a in arrays))

    print(f"raw kernel, {steps} steps (best of {repeats}):")
    print(f"  {'fleet':>10} " + " ".join(f"{name:>12}" for name, _ in backends) + "   speedup")
    # 150x150 is the stack a one-seed five-fleet-size three-scheme sweep steps
    for n_uavs, n_ugvs in ((10, 10), (50, 50), (150, 150), (200, 200), (1000, 1000)):
        arrays = warmed_arrays(n_uavs, n_ugvs)
        times = [time_backend(fn, arrays, steps, repeats) for _, fn in backends]
        cols = " ".join(f"{t * 1e6 / steps:>10.2f}us" for t in times)
        speedup = times[1] / times[0] if len(times) > 1 else 1.0
        print(f"  {n_uavs:>4}x{n_ugvs:<5} {cols}   {speedup:>6.1f}x vs {backends[1][0]}")


def bench_full_run(repeats):
    print("\nfull default run (600 slots, 75 windows), best of", repeats, ":")
    choices = [("numpy", K.step_world_numpy)]
    if K.step_world_numba is not None:
        choices.insert(0, ("numba", K.step_world_numba))
    active = K.step_world
    try:
        for name, fn in choices:
            K.step_world = fn
            best = np.inf
            for _ in range(repeats):
                world = generate_scenario(ScenarioConfig(), seed=1)
                t0 = time.perf_counter()
                run_world(world)
                best = min(best, time.perf_counter() - t0)
            print(f"  {name:>7}: {best * 1e3:8.1f} ms")
    finally:
        K.step_world = active


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    print(f"active backend: {K.active_backend()}")
    bench_raw(args.steps, args.repeats)
    bench_full_run(args.repeats)


if __name__ == "__main__":
    main()
