#!/usr/bin/env python3
"""Time the slot-stepping kernel.

Four workloads:

* raw kernel throughput on synthetic fleets of increasing size, agents
  mid-mission so every activity branch stays hot;
* ``run_worlds`` on one stack per slot, kernel, bookkeeping and windows
  together, on the stacks perfbench's sweeps step: ``fleet_sweep``'s
  (10 worlds of 10 UAVs, J = 6..14, mobile and static) and
  ``crowded_market``'s (2 worlds of 100 UAVs against 25 vehicles), over
  the first ``--steps`` slots of the 600-slot horizon, with the time of
  the kernel, of the bookkeeping (``_book``) and of the slot boundaries
  (``_close_boundary``) split out;
* a full default-scenario run (600 slots, 75 auction windows), which
  shows how much of the end-to-end wall time the kernel actually owns;
* a replay of the kernel's inputs, recorded slot by slot over a
  ``run_experiment`` of each perfbench-shaped sweep (one seed, every
  scheme): ``step_world`` alone is timed on each recorded state, and
  each branch's share of slots with rows and with a transition is
  printed. Only the kernel call is timed, so this is the steadiest
  measure of a kernel change.

Usage: python benchmarks/bench_kernels.py [--steps 2000] [--repeats 5]
"""

import argparse
import contextlib
import time

import numpy as np

import skymarket._kernels as K
import skymarket.simulator as simulator
from skymarket.simulator import (
    SCHEME_OURS, SCHEME_STATIC, advance_slot, close_window, generate_scenario, run_experiment,
    run_world, run_worlds,
)
from skymarket.types import ScenarioConfig

CROWDED = ScenarioConfig(uav_count=100, ugv_count=25, uav_soc_frac_min=0.3, uav_soc_frac_max=0.6)


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


def time_steps(arrays, steps, repeats):
    best = np.inf
    for _ in range(repeats):
        # order="K" keeps the simulator's column-contiguous layout
        uf, ui, gf, gi = (a.copy(order="K") for a in arrays)
        t0 = time.perf_counter()
        for _ in range(steps):
            K.step_world(uf, ui, gf, gi)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_raw(steps, repeats):
    print(f"raw kernel, {steps} steps (best of {repeats}), time per step:")
    # 150x150 is the stack a one-seed five-fleet-size three-scheme sweep steps
    for n_uavs, n_ugvs in ((10, 10), (50, 50), (150, 150), (200, 200), (1000, 1000)):
        best = time_steps(warmed_arrays(n_uavs, n_ugvs), steps, repeats)
        print(f"  {n_uavs:>4}x{n_ugvs:<5} {best * 1e6 / steps:>10.2f}us")


# the layers of run_worlds timed apart: (label, module, attribute); each
# is looked up on its module at every call, so a wrapper sees every call
LAYERS = (
    ("kernel", K, "step_world"),
    ("_book", simulator, "_book"),
    ("_close_boundary", simulator, "_close_boundary"),
)


@contextlib.contextmanager
def layer_timers():
    """Wrap each of ``LAYERS`` in a timer; yields {label: seconds so far}."""
    spent = dict.fromkeys((label for label, *_ in LAYERS), 0.0)
    real = [getattr(module, name) for _, module, name in LAYERS]

    def timed(label, fn):
        def wrapper(*args):
            t0 = time.perf_counter()
            try:
                return fn(*args)
            finally:
                spent[label] += time.perf_counter() - t0
        return wrapper

    for (label, module, name), fn in zip(LAYERS, real):
        setattr(module, name, timed(label, fn))
    try:
        yield spent
    finally:
        for (_, module, name), fn in zip(LAYERS, real):
            setattr(module, name, fn)


def bench_run_worlds(steps, repeats):
    stacks = (
        ("fleet_sweep, 10 worlds x 10 UAVs", ScenarioConfig(), (6, 8, 10, 12, 14)),
        ("crowded_market, 2 worlds x 100 UAVs", CROWDED, (25,)),
    )
    slots = min(steps, ScenarioConfig().horizon_slots)
    print(f"\nrun_worlds on one stack, {slots} slots (best of {repeats}), time per slot, "
          f"with the layers of the best run timed apart (each timer adds its own call):")
    for title, cfg, ugv_counts in stacks:
        best, layers = np.inf, {}
        for _ in range(repeats):
            worlds = [generate_scenario(cfg.replace(ugv_count=m), 7000, scheme)
                      for m in ugv_counts for scheme in (SCHEME_OURS, SCHEME_STATIC)]
            with layer_timers() as spent:
                t0 = time.perf_counter()
                run_worlds(worlds, slots)
                total = time.perf_counter() - t0
            if total < best:
                best, layers = total, spent
        split = ", ".join(f"{label} {t * 1e6 / slots:.2f}" for label, t in layers.items())
        print(f"  {title:<38}{best * 1e6 / slots:>10.2f}us  ({split} us)")


def bench_full_run(repeats):
    best = np.inf
    for _ in range(repeats):
        world = generate_scenario(ScenarioConfig(), seed=1)
        t0 = time.perf_counter()
        run_world(world)
        best = min(best, time.perf_counter() - t0)
    print(f"\nfull default run (600 slots, 75 windows), best of {repeats}: "
          f"{best * 1e3:.1f} ms")


REPLAY_SEED = 7000  # perfbench's call 0 at seed 7

# perfbench's sweeps: (title, config, sweep); each runs every scheme
SWEEPS = (
    ("fleet_sweep", ScenarioConfig(), {"ugv_count": [6, 8, 10, 12, 14]}),
    ("crowded_market", CROWDED, {}),
)

# the kernel's branches with a transition gate: (name, which of the four
# arrays, column, codes); a row transitions when that column changes
BRANCHES = (
    ("flying UAVs", 1, K.I_ACT, (K.ACT_FLY_OUT, K.ACT_FLY_BACK)),
    ("charging UAVs", 1, K.I_ACT, (K.ACT_CHARGE,)),
    ("en-route vehicles", 3, K.GI_STATE, (K.UGV_ENROUTE,)),
)


def record_states(cfg, sweep):
    """Copies of step_world's four input arrays at every slot of the sweep."""
    states, step = [], K.step_world

    def recording(*arrays):
        states.append(tuple(a.copy(order="K") for a in arrays))
        step(*arrays)

    K.step_world = recording
    try:
        run_experiment(cfg, sweep, replications=1, base_seed=REPLAY_SEED)
    finally:
        K.step_world = step
    return states


def replay(states, arrays):
    """Step each recorded state once, copied into the same four arrays so
    the kernel's view memo holds; yields the time of each kernel call."""
    for state in states:
        for dst, src in zip(arrays, state):
            np.copyto(dst, src)
        t0 = time.perf_counter()
        K.step_world(*arrays)
        yield time.perf_counter() - t0


def bench_replay(steps, repeats):
    print(f"\nkernel replay of each perfbench sweep (cli seed {REPLAY_SEED}, first {steps} slots, "
          f"best of {repeats} per slot):")
    for title, cfg, sweep in SWEEPS:
        states = record_states(cfg, sweep)[:steps]
        arrays = tuple(a.copy(order="K") for a in states[0])
        # each slot's best time: a burst of host noise spoils one slot, not the run
        best = np.array([list(replay(states, arrays)) for _ in range(repeats)]).min(0)
        uavs, ugvs = states[0][0].shape[0], states[0][2].shape[0]
        print(f"  {title} ({uavs} UAVs x {ugvs} vehicles, {len(states)} slots): "
              f"{best.mean() * 1e6:.2f}us per step")
        with_rows = dict.fromkeys((name for name, *_ in BRANCHES), 0)
        moving = dict(with_rows)
        # replay yields once it has stepped a state: arrays hold the step's result
        for state, _ in zip(states, replay(states, arrays)):
            for name, k, col, codes in BRANCHES:
                old = state[k][:, col]
                rows = np.isin(old, codes)
                with_rows[name] += bool(rows.any())
                moving[name] += bool((rows & (arrays[k][:, col] != old)).any())
        for name, *_ in BRANCHES:
            print(f"    {name:<18} rows in {with_rows[name] / len(states):>4.0%} of slots, "
                  f"a transition in {moving[name] / len(states):>4.0%}")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--steps", type=int, default=2000)
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    bench_raw(args.steps, args.repeats)
    bench_run_worlds(args.steps, args.repeats)
    bench_full_run(args.repeats)
    bench_replay(args.steps, args.repeats)


if __name__ == "__main__":
    main()
