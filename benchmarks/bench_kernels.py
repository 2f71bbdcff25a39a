#!/usr/bin/env python3
"""Time the slot-stepping kernel.

Four workloads:

* raw kernel throughput on synthetic fleets of increasing size, agents
  mid-mission so every activity branch stays hot, stepped in blocks of
  one default window (8 slots) per ``step_world`` call on one carry, as
  a run steps between trades;
* ``run_worlds`` on one stack per slot, kernel, bookkeeping and windows
  together, on the stacks perfbench's sweeps step: ``fleet_sweep``'s
  (10 worlds of 10 UAVs, J = 6..14, mobile and static) and
  ``crowded_market``'s (2 worlds of 100 UAVs against 25 vehicles), over
  the first ``--steps`` slots of the 600-slot horizon, with the time of
  the kernel, of the bookkeeping (``_book``) and of the slot boundaries
  (``_close_boundary``) split out;
* a full default-scenario run (600 slots, 75 auction windows), which
  shows how much of the end-to-end wall time the kernel actually owns;
* a replay of the kernel's inputs, recorded call by call over a
  ``run_experiment`` of each perfbench-shaped sweep (one seed, every
  scheme) and of acceptance criterion 7's sweep (100 seeds, every
  scheme: 1,000 worlds of 10 UAVs on one stack): the four arrays and
  the block length of each call inside the first ``--steps`` slots, and
  whether it came without a carry (a set-up: the first block, and each
  block after a boundary that traded). ``step_world`` alone is timed on
  each recorded block, stepped on one carry that is dropped where the
  sweep dropped it, so the replay pays the set-ups the sweep pays; the
  number of set-ups is printed beside the number of calls. Each
  branch's share of slots with rows and with a transition is printed,
  with the share of slots in which some UAV changes activity (after
  which the kernel gathers the groups that changed). Only the kernel
  call is timed, so this is the steadiest measure of a kernel change.

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


BLOCK = ScenarioConfig().slots_per_window  # slots per raw kernel call


def time_steps(arrays, steps, repeats):
    best = np.inf
    soc = np.empty((BLOCK, arrays[0].shape[0]))
    sensing = np.empty(soc.shape, dtype=bool)
    blocks = [min(BLOCK, steps - t) for t in range(0, steps, BLOCK)]
    for _ in range(repeats):
        # order="K" keeps the simulator's column-contiguous layout
        uf, ui, gf, gi = (a.copy(order="K") for a in arrays)
        carry = None
        t0 = time.perf_counter()
        for k in blocks:
            carry = K.step_world(uf, ui, gf, gi, soc=soc[:k], sensing=sensing[:k], carry=carry)
        best = min(best, time.perf_counter() - t0)
    return best


def bench_raw(steps, repeats):
    print(f"raw kernel, {steps} slots in calls of {BLOCK} (best of {repeats}), time per slot:")
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
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
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

# perfbench's sweeps and criterion 7's: (title, config, sweep, seeds);
# each runs every scheme
SWEEPS = (
    ("fleet_sweep", ScenarioConfig(), {"ugv_count": [6, 8, 10, 12, 14]}, 1),
    ("crowded_market", CROWDED, {}, 1),
    ("criterion 7", ScenarioConfig(), {"ugv_count": [6, 8, 10, 12, 14]}, 100),
)

# the kernel's branches with a transition gate: (name, which of the four
# arrays, column, codes); a row transitions when that column changes
BRANCHES = (
    ("flying UAVs", 1, K.I_ACT, (K.ACT_FLY_OUT, K.ACT_FLY_BACK)),
    ("charging UAVs", 1, K.I_ACT, (K.ACT_CHARGE,)),
    ("en-route vehicles", 3, K.GI_STATE, (K.UGV_ENROUTE,)),
)


def record_states(cfg, sweep, seeds, steps):
    """step_world's four input arrays, copied, the block length of each
    call over the sweep's first ``steps`` slots (the last block cut
    short to fit) and whether the call came without a carry; later
    calls are not copied, so memory stays bounded."""
    states, step, left = [], K.step_world, steps

    def recording(*arrays, soc, sensing, carry=None):
        nonlocal left
        if left > 0:
            states.append((tuple(a.copy(order="K") for a in arrays), min(len(soc), left),
                           carry is None))
            left -= len(soc)
        return step(*arrays, soc=soc, sensing=sensing, carry=carry)

    K.step_world = recording
    try:
        run_experiment(cfg, sweep, replications=seeds, base_seed=REPLAY_SEED)
    finally:
        K.step_world = step
    return states


def replay(states, arrays, soc, sensing):
    """Step the recorded blocks in turn on the same four arrays, with one
    carry dropped where the sweep dropped it: each set-up starts from its
    recorded arrays, and a carried block from what the block before it
    left, which the sweep recorded; yields the time of each kernel call."""
    carry = None
    for state, k, setup in states:
        if setup:
            for dst, src in zip(arrays, state):
                np.copyto(dst, src)
            carry = None
        t0 = time.perf_counter()
        carry = K.step_world(*arrays, soc=soc[:k], sensing=sensing[:k], carry=carry)
        yield time.perf_counter() - t0


def branch_shares(states):
    """Per branch of ``BRANCHES``: slots with rows and slots with a
    transition; and slots in which some UAV changes activity. Each
    recorded block is stepped again one slot at a time."""
    with_rows = dict.fromkeys((name for name, *_ in BRANCHES), 0)
    moving = dict(with_rows)
    changed = 0
    for state, k, _ in states:
        arrays = tuple(a.copy(order="K") for a in state)
        soc = np.empty((1, arrays[0].shape[0]))  # one slot per call
        sensing = np.empty(soc.shape, dtype=bool)
        for _ in range(k):
            before = tuple(a.copy(order="K") for a in arrays)
            K.step_world(*arrays, soc=soc, sensing=sensing)
            for name, i, col, codes in BRANCHES:
                old = before[i][:, col]
                rows = np.isin(old, codes)
                with_rows[name] += bool(rows.any())
                moving[name] += bool((rows & (arrays[i][:, col] != old)).any())
            changed += bool((arrays[1][:, K.I_ACT] != before[1][:, K.I_ACT]).any())
    return with_rows, moving, changed


def bench_replay(steps, repeats):
    print(f"\nkernel replay of each perfbench sweep and of criterion 7's (cli seed {REPLAY_SEED}, "
          f"first {steps} slots, one call per block, best of {repeats} per call):")
    for title, cfg, sweep, seeds in SWEEPS:
        states = record_states(cfg, sweep, seeds, steps)
        slots = sum(k for _, k, _ in states)
        arrays = tuple(a.copy(order="K") for a in states[0][0])
        soc = np.empty((max(k for _, k, _ in states), arrays[0].shape[0]))
        sensing = np.empty(soc.shape, dtype=bool)
        # each call's best time: a burst of host noise spoils one call, not the run
        best = np.array([list(replay(states, arrays, soc, sensing))
                         for _ in range(repeats)]).min(0)
        uavs, ugvs = arrays[0].shape[0], arrays[2].shape[0]
        setups = sum(setup for *_, setup in states)
        print(f"  {title} ({uavs} UAVs x {ugvs} vehicles, {slots} slots): {len(states)} calls, "
              f"{setups} set-ups, {best.sum() * 1e6 / slots:.2f}us per slot, "
              f"{best.mean() * 1e6:.2f}us per call")
        with_rows, moving, changed = branch_shares(states)
        for name, *_ in BRANCHES:
            print(f"    {name:<18} rows in {with_rows[name] / slots:>4.0%} of slots, "
                  f"a transition in {moving[name] / slots:>4.0%}")
        print(f"    some UAV changes activity in {changed / slots:.0%} of slots")


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
