#!/usr/bin/env python3
"""Time each CSV that ``skymarket run`` writes, on a crowded market and on criterion 7's sweep.

Calls ``skymarket.cli.main`` and times every writer call the CLI makes
(metrics_raw, metrics_aggregate, audits and outcomes) next to the whole
call. Two workloads:

* 100 UAVs starting at 30-60% charge against 25 vehicles (the config of
  perfbench's ``crowded_market``), under perfbench's own command ``run
  --scheme all --outcomes`` and with ``--audit`` added;
* criterion 7's sweep, ``run --ugvs 6 8 10 12 14 --reps 100 --scheme
  all`` on the default config, without and with ``--audit``.

A writer's time includes formatting the text it writes as it writes:
``MetricsColumns`` formats metrics_raw, audits and outcomes from its
columns, one chunk per run. Prints each file's best time over the
repeats, with its line count and size, next to the best time of the
whole call.
``--horizon-slots`` sets every workload's horizon.

Usage: python benchmarks/bench_outputs.py [--repeats 5] [--horizon-slots 600] [--seed 7]
"""

import argparse
import contextlib
import io
import math
import tempfile
import time
from pathlib import Path

import skymarket.cli as cli
from skymarket.types import ScenarioConfig, save_config

CROWDED = ScenarioConfig(uav_count=100, ugv_count=25, uav_soc_frac_min=0.3, uav_soc_frac_max=0.6)


def timed(write, best):
    """``write``, recording in ``best`` its fastest call per file name."""
    def wrapper(path, *args):
        t0 = time.perf_counter()
        result = write(path, *args)
        elapsed = time.perf_counter() - t0
        best[result.name] = min(best.get(result.name, math.inf), elapsed)
        return result
    return wrapper


CRITERION_7 = ["--ugvs", "6", "8", "10", "12", "14", "--reps", "100", "--scheme", "all"]


def bench(title, config, args, repeats):
    """Time ``run --config <config> <args>``; print the best whole call
    and each file's best writer call."""
    best = {}
    best_call = math.inf
    writers = cli.write_csv, cli.write_csv_text
    cli.write_csv, cli.write_csv_text = (timed(w, best) for w in writers)
    try:
        with tempfile.TemporaryDirectory() as tmp:
            cfg = Path(tmp) / "scenario.cfg"
            save_config(config, cfg)
            out = Path(tmp) / "out"
            argv = ["run", "--config", str(cfg), *args, "--out", str(out)]
            for _ in range(repeats):
                t0 = time.perf_counter()
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                best_call = min(best_call, time.perf_counter() - t0)
                if code != 0:
                    raise SystemExit(f"skymarket {' '.join(argv)} exited {code}")
            files = {name: (out / name).read_bytes() for name in best}
    finally:
        cli.write_csv, cli.write_csv_text = writers

    print(f"{title}, {config.horizon_slots} slots, best of {repeats}:")
    print(f"  {'whole call':<24}{best_call * 1e3:>10.2f} ms")
    for name, seconds in best.items():
        lines, kb = files[name].count(b"\n"), len(files[name]) / 1e3
        print(f"  {name:<24}{seconds * 1e3:>10.2f} ms {lines:>9} lines {kb:>9.1f} kB")
    total = sum(best.values())
    print(f"  {'all files':<24}{total * 1e3:>10.2f} ms ({total / best_call:.0%} of the call)")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    parser.add_argument("--horizon-slots", type=int, default=600)
    parser.add_argument("--seed", type=int, default=7)
    args = parser.parse_args()
    seed = ["--seed", str(args.seed)]
    crowded = CROWDED.replace(horizon_slots=args.horizon_slots)
    for audit in ([], ["--audit"]):
        command = ["--scheme", "all", "--outcomes", *audit]
        bench(f"run {' '.join(command)}, 100 UAVs vs 25 vehicles, seed {args.seed}",
              crowded, command + seed, args.repeats)
    default = ScenarioConfig(horizon_slots=args.horizon_slots)
    for audit in ([], ["--audit"]):
        bench(f"criterion 7: run {' '.join(CRITERION_7 + audit)}, seed {args.seed}",
              default, CRITERION_7 + audit + seed, args.repeats)


if __name__ == "__main__":
    main()
