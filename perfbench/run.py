#!/usr/bin/env python3
"""skymarket benchmark: one workload, timed end to end or traced per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload fleet_sweep --seed 1 --seconds 35 --trace 0

Workloads are defined in ``workloads.py``; ``README.md`` says why each
was chosen and which end-to-end metric each layer metric should move.

The load is a closed loop: one client calls ``skymarket.cli.main`` with
the workload's command, waits for it to return, checks what it wrote,
then makes the next call, until ``--seconds`` have passed. Call k gets
the CLI seed ``seed * 1000 + k``, so every call simulates or audits
fresh inputs and the same benchmark seed always gives the same
inputs. One untimed warm-up call with call 0's seed comes first; its
outputs must be byte-identical to call 0's.

``--trace 0`` reports the end-to-end metrics, with set-up timed in fresh
processes. Every time in them is scaled to a reference CPU speed (see
``calibration.py``): a calibration pass right before and right after each
timed call gives the core's current speed. ``--trace 1`` alternates
untraced and traced calls on the same inputs and reports the per-layer
metrics of the traced ones, per CLI call and unscaled, plus the tracing
overhead. The last line of standard output is the JSON result.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib.util
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from calibration import REF_S, calibrate
from tracer import Tracer, metric_unit
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

SETUP_SAMPLES = 7
MIN_CALLS = 3
SEED_SPACING = 1000

END_TO_END_UNITS = {"ms_per_run": "ms", "ms_per_market": "ms", "setup_s": "s", "peak_rss_mb": "MB"}


def non_negative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError("must be >= 0")
    return value


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=non_negative, default=0)
    p.add_argument("--seconds", type=float, default=35.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def measure_setup(workload) -> float:
    """Median scaled set-up time over fresh processes, after one unmeasured warm-up.

    The calibration runs in this process, around each fresh one: in a
    fresh process it would pay numpy's first-call costs.
    """
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload.kind]
    if workload.config_path is not None:
        cmd.append(str(workload.config_path))
    samples = []
    for i in range(SETUP_SAMPLES + 1):
        before = calibrate()
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=120, cwd=ROOT)
        speed = (before + calibrate()) / 2
        if proc.returncode != 0:
            raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()}")
        if i:
            samples.append(float(proc.stdout.split()[-1]) * REF_S / speed)
    return statistics.median(samples)


class Client:
    """Makes the workload's CLI calls, one at a time, and checks each."""

    def __init__(self, workload, seed: int, tracer=None):
        import skymarket.cli

        self.workload = workload
        self.seed = seed
        self.out = WORK / workload.name / "out"
        self.main = skymarket.cli.main
        self.tracer = tracer
        self.traced_main = tracer.wrap(self.main, "cli.main") if tracer else None

    def cli_seed(self, k: int) -> int:
        return self.seed * SEED_SPACING + k

    def call(self, k: int, traced: bool = False):
        """Run call k; returns (scaled seconds, wall seconds, CallCheck)."""
        seed = self.cli_seed(k)
        shutil.rmtree(self.out, ignore_errors=True)
        argv = self.workload.argv(seed, self.out)
        hooks = self.tracer.installed() if traced else contextlib.nullcontext()
        main = self.traced_main if traced else self.main
        before = calibrate()
        with hooks, contextlib.redirect_stdout(io.StringIO()):
            t0 = perf_counter()
            try:
                code = main(argv)
            except Exception:
                code = "exception"
                traceback.print_exc()
            dt = perf_counter() - t0
        speed = (before + calibrate()) / 2
        try:
            check = self.workload.check(self.out, seed, code)
        except (OSError, ValueError, KeyError) as exc:
            check = self.workload.check(self.out, seed, f"unreadable output ({exc})")
        return dt * REF_S / speed, dt, check


def provenance(args, client: Client) -> dict:
    import numpy
    from skymarket import _kernels

    return {
        "workload": args.workload,
        "seed": args.seed,
        "first_cli_seed": client.cli_seed(0),
        "trace": args.trace,
        "backend": _kernels.active_backend(),
        "numba_installed": importlib.util.find_spec("numba") is not None,
        "numpy": numpy.__version__,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
    }


def run_untraced(client: Client, seconds: float):
    warm = client.call(0)[2]
    records = []
    t_start = perf_counter()
    while len(records) < MIN_CALLS or perf_counter() - t_start < seconds:
        records.append(client.call(len(records)))
    return warm, records


def run_traced(client: Client, seconds: float):
    """Pairs of untraced and traced calls on the same inputs, in alternating order."""
    warm = client.call(0)[2]
    pairs = []
    t_start = perf_counter()
    while len(pairs) < MIN_CALLS or perf_counter() - t_start < seconds:
        k = len(pairs)
        order = (False, True) if k % 2 == 0 else (True, False)
        pair = {traced: client.call(k, traced) for traced in order}
        pairs.append((pair[False], pair[True]))
    return warm, pairs


def share_table(tracer, traced_wall: float, n_calls: int) -> list[str]:
    lines = [f"{'span':<36}{'calls/call':>12}{'self_s/call':>13}{'share':>8}"]
    spans = sorted(tracer.spans().items(), key=lambda kv: -kv[1][2])
    for name, (calls, _, self_s) in spans:
        lines.append(f"{name:<36}{calls / n_calls:>12.1f}{self_s / n_calls:>13.5f}"
                     f"{self_s / traced_wall:>8.1%}")
    return lines


def measure_end_to_end(workload, seed: int, seconds: float):
    setup_s = measure_setup(workload)
    client = Client(workload, seed)
    warm, records = run_untraced(client, seconds)
    checks = [c for _, _, c in records]
    per_run = [t * 1e3 / (c.runs or 1) for t, _, c in records]
    per_market = [t * 1e3 / c.markets for t, _, c in records]
    wall_per_run = [dt * 1e3 / (c.runs or 1) for _, dt, c in records]
    metrics = {
        "ms_per_run": statistics.median(per_run),
        "ms_per_market": statistics.median(per_market),
        "setup_s": setup_s,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    detail = [
        f"calls {len(records)}, wall {sum(dt for _, dt, _ in records):.3f} s, "
        f"{sum(c.runs for c in checks)} runs, {sum(c.markets for c in checks)} markets",
        f"unscaled wall ms_per_run median {statistics.median(wall_per_run):.6g} ms",
    ]
    return client, warm, checks, metrics, END_TO_END_UNITS, detail, []


def measure_layers(workload, seed: int, seconds: float):
    tracer = Tracer()
    client = Client(workload, seed, tracer)
    warm, pairs = run_traced(client, seconds)
    checks = [c for pair in pairs for _, _, c in pair]
    problems = [
        f"call {k}: traced outputs differ from untraced ones"
        for k, (plain, traced) in enumerate(pairs)
        if plain[2].digests != traced[2].digests
    ]
    metrics = tracer.layer_metrics(len(pairs))
    metrics["trace.overhead_frac"] = statistics.median(t[0] / u[0] for u, t in pairs) - 1.0
    units = {name: metric_unit(name) for name in metrics}
    traced_wall = sum(t[1] for _, t in pairs)
    detail = [f"pairs {len(pairs)}, traced wall {traced_wall:.3f} s"]
    detail += share_table(tracer, traced_wall, len(pairs))
    return client, warm, checks, metrics, units, detail, problems


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "skymarket" / "__init__.py").is_file():
        print(f"perfbench: no skymarket sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    workload = WORKLOADS[args.workload]
    work = WORK / workload.name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    workload.prepare(work)

    measure = measure_layers if args.trace else measure_end_to_end
    client, warm, checks, metrics, units, detail, problems = measure(
        workload, args.seed, args.seconds)
    first = checks[0]
    if warm.digests != first.digests:
        problems.append("warm-up and call 0 wrote different outputs for the same command")
    problems += [f"warm-up: {p}" for p in warm.problems]
    problems += [f"call {i}: {p}" for i, c in enumerate(checks) for p in c.problems]
    attempted = sum(c.attempted for c in checks)
    failed = sum(c.failed for c in checks)

    print(json.dumps({"provenance": provenance(args, client)}))
    for name, digest in first.digests.items():
        print(f"sha256 {digest}  {name}  (cli seed {client.cli_seed(0)})")
    for line in detail:
        print(line)
    for p in problems:
        print(f"problem: {p}")
    for name, value in metrics.items():
        print(f"{name} = {value:.6g} {units[name]}")
    print(f"failed_frac = {failed / attempted:.6g} ratio ({failed} of {attempted})")

    result = {
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
