#!/usr/bin/env python3
"""Time the audit's flat-array entry and ``audit_markets`` per market,
against the scalar probes they replaced, and the layers around the
audit in a ``skymarket audit`` call.

Four market sets, each audited as one batch:

* perfbench's ``audit_suite`` mix: the 100 markets of 1-8 bidders and
  1-8 vehicles that ``skymarket audit --max-size 8`` audits at CLI seed
  7000 (perfbench's call 0 at seed 7), drawn by the suite's own
  ``presets.audit_suite_batches``;
* 20 bidders against 20 vehicles, the larger size of the tables;
* 73 bidders against 25 vehicles, a window of the crowded market;
* 8 bidders against 8 vehicles, truthful bids drawn from three levels
  (1.0, 2.5 and μ0 + μ1 = 6.0, the bid every UAV below the alert level
  shares), so that bids tie: such markets price every bidder's
  deviation grid, where markets with well-spread bids read the best
  gain off the rank table.

For each set it prints the best time over ``--repeats`` of auditing
every market, per market: ``_audit_arrays`` on the set's flat arrays
(what the suite and the simulator call), ``audit_markets`` on its
``WindowMarket`` objects (which flattens them and calls the same
entry), then the scalar probes market by market (``tests/conftest.py``'s
oracles: clearing, the IC probe over every bidder's deviation grid, and
envy and stability off one slot table), the "before" line. The suite's
mix also times its draw (``audit_suite_batches``) and one whole
in-process ``cli.main(["audit", ...])`` call (draw, audit and CSV, with
the parser already built), per market.

Usage: python benchmarks/bench_audit.py [--repeats 5]
"""

import argparse
import contextlib
import io
import math
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from skymarket import cli
from skymarket.audit import _audit_arrays, _flat_sides, audit_markets, random_market
from skymarket.mechanism import WindowMarket
from skymarket.presets import audit_suite_batches
from skymarket.types import ScenarioConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import audit_fields  # noqa: E402

SUITE_SEED = 7000  # perfbench's call 0 at seed 7
SUITE_INSTANCES = 100
SUITE_MAX_SIZE = 8
SIZED_MARKETS = 20  # markets in each of the 20x20 and 73x25 sets
TIED_MARKETS = 100
TIED_LEVELS = (1.0, 2.5, 6.0)


def suite_draw():
    """The markets ``skymarket audit`` audits at ``SUITE_SEED``, as
    ``audit_suite_batches`` yields them."""
    return list(audit_suite_batches(ScenarioConfig(), SUITE_SEED, SUITE_INSTANCES, SUITE_MAX_SIZE))


def suite_markets():
    """The flat arrays of the markets ``skymarket audit`` audits at
    ``SUITE_SEED``, and those markets as ``WindowMarket`` objects."""
    [(_, flat)] = suite_draw()
    n, m, _, bids, phi, qs = flat
    d, s = np.concatenate(([0], np.cumsum(n))), np.concatenate(([0], np.cumsum(m)))
    markets = [WindowMarket.from_values(phi[d[b]:d[b + 1]].tolist(), bids[d[b]:d[b + 1]].tolist(),
                                        qs[s[b]:s[b + 1]].tolist()) for b in range(len(n))]
    return flat, markets


def sized_markets(n_uavs, n_ugvs, count):
    """``count`` random markets of one size, and their flat arrays."""
    rng = np.random.default_rng([n_uavs, n_ugvs])
    markets = [random_market(rng, n_uavs, n_ugvs) for _ in range(count)]
    return _flat_sides(markets), markets


def tied_markets(n_uavs, n_ugvs, count):
    """``count`` truthful markets of one size whose valuations are drawn
    from ``TIED_LEVELS``, and their flat arrays."""
    rng = np.random.default_rng([n_uavs, n_ugvs, len(TIED_LEVELS)])
    markets = []
    for _ in range(count):
        phi = rng.choice(TIED_LEVELS, size=n_uavs).tolist()
        markets.append(WindowMarket.from_values(phi, phi, rng.uniform(0.05, 1.0, n_ugvs).tolist()))
    return _flat_sides(markets), markets


def best_per_market(work, markets, repeats):
    """Best time over ``repeats`` of ``work(markets)``, per market."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        work(markets)
        best = min(best, time.perf_counter() - t0)
    return best / len(markets)


def cli_audit(out_dir):
    """One in-process ``skymarket audit`` call on the suite's markets,
    its printed file list swallowed."""
    argv = ["audit", "--instances", str(SUITE_INSTANCES), "--max-size", str(SUITE_MAX_SIZE),
            "--seed", str(SUITE_SEED), "--out", out_dir]
    with contextlib.redirect_stdout(io.StringIO()):
        assert cli.main(argv) == 0


def line(part, per_market, arrays=None):
    ratio = "" if arrays is None else f" ({per_market / arrays:.1f}x)"
    print(f"  {part:<21}{per_market * 1e3:>9.3f} ms per market{ratio}")


def bench(title, flat, markets, repeats, whole_call=False):
    assert _audit_arrays(*flat) == [tuple(f) for f in map(audit_fields, markets)]
    arrays = best_per_market(lambda _: _audit_arrays(*flat), markets, repeats)
    batch = best_per_market(audit_markets, markets, repeats)
    scalar = best_per_market(lambda ms: [audit_fields(m) for m in ms], markets, repeats)
    print(f"{title}, {len(markets)} markets, best of {repeats}:")
    if whole_call:
        line("audit_suite_batches", best_per_market(lambda _: suite_draw(), markets, repeats))
    line("_audit_arrays", arrays)
    line("audit_markets", batch, arrays)
    line("scalar", scalar, arrays)
    if whole_call:
        with tempfile.TemporaryDirectory() as out_dir:
            cli_audit(out_dir)  # builds the parser, which later calls reuse
            line("cli.main", best_per_market(lambda _: cli_audit(out_dir), markets, repeats))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    bench(f"audit_suite mix (CLI seed {SUITE_SEED}, 1-{SUITE_MAX_SIZE} per side)",
          *suite_markets(), args.repeats, whole_call=True)
    for n_uavs, n_ugvs in ((20, 20), (73, 25)):
        bench(f"{n_uavs}x{n_ugvs}", *sized_markets(n_uavs, n_ugvs, SIZED_MARKETS), args.repeats)
    bench(f"8x8 tied bids (levels {', '.join(map(str, TIED_LEVELS))})",
          *tied_markets(8, 8, TIED_MARKETS), args.repeats)


if __name__ == "__main__":
    main()
