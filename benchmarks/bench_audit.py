#!/usr/bin/env python3
"""Time ``audit_market`` per market, whole and split by probe.

Three market sets:

* perfbench's ``audit_suite`` mix: the 100 markets of 1-8 bidders and
  1-8 vehicles that ``skymarket audit --max-size 8`` audits at CLI seed
  7000 (perfbench's call 0 at seed 7);
* 20 bidders against 20 vehicles, the larger size of the tables;
* 73 bidders against 25 vehicles, a window of the crowded market.

For each set it prints the best time over ``--repeats`` of auditing
every market, per market, then the same for each part of the audit:
clearing (``run_auction``), the IC probe over every bidder's deviation
grid, and the envy and stability probes, which share one table of slot
utilities. IR is read off the outcome and is not timed alone.

Usage: python benchmarks/bench_audit.py [--repeats 5]
"""

import argparse
import math
import tempfile
import time
from pathlib import Path

import numpy as np

import skymarket.presets as presets
from skymarket.audit import (
    _blocking_pairs, _envy_stats, _ic_gains, _slot_table, audit_market, random_market,
)
from skymarket.mechanism import run_auction
from skymarket.types import ScenarioConfig

SUITE_SEED = 7000  # perfbench's call 0 at seed 7
SUITE_INSTANCES = 100
SUITE_MAX_SIZE = 8
SIZED_MARKETS = 20  # markets in each of the 20x20 and 73x25 sets


def suite_markets():
    """The markets ``skymarket audit`` audits at ``SUITE_SEED``, recorded
    by running the preset with ``audit_market`` wrapped."""
    markets = []

    def recording(market, instance=""):
        markets.append(market)
        return audit_market(market, instance)

    presets.audit_market = recording
    try:
        with tempfile.TemporaryDirectory() as tmp:
            presets.run_audit_suite(ScenarioConfig(), SUITE_SEED, Path(tmp),
                                    instances=SUITE_INSTANCES, max_size=SUITE_MAX_SIZE)
    finally:
        presets.audit_market = audit_market
    return markets


def sized_markets(n_uavs, n_ugvs, count):
    rng = np.random.default_rng([n_uavs, n_ugvs])
    return [random_market(rng, n_uavs, n_ugvs) for _ in range(count)]


def best_per_market(work, markets, repeats):
    """Best time over ``repeats`` of ``work`` on every market, per market."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        for args in markets:
            work(*args)
        best = min(best, time.perf_counter() - t0)
    return best / len(markets)


def envy_and_stability(outcome, phi_bars, qs):
    table = _slot_table(outcome, phi_bars, qs)
    return _envy_stats(table), _blocking_pairs(table, qs)


def bench(title, markets, repeats):
    outcomes = [run_auction(m) for m in markets]
    table_args = [
        (o, {e.uav_id: e.phi_bar for e in m.demand}, {s.ugv_id: s.q for s in m.supply})
        for m, o in zip(markets, outcomes)
    ]
    whole = best_per_market(audit_market, [(m,) for m in markets], repeats)
    parts = [
        ("run_auction", best_per_market(run_auction, [(m,) for m in markets], repeats)),
        ("IC", best_per_market(_ic_gains, list(zip(markets, outcomes)), repeats)),
        ("envy+stability", best_per_market(envy_and_stability, table_args, repeats)),
    ]
    print(f"{title}, {len(markets)} markets, best of {repeats}:")
    print(f"  {'audit_market':<16}{whole * 1e3:>9.3f} ms per market")
    for name, seconds in parts:
        print(f"  {name:<16}{seconds * 1e3:>9.3f} ms per market ({seconds / whole:.0%})")


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--repeats", type=int, default=5)
    args = parser.parse_args()
    bench(f"audit_suite mix (CLI seed {SUITE_SEED}, 1-{SUITE_MAX_SIZE} per side)",
          suite_markets(), args.repeats)
    for n_uavs, n_ugvs in ((20, 20), (73, 25)):
        bench(f"{n_uavs}x{n_ugvs}", sized_markets(n_uavs, n_ugvs, SIZED_MARKETS), args.repeats)


if __name__ == "__main__":
    main()
