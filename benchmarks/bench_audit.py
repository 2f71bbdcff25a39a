#!/usr/bin/env python3
"""Time ``audit_markets`` per market, against the scalar probes it replaced.

Three market sets, each audited as one batch:

* perfbench's ``audit_suite`` mix: the 100 markets of 1-8 bidders and
  1-8 vehicles that ``skymarket audit --max-size 8`` audits at CLI seed
  7000 (perfbench's call 0 at seed 7);
* 20 bidders against 20 vehicles, the larger size of the tables;
* 73 bidders against 25 vehicles, a window of the crowded market.

For each set it prints the best time over ``--repeats`` of auditing
every market, per market: ``audit_markets`` on the whole set, then the
scalar probes market by market (``tests/conftest.py``'s oracles:
clearing, the IC probe over every bidder's deviation grid, and envy and
stability off one slot table), the "before" line.

Usage: python benchmarks/bench_audit.py [--repeats 5]
"""

import argparse
import math
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

import skymarket.presets as presets
from skymarket.audit import audit_markets, random_market
from skymarket.types import ScenarioConfig

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))
from conftest import audit_fields  # noqa: E402

SUITE_SEED = 7000  # perfbench's call 0 at seed 7
SUITE_INSTANCES = 100
SUITE_MAX_SIZE = 8
SIZED_MARKETS = 20  # markets in each of the 20x20 and 73x25 sets


def suite_markets():
    """The markets ``skymarket audit`` audits at ``SUITE_SEED``, recorded
    by running the preset with ``audit_markets`` wrapped."""
    markets = []

    def recording(batch, instances=None):
        markets.extend(batch)
        return audit_markets(batch, instances)

    presets.audit_markets = recording
    try:
        with tempfile.TemporaryDirectory() as tmp:
            presets.run_audit_suite(ScenarioConfig(), SUITE_SEED, Path(tmp),
                                    instances=SUITE_INSTANCES, max_size=SUITE_MAX_SIZE)
    finally:
        presets.audit_markets = audit_markets
    return markets


def sized_markets(n_uavs, n_ugvs, count):
    rng = np.random.default_rng([n_uavs, n_ugvs])
    return [random_market(rng, n_uavs, n_ugvs) for _ in range(count)]


def best_per_market(work, markets, repeats):
    """Best time over ``repeats`` of ``work(markets)``, per market."""
    best = math.inf
    for _ in range(repeats):
        t0 = time.perf_counter()
        work(markets)
        best = min(best, time.perf_counter() - t0)
    return best / len(markets)


def bench(title, markets, repeats):
    batch = best_per_market(audit_markets, markets, repeats)
    scalar = best_per_market(lambda ms: [audit_fields(m) for m in ms], markets, repeats)
    print(f"{title}, {len(markets)} markets, best of {repeats}:")
    print(f"  {'audit_markets':<16}{batch * 1e3:>9.3f} ms per market")
    print(f"  {'scalar':<16}{scalar * 1e3:>9.3f} ms per market ({scalar / batch:.1f}x)")


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
