"""Acceptance suite: the ten exit criteria, one test and one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS lines alongside pytest's own verdicts. Property criteria (1-6, 9, 10)
are exact up to their stated tolerances; criteria 7-8 check the trend
reproduction of the fleet-size and window-length sweeps at 100 seeds.
"""

import time

import numpy as np
import pytest

import skymarket._kernels as K
from skymarket.audit import (
    audit_markets,
    check_stability,
    deviation_probe,
    non_envy_ratio,
    random_market,
)
from skymarket.baselines import optimal_scheme_outcome
from skymarket.cli import main
from skymarket.energy import ascend_power, descend_power
from skymarket.mechanism import run_auction
from skymarket.simulator import (
    advance_slot,
    generate_scenario,
    run_experiment,
)
from skymarket.types import ScenarioConfig

from conftest import (
    check_ir, close_window_loop, naive_best_assignment, payment_closed_form, payment_unrolled,
)

SWEEP_SEEDS = 100
TREND_UGVS = (6, 8, 10, 12, 14)
WINDOW_TAUS = (4.0, 8.0, 16.0)
WINDOW_UGVS = (6, 10, 14)


def report(num, name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[criterion {num:>2}] {status} {name}"
    if detail:
        line += f" ({detail})"
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def market_corpus():
    """1,000 random truthful markets with 1 <= I, J <= 8 (criteria 1, 2, 4)."""
    rng = np.random.default_rng(424242)
    corpus = []
    for _ in range(1000):
        n_uavs = int(rng.integers(1, 9))
        n_ugvs = int(rng.integers(1, 9))
        corpus.append(random_market(rng, n_uavs, n_ugvs))
    return corpus


@pytest.fixture(scope="module")
def ugv_sweep():
    """Fleet-size sweep at 100 seeds, all three schemes (criterion 7)."""
    cfg = ScenarioConfig()
    start = time.time()
    result = run_experiment(
        cfg, {"ugv_count": list(TREND_UGVS)}, replications=SWEEP_SEEDS, base_seed=0
    )
    return result, time.time() - start


def test_criterion_1_incentive_compatibility(market_corpus):
    start = time.time()
    worst = -np.inf
    for market in market_corpus:
        for entry in market.demand:
            worst = max(worst, deviation_probe(market, entry.uav_id))
    elapsed = time.time() - start
    report(
        1, "incentive compatibility: max misreport gain <= 1e-9",
        worst <= 1e-9 and elapsed < 30.0,
        f"worst gain {worst:.3e}, {elapsed:.1f}s",
    )


def test_criterion_2_individual_rationality(market_corpus):
    # the audit's count, and the scalar scan of every settled utility
    violations = sum(r.ir_violations for r in audit_markets(market_corpus))
    for market in market_corpus:
        violations += len(check_ir(run_auction(market)))
    report(2, "individual rationality: zero negative utilities", violations == 0,
           f"{violations} violations")


def test_criterion_3_envy_freeness_both_sizes():
    bad = 0
    for n in (5, 20):
        for seed in range(SWEEP_SEEDS):
            rng = np.random.default_rng(np.random.SeedSequence([n, seed]))
            market = random_market(rng, n, n)
            outcome = run_auction(market)
            phi = {e.uav_id: e.phi_bar for e in market.demand}
            stats = non_envy_ratio(outcome, phi)
            if stats.all_participants != 1.0:
                bad += 1
    report(3, "envy-freeness: ratio 1.0 at 5x5 and 20x20, 100 seeds each",
           bad == 0, f"{bad} envious runs")


def test_criterion_4_stability(market_corpus):
    blocking = 0
    for market in market_corpus:
        outcome = run_auction(market)
        phi = {e.uav_id: e.phi_bar for e in market.demand}
        qs = {s.ugv_id: s.q for s in market.supply}
        blocking += len(check_stability(outcome, phi, qs))
    report(4, "stability: zero blocking pairs over the corpus", blocking == 0,
           f"{blocking} blocking pairs")


def test_criterion_5_allocation_optimality_oracle():
    rng = np.random.default_rng(777)
    start = time.time()
    worst = 0.0
    for _ in range(500):
        n_uavs = int(rng.integers(1, 8))
        n_ugvs = int(rng.integers(1, 8))
        market = random_market(rng, n_uavs, n_ugvs)
        ours = run_auction(market).social_surplus
        brute = naive_best_assignment(
            [e.phi_bar for e in market.demand], [s.q for s in market.supply]
        )
        optimal = optimal_scheme_outcome(market).social_surplus
        worst = max(worst, abs(ours - brute), abs(optimal - brute))
    elapsed = time.time() - start
    report(5, "allocation optimality: assortative == brute force (min side <= 7)",
           worst <= 1e-9 and elapsed < 60.0, f"max dev {worst:.3e}, {elapsed:.1f}s")


def test_criterion_6_payment_consistency():
    rng = np.random.default_rng(990)
    worst_rec = 0.0
    worst_closed = 0.0
    for _ in range(2000):
        n_uavs = int(rng.integers(1, 9))
        n_ugvs = int(rng.integers(1, 9))
        market = random_market(rng, n_uavs, n_ugvs)
        outcome = run_auction(market)
        allocation, pay = outcome.winners, outcome.payments
        for j in range(1, len(allocation) + 1):
            worst_rec = max(
                worst_rec, abs(pay[j - 1] - payment_unrolled(market, allocation, j))
            )
            if n_ugvs >= n_uavs:
                worst_closed = max(
                    worst_closed, abs(pay[j - 1] - payment_closed_form(allocation, j))
                )
    report(6, "payment consistency: recursion == telescoped (== closed form when J >= I)",
           worst_rec <= 1e-12 and worst_closed <= 1e-12,
           f"recursive dev {worst_rec:.2e}, closed-form dev {worst_closed:.2e}")


def _means(aggregates, scheme, field):
    return {a["J"]: a[field] for a in aggregates if a["scheme"] == scheme}


def test_criterion_7_fleet_size_trends(ugv_sweep):
    result, elapsed = ugv_sweep
    ok = elapsed < 300.0
    details = [f"{elapsed:.2f}s"]
    for field in ("SL_mean", "uav_utility_mean", "surplus_mean"):
        ours = _means(result.aggregates, "ours", field)
        vals = [ours[j] for j in TREND_UGVS]
        monotone = all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        ok = ok and monotone
        details.append(f"{field} monotone={monotone}")
    ours_s = _means(result.aggregates, "ours", "surplus_mean")
    static_s = _means(result.aggregates, "static", "surplus_mean")
    optimal_s = _means(result.aggregates, "optimal", "surplus_mean")
    dominates_static = all(ours_s[j] >= static_s[j] - 1e-12 for j in TREND_UGVS)
    optimal_dominates = all(optimal_s[j] >= ours_s[j] - 1e-12 for j in TREND_UGVS)
    ok = ok and dominates_static and optimal_dominates
    details.append(f"ours>=static={dominates_static}, optimal>=ours={optimal_dominates}")
    report(7, "fleet-size sweep trends (J in 6..14, I=10, 100 seeds)", ok,
           "; ".join(details))


def test_criterion_8_window_length_trend():
    cfg = ScenarioConfig()
    result = run_experiment(
        cfg,
        {"window_len": list(WINDOW_TAUS), "ugv_count": list(WINDOW_UGVS)},
        replications=SWEEP_SEEDS,
        schemes=("ours",),
        base_seed=0,
    )
    by_cell = {(a["J"], a["tau"]): a["uav_utility_mean"] for a in result.aggregates}
    ok = True
    details = []
    for j in WINDOW_UGVS:
        vals = [by_cell[(j, tau)] for tau in WINDOW_TAUS]
        monotone = all(a <= b + 1e-12 for a, b in zip(vals, vals[1:]))
        ok = ok and monotone
        details.append(f"J={j} monotone={monotone}")
    report(8, "UAV utility nondecreasing in window length (tau in 4/8/16)", ok,
           "; ".join(details))


def test_criterion_9_energy_model_identities():
    rng = np.random.default_rng(31)
    # (a) ascend - descend == eps1 * m * g * v at 10 random speeds
    worst = 0.0
    for _ in range(10):
        v = float(rng.uniform(0.1, 5.0))
        m = float(rng.uniform(0.5, 8.0))
        diff = ascend_power(v, m, 0.5, 1.0, 0.005) - descend_power(v, m, 0.5, 1.0, 0.005)
        worst = max(worst, abs(diff - 0.5 * m * 9.8 * v))
    ok_identity = worst <= 1e-12

    # (b) SoC bounded over 10,000 simulated slots (busy market)
    cfg = ScenarioConfig(
        horizon_slots=10000, uav_soc_frac_min=0.3, uav_soc_frac_max=0.55
    )
    world = generate_scenario(cfg, seed=5)
    cap = cfg.uav_capacity_wh
    ok_bounds = True
    rows = []
    for _ in range(cfg.horizon_slots):
        advance_slot(world)
        soc = world.uav_f[:, K.F_SOC]
        if soc.min() < 0.0 or soc.max() > cap + 1e-12:
            ok_bounds = False
            break
        if world.clock % cfg.slots_per_window == 0:
            _, row, _ = close_window_loop(world)
            rows.append(row)

    # (c) surplus == total utilities on every recorded window (1e-9)
    ok_surplus = len(rows) > 0 and all(
        abs(r.surplus - (r.uav_utility + r.ugv_utility)) <= 1e-9 for r in rows
    )

    report(9, "energy identities: vertical-power gap, SoC bounds, surplus identity",
           ok_identity and ok_bounds and ok_surplus,
           f"gap dev {worst:.2e}, bounds={ok_bounds}, windows={len(rows)}")


def test_criterion_10_preset_determinism(tmp_path):
    def run_twice(args, out_a, out_b, files):
        assert main(args + ["--out", str(out_a)]) == 0
        assert main(args + ["--out", str(out_b)]) == 0
        for name in files:
            a = (out_a / name).read_bytes()
            b = (out_b / name).read_bytes()
            if a != b:
                return False
        return True

    ok_truthful = run_twice(
        ["preset", "table-truthful", "--seed", "11"],
        tmp_path / "t1", tmp_path / "t2", ["table-truthful.csv"],
    )
    ok_window = run_twice(
        ["preset", "fig-window", "--seed", "11", "--reps", "5"],
        tmp_path / "w1", tmp_path / "w2",
        ["fig-window_raw.csv", "fig-window_aggregate.csv"],
    )
    report(10, "determinism: identical preset invocations, byte-identical CSVs",
           ok_truthful and ok_window,
           f"table-truthful={ok_truthful}, fig-window={ok_window}")
