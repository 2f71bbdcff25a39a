"""End-to-end CLI behavior: exit codes, output files, reproducibility."""

import csv
import hashlib
import math
import re
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import skymarket.audit as audit
import skymarket.cli as cli
import skymarket.presets as presets
import skymarket.simulator as simulator
from skymarket.audit import AUDIT_CSV_HEADER, random_market
from skymarket.cli import build_parser, main
from skymarket.mechanism import OUTCOME_CSV_HEADER, WindowMarket
from skymarket.metrics import METRICS_CSV_HEADER
from skymarket.presets import PRESETS
from skymarket.simulator import ALL_SCHEMES, generate_scenario, run_experiment, run_world
from skymarket.types import ScenarioConfig, save_config, validate

from conftest import (
    audit_report_row, csv_writer_text, outcome_lines, outcome_rows, run_benchmark_script,
    run_cli_process, run_world_windowwise,
)


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


def test_validate_accepts_shipped_config(capsys):
    import pathlib

    cfg = pathlib.Path(__file__).resolve().parents[1] / "configs" / "baseline.cfg"
    assert main(["validate", str(cfg)]) == 0
    assert "OK" in capsys.readouterr().out


def test_validate_rejects_bad_config(tmp_path, capsys):
    bad = tmp_path / "bad.cfg"
    save_config(ScenarioConfig(window_len=0.0), bad)
    assert main(["validate", str(bad)]) == 2
    assert "window length must be positive" in capsys.readouterr().out


def test_validate_unreadable_config():
    assert main(["validate", "/nonexistent/path.cfg"]) == 2


@pytest.mark.parametrize("text", [
    "window_len = inf\n", "window_len = 1e300\nslot_len = 1e-300\n",
])
def test_validate_reports_an_overflowing_window_slot_ratio(tmp_path, capsys, text):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text)
    assert main(["validate", str(cfg)]) == 2
    assert capsys.readouterr().out == "window_len: must be a positive multiple of slot_len\n"


def test_run_rejects_an_infinite_window_sweep(tmp_path, capsys):
    assert main(["run", "--tau", "8", "inf", "--out", str(tmp_path / "out")]) == 2
    assert "window_len: must be a positive multiple of slot_len" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_an_infinite_area_is_a_config_error(tmp_path, capsys):
    # an area of inf used to pass validate and crash the run with exit 1
    cfg = tmp_path / "inf.cfg"
    cfg.write_text("area_width = inf\nhorizon_slots = 48\n")
    assert main(["validate", str(cfg)]) == 2
    assert capsys.readouterr().out == "area_width: must be finite (got inf)\n"
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == "invalid config: area_width: must be finite (got inf)\n"
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("text, problem", [
    # Python's float ** raises where * gives inf: building a world used
    # to raise OverflowError from flight_power
    ("uav_speed_max = 1e103\n", "uav_speed_max: the flight power kappa1 * v ** 3 overflows"),
    # the largest valuation is inf: the run used to write inf surplus
    ("mu0 = 1e308\nmu1 = 1e308\nhorizon_slots = 80\nuav_soc_frac_min = 0.1\n"
     "uav_soc_frac_max = 0.3\n", "mu0 + mu1: derived constant must be finite (got inf)"),
    # a finite valuation whose window sum is inf: the run used to write inf surplus
    ("mu0 = 1e308\nmu1 = 0\nhorizon_slots = 80\nuav_soc_frac_min = 0.1\n"
     "uav_soc_frac_max = 0.3\n", "max(slots_per_window, min(uav_count, ugv_count)) * "
     "(mu0 + mu1): derived constant must be finite (got inf)"),
    # a finite window sum whose square is inf: the run used to write inf
    # standard deviations of the utilities and the surplus
    ("mu0 = 1e306\nmu1 = 0\nhorizon_slots = 80\nuav_soc_frac_min = 0.1\n"
     "uav_soc_frac_max = 0.3\n", "2**32 * (max(slots_per_window, min(uav_count, ugv_count)) "
     "* (mu0 + mu1)) ** 2: derived constant must be finite (got inf)"),
    # eps2 ** 2 underflows to 0: building a world used to raise ZeroDivisionError
    ("eps2 = 1e-200\n", "eps2: eps2 * eps2 underflows to 0 in the vertical power"),
    # an inf drain per slot: every descending UAV used to empty at once
    ("uav_descend_speed = 1e200\n", "drain_desc: derived constant must be finite (got inf)"),
    # the kernel's dx * dx overflows on the way to a far vehicle or home:
    # positions used to turn NaN while every CSV stayed finite
    ("ugv_distance_max = 1e308\n", "2 * (task_radius + ugv_distance_max) ** 2: "
     "derived constant must be finite (got inf)"),
    ("task_radius = 1e308\n", "2 * (task_radius + ugv_distance_max) ** 2: "
     "derived constant must be finite (got inf)"),
], ids=["flight-power-overflow", "infinite-valuation", "infinite-window-valuation-sum",
        "infinite-squared-window-sum", "eps2-underflow", "infinite-drain",
        "overflowing-vehicle-leg", "overflowing-home-leg"])
def test_configs_whose_derived_constants_overflow_are_config_errors(tmp_path, capsys, text,
                                                                    problem):
    cfg = tmp_path / "huge.cfg"
    cfg.write_text(text)
    assert main(["validate", str(cfg)]) == 2
    assert capsys.readouterr().out == problem + "\n"
    assert main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")]) == 2
    err = capsys.readouterr().err
    assert err == f"invalid config: {problem}\n" and "Traceback" not in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("field", ["ugv_distance_max", "task_radius"])
def test_geometry_just_inside_the_bound_runs_without_a_warning(field):
    # a leg just short of the bound on 2 * (task_radius + ugv_distance_max)
    # ** 2: under warnings-as-errors the kernel squares every leg without
    # overflow, pairs fly and drive toward far vehicles, and every
    # position stays finite
    reach = 0.99 * math.sqrt(sys.float_info.max / 2.0)
    base = ScenarioConfig(horizon_slots=200, uav_soc_frac_min=0.1, uav_soc_frac_max=0.4)
    other = base.ugv_distance_max if field == "task_radius" else base.task_radius
    cfg = base.replace(**{field: reach - other})
    assert validate(cfg) == []
    world = generate_scenario(cfg, seed=3)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        rows, _, _ = run_world(world)
    assert sum(r.winners for r in rows) > 0
    for name in ("uav_f", "ugv_f"):
        assert np.isfinite(getattr(world, name)).all(), name
    assert validate(cfg.replace(**{field: 2.0 * reach})) == [
        "2 * (task_radius + ugv_distance_max) ** 2: derived constant must be finite (got inf)"]


@pytest.mark.parametrize("text, message", [
    ("uav_count = 10.0\n", "line 1: uav_count needs an integer, got '10.0'"),
    ("seed = 1\nmu0 = abc\n", "line 2: mu0 needs a number, got 'abc'"),
])
def test_validate_names_the_line_and_key_of_a_bad_value(tmp_path, capsys, text, message):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text(text)
    assert main(["validate", str(cfg)]) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_unknown_preset_is_usage_error(tmp_path):
    assert main(["preset", "fig-nonsense", "--out", str(tmp_path)]) == 1


def test_unknown_subcommand_is_usage_error():
    assert main(["frobnicate"]) == 1
    assert main([]) == 1


def test_run_writes_metrics_and_aggregate(tmp_path, capsys):
    cfg_path = tmp_path / "quick.cfg"
    save_config(ScenarioConfig(horizon_slots=24), cfg_path)
    code = main([
        "run", "--config", str(cfg_path), "--reps", "2",
        "--scheme", "all", "--seed", "3", "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    raw = tmp_path / "out" / "metrics_raw.csv"
    agg = tmp_path / "out" / "metrics_aggregate.csv"
    assert raw.exists() and agg.exists()
    lines = raw.read_text().splitlines()
    assert lines[0].startswith("# skymarket")
    assert lines[1].split(",")[:5] == ["scheme", "J", "tau", "seed", "window"]
    assert len(lines) == 2 + 3 * 2 * 3  # provenance + header + schemes*seeds*windows


def test_run_with_audit_writes_reports(tmp_path):
    cfg_path = tmp_path / "quick.cfg"
    save_config(ScenarioConfig(horizon_slots=16), cfg_path)
    code = main([
        "run", "--config", str(cfg_path), "--audit",
        "--seed", "1", "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    audits = (tmp_path / "out" / "audits.csv").read_text().splitlines()
    assert audits[1].startswith("instance,ir_violations")
    assert len(audits) == 2 + 2  # two windows


def test_identical_invocations_byte_identical(tmp_path):
    cfg_path = tmp_path / "quick.cfg"
    save_config(ScenarioConfig(horizon_slots=32), cfg_path)
    for out in ("a", "b"):
        assert main([
            "run", "--config", str(cfg_path), "--reps", "2", "--scheme", "all",
            "--seed", "9", "--out", str(tmp_path / out),
        ]) == 0
    for name in ("metrics_raw.csv", "metrics_aggregate.csv"):
        assert read_bytes(tmp_path / "a" / name) == read_bytes(tmp_path / "b" / name)


def test_metrics_csv_prints_empty_utility_sums_as_int_zero(tmp_path):
    # a utility summed over no agent is written as the int 0, one summed
    # over agents that gained nothing as 0.0; the lazily built rows are
    # exactly what the CSV holds
    import dataclasses

    from skymarket.simulator import run_experiment

    cfg = ScenarioConfig(uav_count=2, ugv_count=2, uav_soc_frac_min=0.3,
                         uav_soc_frac_max=0.9, horizon_slots=48)
    cfg_path = tmp_path / "small.cfg"
    save_config(cfg, cfg_path)
    assert main(["run", "--config", str(cfg_path), "--reps", "2", "--seed", "0",
                 "--out", str(tmp_path / "out")]) == 0
    lines = (tmp_path / "out" / "metrics_raw.csv").read_text().splitlines()
    # no bidder, no vehicle offered: both utilities are empty sums
    assert "ours,2,8.0,0,2,0.0,0,0,0.0,1.0,0" in lines
    # no bidder, an idle vehicle offered: it settles at 0.0
    assert "ours,2,8.0,1,2,0.0,0,0.0,0.0,1.0,0" in lines
    # a cleared market
    assert ("ours,2,8.0,0,1,0.9027144154341075,5.544946863803703,"
            "0.08373412615739559,5.628680989961098,1.0,2") in lines

    res = run_experiment(cfg, {}, replications=2, schemes=("ours",), base_seed=0)
    written = list(res.metrics.tuples())
    rows = [dataclasses.astuple(r) for r in res.rows]
    assert rows == written
    assert [tuple(map(type, r)) for r in rows] == [tuple(map(type, t)) for t in written]
    assert lines[2:] == [",".join(map(str, r)) for r in rows]


# sha256 of each CSV the command below writes, recorded before sweeps
# read `optimal` off the `ours` world; any change to the simulation, the
# mechanism, the audit or the CSV format shows here
PINNED_RUN = ["run", "--scheme", "all", "--ugvs", "6", "10", "--tau", "4", "8",
              "--reps", "2", "--seed", "5", "--audit", "--outcomes"]
PINNED_DIGESTS = {
    "audits.csv": "153535f13595060b5d7174aeb49c4764430c70e00f171ba035aa8aab422876e3",
    "metrics_aggregate.csv": "30a889704fe195184f88c025289a326a8345b989996ca12d13452e2898a165fd",
    "metrics_raw.csv": "29ebcbb5c31f2e493500535037ebd11f6ffaeb8d95bcbfb783a9b682f27e6525",
    "outcomes.csv": "0a64b467c7876c2fab9cfc9d8ab5ecec29ce8745dde3a29d2c6f73957d881038",
}


def assert_trading_windows_envy_free(out):
    # close_window writes the non-envy ratio 1.0 that the paper's theorem
    # gives truthful bids; the audit computes it, and every window with a
    # trade reads 1.0 there too, some of them with bidders who could envy
    audits = list(csv.DictReader((out / "audits.csv").read_text().splitlines()[1:]))
    raw = list(csv.DictReader((out / "metrics_raw.csv").read_text().splitlines()[1:]))
    assert [a["instance"] for a in audits] == [
        f"{r['scheme']}-seed{r['seed']}-w{r['window']}" for r in raw]
    trading = [(a, int(r["winners"])) for a, r in zip(audits, raw) if r["winners"] != "0"]
    assert {a["non_envy_ratio"] for a, _ in trading} == {"1.0"}
    assert max(winners for _, winners in trading) > 1


def test_run_csvs_match_pinned_digests(tmp_path):
    assert main(PINNED_RUN + ["--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.glob("*.csv")}
    assert digests == PINNED_DIGESTS


# acceptance criterion 7's sweep, audited and with outcomes: 1,500 runs,
# 112,500 windows. Recorded before a sweep built each seed's stack once
# and formatted only the windows with a market
CRITERION_7_RUN = ["run", "--ugvs", "6", "8", "10", "12", "14", "--reps", "100",
                   "--scheme", "all", "--audit", "--outcomes", "--seed", "0"]
CRITERION_7_DIGESTS = {
    "audits.csv": "7879758751bb73c42aa1c82bba1639c88b7563db1cb40685e21c9316d298bebe",
    "metrics_aggregate.csv": "9c0f6b95367fde38b13fc9b7a5f5ff42b3a6de4906937d47c9895ad6b6b3912a",
    "metrics_raw.csv": "e18aeaaa3b7bd8dfc912af203196be19cb6c776c67194961ea7a51e48c8d7ed1",
    "outcomes.csv": "dac88084b4d698bc5df4f608d40c0fb3714acf0e087572c2c9af6cf521acf771",
}


def test_criterion_7_csvs_match_pinned_digests(tmp_path):
    assert main(CRITERION_7_RUN + ["--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.glob("*.csv")}
    assert digests == CRITERION_7_DIGESTS


# the contested regime: 100 UAVs from 30-60% charge against 5 or 25
# vehicles, losers leaving after three failed windows. Most windows have
# bidders but no admissible vehicle. Recorded before such windows were
# settled without building a market
CONTESTED_CONFIG = ScenarioConfig(
    uav_count=100, ugv_count=25, uav_soc_frac_min=0.3, uav_soc_frac_max=0.6,
    max_failed_windows=3, horizon_slots=240,
)
CONTESTED_DIGESTS = {
    "audits.csv": "9606c2edaf091638fd1cadf59c2f8146702bc2f3060804ea33020012d333e72a",
    "metrics_aggregate.csv": "a57d99bc389d739e5ac09b19f1b3b9f9e5fba5629c2bfae4afe474b2957687d5",
    "metrics_raw.csv": "ab878e6633178525dc5e317ad39975d2ee538255e6420de109b66df438208723",
    "outcomes.csv": "25c6f89ce0c47d14883bdc51d776d721285182790e0d5a04023766442668bdef",
}


def test_contested_run_csvs_match_pinned_digests(tmp_path):
    cfg_path = tmp_path / "contested.cfg"
    save_config(CONTESTED_CONFIG, cfg_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--scheme", "all", "--ugvs", "5", "25",
                 "--reps", "2", "--seed", "5", "--audit", "--outcomes",
                 "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.glob("*.csv")}
    assert digests == CONTESTED_DIGESTS
    assert_trading_windows_envy_free(out)


def test_contested_outcomes_are_what_csv_writer_writes(tmp_path):
    # every outcome of the contested command equals its world's run alone,
    # where each window with no trade is held to the no_trade_outcome
    # oracle; the outcomes.csv, metrics_raw.csv and audits.csv text the
    # CLI writes is what csv.writer writes for the tuple rows. The command
    # has UAV ids up to 99, windows with no bidder, and utilities of both
    # the int 0 and 0.0
    result = run_experiment(CONTESTED_CONFIG, {"ugv_count": [5, 25]}, replications=2,
                            schemes=ALL_SCHEMES, base_seed=5, with_audit=True,
                            keep_outcomes=True)
    alone = []
    for m in (5, 25):
        for seed in (5, 6):
            by_kind = {kind: run_world_windowwise(
                generate_scenario(CONTESTED_CONFIG.replace(ugv_count=m), seed, kind),
                CONTESTED_CONFIG.horizon_slots, keep_outcomes=True)[1]
                for kind in ("ours", "static")}
            alone += [(s, seed, o) for s in ALL_SCHEMES
                      for o in by_kind["static" if s == "static" else "ours"]]
    assert repr(result.outcomes) == repr(alone)
    kinds, rows = set(), []
    for scheme, seed, outcome in result.outcomes:
        oracle = outcome_rows(outcome)
        assert "".join(outcome_lines(outcome)) == csv_writer_text(oracle)
        kinds.add((scheme, bool(outcome.winners), bool(outcome.losers)))
        rows += [(scheme, seed) + r for r in oracle]
    # per scheme: windows with a trade, bidders with no trade, no bidder
    assert kinds >= {(s, w, l) for s in ALL_SCHEMES for w, l in
                     [(True, True), (False, True), (False, False)]}
    assert max(r[3] for r in rows) >= 10
    metrics = list(result.metrics.tuples())
    utilities = [u for t in metrics for u in t[6:8]]
    assert {(type(u), u) for u in utilities} >= {(int, 0), (float, 0.0)}

    cfg_path = tmp_path / "contested.cfg"
    save_config(CONTESTED_CONFIG, cfg_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--scheme", "all", "--ugvs", "5", "25",
                 "--reps", "2", "--seed", "5", "--audit", "--outcomes",
                 "--out", str(out)]) == 0
    for name, header, want in [
        ("outcomes.csv", ("scheme", "seed") + OUTCOME_CSV_HEADER, rows),
        ("metrics_raw.csv", METRICS_CSV_HEADER, metrics),
        ("audits.csv", AUDIT_CSV_HEADER, result.metrics.audit_tuples()),
    ]:
        provenance, text = (out / name).read_text(encoding="utf-8").split("\n", 1)
        assert provenance.startswith("# skymarket ")
        assert text == csv_writer_text([header, *want]), name


def test_contested_audit_rows_come_from_the_columns():
    # audits.csv is written from the audit fields kept in the columns;
    # they are the rows of the audit reports built from them, field types
    # included, over windows with a trade, with bidders and no trade, and
    # with no bidder, under every scheme
    sweep = {"ugv_count": [5, 25]}
    result = run_experiment(CONTESTED_CONFIG, sweep, replications=2, schemes=ALL_SCHEMES,
                            base_seed=5, with_audit=True, keep_outcomes=True)
    tuples = list(result.metrics.audit_tuples())
    reports = [audit_report_row(r) for r in result.audits]
    assert tuples == reports
    assert [tuple(map(type, t)) for t in tuples] == [tuple(map(type, r)) for r in reports]
    assert {tuple(map(type, t)) for t in tuples} == {(str, int, int, float, float, float, int)}
    rows = result.rows
    assert [t[0] for t in tuples] == [f"{r.scheme}-seed{r.seed}-w{r.window}" for r in rows]
    assert [(s, seed, o.window_id) for s, seed, o in result.outcomes] == [
        (r.scheme, r.seed, r.window) for r in rows]
    kinds = {(s, bool(o.winners), bool(o.uav_utilities)) for s, _, o in result.outcomes}
    assert kinds == {(s, w, b) for s in ALL_SCHEMES
                     for w, b in [(True, True), (False, True), (False, False)]}

    plain = run_experiment(CONTESTED_CONFIG, sweep, replications=1, schemes=ALL_SCHEMES,
                           base_seed=5)
    assert plain.audits == plain.outcomes == []
    assert list(plain.metrics.audit_tuples()) == []


# UAVs that start at 0-30% charge, 2 s slots in 8 s windows and losers
# leaving after two failed windows, against 1, 4 or 9 mobile vehicles or
# static pads. Recorded before close_window and the stack shared one
# settlement of losers
LOW_SOC_CONFIG = ScenarioConfig(
    slot_len=2.0, window_len=8.0, max_failed_windows=2,
    uav_soc_frac_min=0.0, uav_soc_frac_max=0.3,
)
LOW_SOC_DIGESTS = {
    "audits.csv": "1647cc9088752ab3124fde2cb80284beb3c5d3054367b06873f99c4566a3aa86",
    "metrics_aggregate.csv": "7faa1ebd4d40e04a68392f4d8bcd65a60b02d9a7223b32db613d501a756d0909",
    "metrics_raw.csv": "9947cfdee5ed5ed7e8104d018f5cb242ddea181116abc79b6f00b3042b7d44a7",
    "outcomes.csv": "d682bed7ac42a2c74d5272e30d485dc7aae27c7744da86a1595915da686ee2ee",
}


# sha256 of the CSV each audit command writes, recorded while the audit
# still priced each bidder's misreports on its own. The 2,500-market
# suite was recorded while the suite still audited market objects: its
# sizes of 1-30 fill several size chunks, over three 1,000-market batches
AUDIT_DIGESTS = [
    pytest.param(["audit", "--instances", "200", "--max-size", "8", "--seed", "7"],
                 "audit-suite.csv",
                 "d35e065d325ae925df97c0614a496d2f6ea93609efd2d0197fe71e03857e6642",
                 id="audit-suite.csv"),
    pytest.param(["audit", "--instances", "2500", "--max-size", "30", "--seed", "11"],
                 "audit-suite.csv",
                 "652aae4d4306a83ca1934e33197326bfecbf30a2e4db0ccc1db05653277ecf9d",
                 id="audit-suite.csv-2500x30"),
    pytest.param(["preset", "table-truthful", "--reps", "20", "--seed", "7"],
                 "table-truthful.csv",
                 "dba7c351fa6d0de6d528bf77ebe0b8dbe3d251272ac9a6acaad9442c9f867697",
                 id="table-truthful.csv"),
    pytest.param(["preset", "table-envy", "--reps", "20", "--seed", "7"], "table-envy.csv",
                 "e287865c8fe8586073c14f10131be02541ac7a910f9d692dafc67f09457a92d8",
                 id="table-envy.csv"),
]


@pytest.mark.parametrize("argv, name, digest", AUDIT_DIGESTS)
def test_audit_csvs_match_pinned_digests(tmp_path, argv, name, digest):
    assert main(argv + ["--out", str(tmp_path)]) == 0
    assert [p.name for p in tmp_path.glob("*.csv")] == [name]
    assert hashlib.sha256((tmp_path / name).read_bytes()).hexdigest() == digest


# sha256 of both CSVs each fig preset writes at `--reps 2 --seed 3`,
# recorded while the aggregates still went through csv.writer
FIG_DIGESTS = {
    "fig-satisfaction": ("14e1ebb335d58f05702750dfd8056b4692f9850aa98522d46e68faa510576326",
                         "38fdf3eed3a58e68f91de961047f3617da997232808850a626a1376d829beac5"),
    "fig-utility": ("81f96db789d988abdf84ad28ce7a531e25a4be2aa849dbf453983ddbc5b88b78",
                    "6ebb8b558c0ce646c895498ab4efa0e73b5c9373dd4ff1914cb2cdad422b5d68"),
    "fig-surplus": ("d36a2a6995603517910a05af3f3e036b719d5f49033bee7c7ffcfd7a02cb3879",
                    "8badd10da5e12af9d38f3b72c3297f0324864e253988af3498d3891c19725800"),
    "fig-window": ("8fac7ee093ce0c39e2cf1865a3b140194708f1a971bacce379c0269032f16763",
                   "e3cb7932e2ba9f0ed2c8f8be1faa4c92fecb90f4dce9d47e2f8c2f2c26b82b11"),
}


@pytest.mark.parametrize("name", FIG_DIGESTS)
def test_fig_preset_csvs_match_pinned_digests(tmp_path, name):
    assert main(["preset", name, "--reps", "2", "--seed", "3", "--out", str(tmp_path)]) == 0
    raw, aggregate = FIG_DIGESTS[name]
    assert {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
            for p in tmp_path.glob("*.csv")} == {f"{name}_raw.csv": raw,
                                                 f"{name}_aggregate.csv": aggregate}


def test_neither_the_audit_command_nor_an_audited_run_builds_a_market(tmp_path, monkeypatch):
    # the audit suite draws its markets as arrays, and an audited trade
    # keeps its ranked bids and vehicles' q; both are audited by the flat
    # entry, so no WindowMarket is built on either path
    built = []
    real = WindowMarket.__post_init__

    def counted(market):
        built.append(market)
        real(market)

    monkeypatch.setattr(WindowMarket, "__post_init__", counted)
    random_market(np.random.default_rng(0), 2, 2)
    assert len(built) == 1  # the counter sees a market that is built
    built.clear()
    assert main(["audit", "--instances", "50", "--max-size", "8", "--seed", "3",
                 "--out", str(tmp_path / "audit")]) == 0
    assert main(["run", "--ugvs", "6", "14", "--reps", "2", "--scheme", "all", "--audit",
                 "--seed", "5", "--out", str(tmp_path / "run")]) == 0
    assert built == []
    raw = list(csv.DictReader((tmp_path / "run" / "metrics_raw.csv").read_text()
                              .splitlines()[1:]))
    assert sum(int(r["winners"]) > 0 for r in raw) > 10  # trades were audited
    assert not hasattr(simulator, "_market")


def test_low_soc_run_csvs_match_pinned_digests(tmp_path):
    cfg_path = tmp_path / "low_soc.cfg"
    save_config(LOW_SOC_CONFIG, cfg_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--ugvs", "1", "4", "9",
                 "--scheme", "all", "--outcomes", "--audit", "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.glob("*.csv")}
    assert digests == LOW_SOC_DIGESTS
    assert_trading_windows_envy_free(out)


# the low-SoC windows with UAVs from 10-60% charge: at seed 0 two UAVs
# start below the alert level and bid φ̄ = μ0 + μ1 alike, at seed 1 one
# does, so the run's one audit chunk holds tied and well-spread markets.
# Recorded before the audit read the best gain of a market with regular
# bids off its rank table
MIXED_SOC_CONFIG = LOW_SOC_CONFIG.replace(uav_soc_frac_min=0.1, uav_soc_frac_max=0.6)
MIXED_SOC_DIGESTS = {
    "audits.csv": "b11130e9b1543ccb93019a9d9495fe1bb424a9ea022c7b6ffbe9dcf29744a2b2",
    "metrics_aggregate.csv": "521b5214f534eff7afc2dd7df56526152c7ddc837536afe8eb967c415d0b5bb3",
    "metrics_raw.csv": "a0a4064b43b44b04b1213f9955476429d00bcaecb07593de3833a8565a1fe1f0",
    "outcomes.csv": "f876a80859cf1b2f6c0c28cc1387b12749e50c86007612b66142dc531a7fa596",
}


def test_mixed_soc_run_csvs_match_pinned_digests(tmp_path, monkeypatch):
    # per audit chunk, its markets and those of them that price their grids
    chunks = []
    audit_chunk, grid_best = audit._audit_chunk, audit._grid_best

    def chunk(n, *padded):
        chunks.append([len(n), 0])
        return audit_chunk(n, *padded)

    def grid(gain, n, *ranked):
        chunks[-1][1] += len(n)
        return grid_best(gain, n, *ranked)

    monkeypatch.setattr(audit, "_audit_chunk", chunk)
    monkeypatch.setattr(audit, "_grid_best", grid)
    cfg_path = tmp_path / "mixed_soc.cfg"
    save_config(MIXED_SOC_CONFIG, cfg_path)
    out = tmp_path / "out"
    assert main(["run", "--config", str(cfg_path), "--ugvs", "1", "4", "9", "--reps", "2",
                 "--scheme", "all", "--outcomes", "--audit", "--out", str(out)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in out.glob("*.csv")}
    assert digests == MIXED_SOC_DIGESTS
    assert chunks == [[12, 6]]


@pytest.mark.parametrize("args, problem", [
    (["--ugvs", "6", "0"], "ugv_count: must be >= 1"),
    (["--tau", "4", "3.5"], "window_len: must be a positive multiple of slot_len"),
])
def test_run_rejects_an_invalid_sweep_cell(tmp_path, capsys, args, problem):
    assert main(["run", "--out", str(tmp_path)] + args) == 2
    err = capsys.readouterr().err
    assert f"invalid config: {problem}" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


def test_run_validates_each_cell_once(tmp_path, monkeypatch):
    # on success the CLI checks its config once and run_experiment each
    # cell once; the CLI rebuilds the cells only to report a failed check
    calls = []

    def spy(module, name):
        real = getattr(module, name)

        def wrapper(*args):
            calls.append((module.__name__, name))
            return real(*args)
        monkeypatch.setattr(module, name, wrapper)

    for module in (cli, simulator):
        spy(module, "validate")
        spy(module, "sweep_cells")
    assert main(["run", "--ugvs", "6", "8", "10", "--tau", "4", "8", "--scheme", "all",
                 "--out", str(tmp_path)]) == 0
    assert sorted(calls) == sorted([("skymarket.cli", "validate")]
                                   + [("skymarket.simulator", "sweep_cells")]
                                   + [("skymarket.simulator", "validate")] * 6)


@pytest.mark.parametrize("args, field, value", [
    (["--ugvs", "6", "6"], "ugv_count", 6),
    (["--tau", "8", "8.0"], "window_len", 8.0),
    (["--ugvs", "6", "8", "6", "0"], "ugv_count", 6),
])
def test_run_rejects_a_sweep_that_repeats_a_value(tmp_path, capsys, args, field, value):
    # a repeated value would simulate its cells twice and aggregate the
    # duplicate rows as one group; it is a usage error, reported before
    # any cell is validated or simulated
    message = f"{field}: the sweep repeats {value!r}"
    assert main(["run", "--out", str(tmp_path)] + args) == 1
    err = capsys.readouterr().err
    assert message in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []
    with pytest.raises(ValueError, match=re.escape(message)):
        run_experiment(ScenarioConfig(horizon_slots=8), {field: [value, value]},
                       replications=1)


@pytest.mark.parametrize("argv", [
    ["run", "--seed", "-3"],
    ["preset", "fig-surplus", "--seed", "-1"],
    ["audit", "--seed", "-2"],
    ["run", "--reps", "-2"],
    ["run", "--reps", "0"],
    ["preset", "table-envy", "--reps", "-1"],
    ["preset", "audit-suite", "--instances", "0"],
    ["audit", "--instances", "-1"],
])
def test_negative_seed_is_usage_error(tmp_path, capsys, argv):
    # a negative seed, or a count below one, exits 1 before writing anything
    option, value = argv[-2:]
    low = 0 if option == "--seed" else 1
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert f"{option}: must be >= {low} (got {value})" in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, problem", [
    (["preset", "table-envy", "--reps", "2", "--instances", "7"],
     "preset table-envy takes --reps, not --instances"),
    (["preset", "fig-window", "--instances", "3"],
     "preset fig-window takes --reps, not --instances"),
    (["preset", "audit-suite", "--reps", "3", "--instances", "4"],
     "preset audit-suite takes --instances, not --reps"),
])
def test_preset_rejects_a_count_it_does_not_take(tmp_path, capsys, argv, problem):
    # the count a preset does not take is a usage error, not dropped
    assert main(argv + ["--out", str(tmp_path)]) == 1
    assert problem in capsys.readouterr().err
    assert list(tmp_path.iterdir()) == []


def test_run_preset_rejects_a_count_it_does_not_take(tmp_path):
    from skymarket.presets import run_preset

    with pytest.raises(ValueError, match="takes --instances, not --reps"):
        run_preset("audit-suite", ScenarioConfig(), 0, tmp_path, reps=2)
    assert list(tmp_path.iterdir()) == []
    assert main(["preset", "audit-suite", "--instances", "4", "--out", str(tmp_path)]) == 0
    lines = (tmp_path / "audit-suite.csv").read_text().splitlines()
    assert len(lines) == 2 + 4


def test_audit_rejects_zero_max_size(tmp_path, capsys):
    assert main(["audit", "--max-size", "0", "--out", str(tmp_path)]) == 1
    assert "--max-size: must be >= 1" in capsys.readouterr().err
    assert main(["audit", "--max-size", "1", "--instances", "3", "--out", str(tmp_path)]) == 0


def test_preset_table_envy_runs_small(tmp_path):
    assert main([
        "preset", "table-envy", "--reps", "5", "--seed", "0",
        "--out", str(tmp_path),
    ]) == 0
    lines = (tmp_path / "table-envy.csv").read_text().splitlines()
    # provenance + header + 2 sizes x 5 instances x 2 schemes
    assert len(lines) == 2 + 20
    for line in lines[2:]:
        assert line.split(",")[3] == "1.0"  # non-envy everywhere under truth


def test_preset_table_truthful_runs_small(tmp_path):
    assert main([
        "preset", "table-truthful", "--reps", "4", "--seed", "2",
        "--out", str(tmp_path),
    ]) == 0
    lines = (tmp_path / "table-truthful.csv").read_text().splitlines()
    assert len(lines) == 2 + 8  # 2 sizes x 4 instances
    for line in lines[2:]:
        parts = line.split(",")
        assert float(parts[3]) >= float(parts[4]) - 1e-9  # truthful wins


def test_audit_subcommand_zero_violations(tmp_path):
    assert main([
        "audit", "--instances", "40", "--seed", "1", "--out", str(tmp_path),
    ]) == 0
    lines = (tmp_path / "audit-suite.csv").read_text().splitlines()
    assert len(lines) == 2 + 40
    for line in lines[2:]:
        parts = line.split(",")
        assert parts[1] == "0" and parts[2] == "0" and parts[6] == "0"


def test_run_outcomes_dump(tmp_path):
    cfg_path = tmp_path / "quick.cfg"
    save_config(ScenarioConfig(horizon_slots=8, uav_soc_frac_max=0.55), cfg_path)
    code = main([
        "run", "--config", str(cfg_path), "--outcomes",
        "--seed", "4", "--out", str(tmp_path / "out"),
    ])
    assert code == 0
    lines = (tmp_path / "out" / "outcomes.csv").read_text().splitlines()
    assert lines[1] == "scheme,seed,window_id,uav_id,ugv_id,bid,q,payment,utility,rank"
    assert len(lines) > 2  # winners and losers listed per window


def test_out_dir_env_default(tmp_path, monkeypatch):
    monkeypatch.setenv("SKYMARKET_OUT", str(tmp_path / "envout"))
    cfg_path = tmp_path / "quick.cfg"
    save_config(ScenarioConfig(horizon_slots=8), cfg_path)
    assert main(["run", "--config", str(cfg_path)]) == 0
    assert (tmp_path / "envout" / "metrics_raw.csv").exists()


def test_one_parser_serves_many_calls_in_a_process(tmp_path, monkeypatch, capsys):
    # main builds its parser once per process, reads SKYMARKET_OUT on
    # each call, and a usage error leaves nothing behind for the next call
    audit = ["audit", "--instances", "3", "--max-size", "2"]
    for name in ("first", "second"):
        monkeypatch.setenv("SKYMARKET_OUT", str(tmp_path / name))
        assert main(audit) == 0
        assert capsys.readouterr().out == f"{tmp_path / name / 'audit-suite.csv'}\n"
    assert build_parser() is build_parser()
    for argv in (["run", "--reps", "0"], audit + ["--out", str(tmp_path / "third")],
                 ["--version"]):
        code = main(argv)
        out, err = capsys.readouterr()
        fresh = run_cli_process(*argv)
        assert (code, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr), argv
    assert code == 0 and out.startswith("skymarket ")


def test_every_name_the_benchmark_hooks_resolves():
    # perfbench/tracer.py wraps these names by string during a traced
    # benchmark run; a refactor that drops one must fail here, not there
    import importlib.util
    import pathlib

    import skymarket._kernels

    path = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"
    spec = importlib.util.spec_from_file_location("perfbench_tracer", path)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert len(tracer.HOOKS) >= 20
    for target, _, _ in tracer.HOOKS:
        owner, attr = tracer._resolve(target)
        assert callable(getattr(owner, attr)), target
    assert skymarket._kernels.active_backend() == "numpy"


# every command that writes CSVs, at small counts: what the tracer's
# hooks on cli.write_csv and presets.write_csv see
WRITING_COMMANDS = [
    ["run", "--scheme", "all", "--ugvs", "6", "10", "--reps", "2", "--audit", "--outcomes"],
    ["audit", "--instances", "50"],
    *(["preset", name, f"--{PRESETS[name].count}", "2"] for name in sorted(PRESETS)),
]


@pytest.mark.parametrize("argv", WRITING_COMMANDS, ids=lambda argv: "-".join(argv[:2]))
def test_each_printed_file_is_written_by_one_write_csv_call(tmp_path, monkeypatch, capsys,
                                                            argv):
    # a call passes its rows as an iterable of text chunks, each of whole
    # lines; a bare str would be written one character at a time
    calls = []

    def spy(write):
        def wrapper(path, header, chunks, provenance):
            bare = isinstance(chunks, str)
            chunks = list(chunks)
            calls.append(Path(path))
            assert not bare and all(isinstance(c, str) and c[-1:] in ("", "\n") for c in chunks)
            return write(path, header, chunks, provenance)
        return wrapper

    for module in (cli, presets):
        monkeypatch.setattr(module, "write_csv", spy(module.write_csv))
    assert main(argv + ["--seed", "3", "--out", str(tmp_path)]) == 0
    printed = [Path(line) for line in capsys.readouterr().out.splitlines()]
    assert len(set(printed)) == len(printed) > 0
    assert sorted(calls) == sorted(printed) == sorted(tmp_path.glob("*.csv"))


def test_outputs_benchmark_script_runs():
    # a short smoke run, so the script tracks the CLI's writers
    out = run_benchmark_script("bench_outputs.py", "--repeats", "1", "--horizon-slots", "16")
    assert out.returncode == 0, out.stderr
    for name in ("metrics_raw.csv", "metrics_aggregate.csv", "audits.csv", "outcomes.csv"):
        assert name in out.stdout
    assert out.stdout.count("criterion 7: run --ugvs") == 2
    assert out.stdout.count("100 UAVs vs 25 vehicles") == 2
    assert "run --scheme all --outcomes, 100 UAVs" in out.stdout
    titles = [line for line in out.stdout.splitlines() if line.startswith("set-up of")]
    assert titles == ["set-up of fleet_sweep's sweep (seed 7), 10 worlds, best of 1:",
                      "set-up of criterion 7's sweep (seeds 7-106), 1000 worlds, best of 1:"]
    for part in ("_checked", "draw_agents", "_build_stack", "_layout", "set-up"):
        assert out.stdout.count(f"  {part} ") == 2, part


def test_audit_benchmark_script_runs():
    # a short smoke run, so the script tracks the batch, its scalar
    # baseline, the suite's draw, a whole in-process audit call and the
    # markets whose tied bids price their deviation grids
    out = run_benchmark_script("bench_audit.py", "--repeats", "1")
    assert out.returncode == 0, out.stderr
    lines = out.stdout.splitlines()
    titles = [line for line in lines if not line.startswith(" ")]
    assert titles == [
        "audit_suite mix (CLI seed 7000, 1-8 per side), 100 markets, best of 1:",
        "20x20, 20 markets, best of 1:",
        "73x25, 20 markets, best of 1:",
        "8x8 tied bids (levels 1.0, 2.5, 6.0), 100 markets, best of 1:",
    ]
    parts = [line.split()[0] for line in lines if line.startswith(" ")]
    audit = ["_audit_arrays", "audit_markets", "scalar"]
    assert parts == ["audit_suite_batches", *audit, "cli.main"] + audit * 3
    assert all(line.split()[2:4] == ["ms", "per"] for line in lines if line.startswith(" "))
