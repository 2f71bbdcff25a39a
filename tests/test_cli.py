"""End-to-end CLI behavior: exit codes, output files, reproducibility."""

import hashlib

import pytest

from skymarket.cli import main
from skymarket.types import ScenarioConfig, save_config


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


def test_run_csvs_match_pinned_digests(tmp_path):
    assert main(PINNED_RUN + ["--out", str(tmp_path)]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in tmp_path.glob("*.csv")}
    assert digests == PINNED_DIGESTS


@pytest.mark.parametrize("args, problem", [
    (["--ugvs", "6", "0"], "ugv_count: must be >= 1"),
    (["--tau", "4", "3.5"], "window_len: must be a positive multiple of slot_len"),
])
def test_run_rejects_an_invalid_sweep_cell(tmp_path, capsys, args, problem):
    assert main(["run", "--out", str(tmp_path)] + args) == 2
    err = capsys.readouterr().err
    assert f"invalid config: {problem}" in err and "Traceback" not in err
    assert list(tmp_path.iterdir()) == []


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
