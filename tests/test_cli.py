"""End-to-end CLI behavior: exit codes, output files, reproducibility."""

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
    assert skymarket._kernels.active_backend() in ("numba", "numpy")
