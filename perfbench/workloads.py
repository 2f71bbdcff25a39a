"""The benchmark's workloads: the CLI call each one makes and its output checks.

Every workload is one ``skymarket`` command run through ``skymarket.cli.main``.
``check`` reads what the command wrote and counts the units of work it
attempted and the ones that failed: simulated runs for ``run`` workloads,
audited markets for ``audit_suite``.
"""

from __future__ import annotations

import csv
import hashlib
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path

# 100 UAVs starting at 30-60% charge against 25 vehicles: about 73 bidders
# meet mostly-busy vehicles in every window.
CROWDED_CONFIG = """\
uav_count = 100
ugv_count = 25
uav_soc_frac_min = 0.3
uav_soc_frac_max = 0.6
"""


@dataclass
class CallCheck:
    """What one CLI call produced, as judged from its outputs."""

    attempted: int
    failed: int
    runs: int  # worlds simulated to the horizon (0 for audits)
    markets: int  # windows cleared or markets audited
    digests: dict = field(default_factory=dict)  # CSV name -> sha256
    problems: list = field(default_factory=list)


def _read_rows(path: Path) -> list[dict]:
    """Rows of a CSV written by ``reporting.write_csv`` (provenance line skipped)."""
    with open(path, encoding="utf-8", newline="") as fh:
        first = fh.readline()
        if not first.startswith("#"):
            raise ValueError(f"{path.name}: missing provenance line")
        return list(csv.DictReader(fh))


def _digests(out: Path) -> dict:
    return {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in sorted(out.glob("*.csv"))}


class SweepWorkload:
    """``skymarket run --scheme all`` (one seed) over a config, optionally swept over fleet sizes."""

    kind = "sim"

    def __init__(self, name, config_text=None, ugvs=(), outcomes=False):
        self.name = name
        self.config_text = config_text
        self.ugvs = tuple(ugvs)
        self.outcomes = outcomes
        self.config_path = None

    def prepare(self, work: Path):
        from skymarket.simulator import ALL_SCHEMES
        from skymarket.types import ScenarioConfig, load_config

        if self.config_text is not None:
            self.config_path = work / f"{self.name}.cfg"
            self.config_path.write_text(self.config_text, encoding="utf-8")
            config = load_config(self.config_path)
        else:
            config = ScenarioConfig()
        self.schemes = ALL_SCHEMES
        self.ugv_counts = self.ugvs or (config.ugv_count,)
        self.tau = config.window_len
        self.windows_per_run = config.horizon_slots // config.slots_per_window

    def argv(self, seed: int, out: Path) -> list[str]:
        argv = ["run", "--scheme", "all", "--seed", str(seed), "--out", str(out)]
        if self.config_path is not None:
            argv += ["--config", str(self.config_path)]
        if self.ugvs:
            argv += ["--ugvs", *map(str, self.ugvs)]
        if self.outcomes:
            argv.append("--outcomes")
        return argv

    def check(self, out: Path, seed: int, exit_code) -> CallCheck:
        runs = [(scheme, j, self.tau, seed) for j in self.ugv_counts for scheme in self.schemes]
        res = CallCheck(attempted=len(runs), failed=len(runs), runs=len(runs),
                        markets=len(runs) * self.windows_per_run)
        if exit_code != 0:
            res.problems.append(f"exit code {exit_code}")
            return res
        res.digests = _digests(out)
        rows = _read_rows(out / "metrics_raw.csv")
        per_run = Counter((r["scheme"], int(r["J"]), float(r["tau"]), int(r["seed"])) for r in rows)
        errored = set()
        if (out / "errors.csv").exists():
            errored = {(r["scheme"], int(r["J"]), float(r["tau"]), int(r["seed"]))
                       for r in _read_rows(out / "errors.csv")}
            res.problems.append(f"{len(errored)} run(s) in errors.csv")
        res.failed = sum(1 for k in runs if per_run[k] != self.windows_per_run or k in errored)
        expected_rows = len(runs) * self.windows_per_run
        if len(rows) != expected_rows:
            res.problems.append(f"metrics_raw.csv has {len(rows)} rows, expected {expected_rows}")
        if self.outcomes and "outcomes.csv" not in res.digests:
            res.problems.append("outcomes.csv missing")
        return res


class AuditWorkload:
    """``skymarket audit`` over random truthful markets of 1..max_size per side."""

    kind = "audit"

    def __init__(self, name, instances, max_size):
        self.name = name
        self.instances = instances
        self.max_size = max_size
        self.config_path = None

    def prepare(self, work: Path):
        pass

    def argv(self, seed: int, out: Path) -> list[str]:
        return ["audit", "--instances", str(self.instances), "--max-size", str(self.max_size),
                "--seed", str(seed), "--out", str(out)]

    def check(self, out: Path, seed: int, exit_code) -> CallCheck:
        res = CallCheck(attempted=self.instances, failed=self.instances, runs=0,
                        markets=self.instances)
        if exit_code != 0:
            res.problems.append(f"exit code {exit_code}")
            return res
        res.digests = _digests(out)
        rows = _read_rows(out / "audit-suite.csv")
        dirty = sum(
            1 for r in rows
            if int(r["ir_violations"]) or int(r["ic_violations"]) or int(r["blocking_pairs"])
        )
        res.failed = dirty + max(0, self.instances - len(rows))
        if len(rows) != self.instances:
            res.problems.append(f"audit-suite.csv has {len(rows)} rows, expected {self.instances}")
        return res


WORKLOADS = {
    w.name: w
    for w in (
        SweepWorkload("fleet_sweep", ugvs=(6, 8, 10, 12, 14)),
        SweepWorkload("crowded_market", config_text=CROWDED_CONFIG, outcomes=True),
        AuditWorkload("audit_suite", instances=100, max_size=8),
    )
}
