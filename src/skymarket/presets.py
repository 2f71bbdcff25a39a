"""Canned experiment designs reproducing the reference figures and tables.

Each preset pins a parameter grid (fleet-size sweeps at 10 UAVs, the
window-length sweep, the truthful-vs-untruthful and non-envy tables, and
a bulk audit suite) and writes CSVs into the chosen output directory.
Replication counts can be overridden for quick runs; the grids
themselves are fixed.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from .audit import (
    AUDIT_CSV_HEADER,
    _misreport_utilities,
    audit_markets,
    audit_report_row,
    deviation_grid,
    non_envy_ratio,
    random_market,
)
# no caller here; kept importable because the benchmark's tracer hooks this name
from .audit import audit_market
from .mechanism import run_auction
from .metrics import AGGREGATE_CSV_HEADER, METRICS_CSV_HEADER, aggregate_tuple
from .reporting import provenance_line, write_csv, write_csv_text
from .simulator import (
    ALL_SCHEMES,
    SCHEME_OURS,
    run_experiment,
)
from .types import ScenarioConfig

FIG_UGV_SWEEP = (6, 8, 10, 12, 14)
FIG_WINDOW_TAUS = (4.0, 8.0, 16.0)
FIG_WINDOW_UGVS = (6, 10, 14)
TABLE_SIZES = ((5, 5), (20, 20))
DEFAULT_REPS = 100
DEFAULT_AUDIT_INSTANCES = 1000


@dataclass(frozen=True)
class Preset:
    name: str
    description: str
    runner: Callable
    count: str = "reps"  # the count the runner takes: "reps" or "instances"


def _run_fig_sweep(
    name: str,
    config: ScenarioConfig,
    sweep: Mapping[str, Sequence],
    schemes: Sequence[str],
    seed: int,
    out_dir: Path,
    reps: int,
) -> list[Path]:
    result = run_experiment(config, sweep, replications=reps, schemes=schemes, base_seed=seed)
    prov = provenance_line(seed, config, note=f"preset={name} reps={reps}")
    raw = write_csv_text(
        out_dir / f"{name}_raw.csv",
        METRICS_CSV_HEADER,
        result.metrics.text(),
        prov,
    )
    agg = write_csv(
        out_dir / f"{name}_aggregate.csv",
        AGGREGATE_CSV_HEADER,
        map(aggregate_tuple, result.aggregates),
        prov,
    )
    return [raw, agg]


def run_fig_fleet(config, seed, out_dir, reps=DEFAULT_REPS, *, name, **_):
    """Fleet-size sweep behind the satisfaction, utility and surplus
    figures; ``name`` is the preset's, and prefixes its CSVs."""
    return _run_fig_sweep(
        name, config, {"ugv_count": list(FIG_UGV_SWEEP)},
        ALL_SCHEMES, seed, out_dir, reps,
    )


def run_fig_window(config, seed, out_dir, reps=DEFAULT_REPS, **_):
    return _run_fig_sweep(
        "fig-window", config,
        {"window_len": list(FIG_WINDOW_TAUS), "ugv_count": list(FIG_WINDOW_UGVS)},
        (SCHEME_OURS,), seed, out_dir, reps,
    )


def run_table_truthful(config, seed, out_dir, reps=DEFAULT_REPS, **_):
    """Truthful utility vs best misreport for one random UAV per instance."""
    rows = []
    for n_uavs, n_ugvs in TABLE_SIZES:
        for k in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence([seed, n_uavs, n_ugvs, k]))
            market = random_market(rng, n_uavs, n_ugvs, mu0=config.mu0, mu1=config.mu1,
                                   q_floor=config.qors_floor)
            uav_id = int(rng.integers(0, n_uavs))
            truthful = run_auction(market).uav_utilities[uav_id]
            best_untruthful = -np.inf
            truthful_bid = next(e.bid for e in market.demand if e.uav_id == uav_id)
            misreports = [b for b in deviation_grid(market, uav_id) if b != truthful_bid]
            for u in _misreport_utilities(market, uav_id, misreports):
                best_untruthful = max(best_untruthful, u)
            rows.append(
                (f"{n_uavs}x{n_ugvs}", k, uav_id, truthful, best_untruthful)
            )
    prov = provenance_line(seed, config, note=f"preset=table-truthful instances={reps}")
    return [
        write_csv(
            out_dir / "table-truthful.csv",
            ("size", "instance", "uav_id", "truthful_utility", "best_untruthful_utility"),
            rows,
            prov,
        )
    ]


def run_table_envy(config, seed, out_dir, reps=DEFAULT_REPS, **_):
    """Non-envy ratios, auction vs welfare-optimal matcher, both sizes.

    The markets are truthful, so the planner's outcome is the auction's
    own (``optimal_scheme_outcome``); the ``optimal`` rows repeat the
    ``ours`` statistics instead of clearing each market twice.
    """
    rows = []
    for n_uavs, n_ugvs in TABLE_SIZES:
        size = f"{n_uavs}x{n_ugvs}"
        for k in range(reps):
            rng = np.random.default_rng(np.random.SeedSequence([seed, n_uavs, n_ugvs, k]))
            market = random_market(rng, n_uavs, n_ugvs, mu0=config.mu0, mu1=config.mu1,
                                   q_floor=config.qors_floor)
            phi = {e.uav_id: e.phi_bar for e in market.demand}
            stats = non_envy_ratio(run_auction(market), phi)
            for scheme in ("ours", "optimal"):
                rows.append((size, k, scheme, stats.all_participants, stats.winners_only))
    prov = provenance_line(seed, config, note=f"preset=table-envy instances={reps}")
    return [
        write_csv(
            out_dir / "table-envy.csv",
            ("size", "instance", "scheme", "non_envy_ratio", "non_envy_ratio_winners"),
            rows,
            prov,
        )
    ]


def run_audit_suite(config, seed, out_dir, instances=DEFAULT_AUDIT_INSTANCES,
                    max_size=8, **_):
    """Property probes over random markets, drawn one by one and audited
    a thousand at a time; expect all-clean reports."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))

    def draw(k):
        n_uavs = int(rng.integers(1, max_size + 1))
        n_ugvs = int(rng.integers(1, max_size + 1))
        return (random_market(rng, n_uavs, n_ugvs, mu0=config.mu0, mu1=config.mu1,
                              q_floor=config.qors_floor), f"i{k}-{n_uavs}x{n_ugvs}")

    rows = []
    for start in range(0, instances, 1000):
        markets, names = zip(*map(draw, range(start, min(start + 1000, instances))))
        rows += map(audit_report_row, audit_markets(markets, names))
    prov = provenance_line(seed, config, note=f"preset=audit-suite instances={instances}")
    return [write_csv(out_dir / "audit-suite.csv", AUDIT_CSV_HEADER, rows, prov)]


PRESETS: dict[str, Preset] = {
    "fig-satisfaction": Preset(
        "fig-satisfaction",
        "satisfaction level vs UGV count (J in 6..14, I=10, 3 schemes)",
        run_fig_fleet,
    ),
    "fig-utility": Preset(
        "fig-utility",
        "total UAV utility vs UGV count (J in 6..14, I=10, 3 schemes)",
        run_fig_fleet,
    ),
    "fig-surplus": Preset(
        "fig-surplus",
        "social surplus vs UGV count (J in 6..14, I=10, 3 schemes)",
        run_fig_fleet,
    ),
    "fig-window": Preset(
        "fig-window",
        "UAV utility vs window length (tau in {4,8,16}, J in {6,10,14})",
        run_fig_window,
    ),
    "table-truthful": Preset(
        "table-truthful",
        "truthful vs best-misreport utility at 5x5 and 20x20",
        run_table_truthful,
    ),
    "table-envy": Preset(
        "table-envy",
        "non-envy ratios for auction vs welfare-optimal at 5x5 and 20x20",
        run_table_envy,
    ),
    "audit-suite": Preset(
        "audit-suite",
        "IR/IC/envy/stability probes over random markets",
        run_audit_suite,
        count="instances",
    ),
}


def run_preset(
    name: str,
    config: ScenarioConfig,
    seed: int,
    out_dir,
    reps: Optional[int] = None,
    instances: Optional[int] = None,
) -> list[Path]:
    """Run preset ``name``; ``reps`` or ``instances``, whichever the
    preset takes (``Preset.count``), overrides its default count."""
    if name not in PRESETS:
        raise KeyError(f"unknown preset {name!r}; available: {', '.join(sorted(PRESETS))}")
    problem = count_problem(name, reps, instances)
    if problem:
        raise ValueError(problem)
    out_dir = Path(out_dir)
    kwargs = {"name": name}
    if reps is not None:
        kwargs["reps"] = reps
    if instances is not None:
        kwargs["instances"] = instances
    return PRESETS[name].runner(config, seed, out_dir, **kwargs)


def count_problem(name: str, reps: Optional[int], instances: Optional[int]) -> str:
    """Why preset ``name`` cannot take the counts given, or ""."""
    wanted = PRESETS[name].count
    for option, value in (("reps", reps), ("instances", instances)):
        if value is not None and option != wanted:
            return f"preset {name} takes --{wanted}, not --{option}"
    return ""
