"""Command-line entry point.

Subcommands:

* ``run``      - simulate a scenario (optionally swept/audited), emit CSVs
* ``preset``   - reproduce a canned figure/table experiment by name
* ``audit``    - property probes over random market instances
* ``validate`` - check a config file, list violations

Exit codes: 0 success, 1 usage error (for ``run``, also a sweep that
repeats a value), 2 invalid/unreadable config (for ``run``, any cell of
the sweep). The default output directory comes from
``SKYMARKET_OUT`` (falling back to ``./results``).
"""

from __future__ import annotations

import argparse
import functools
import os
import sys
from pathlib import Path

from .audit import AUDIT_CSV_HEADER
from .mechanism import OUTCOME_CSV_HEADER
from .metrics import AGGREGATE_CSV_HEADER, METRICS_CSV_HEADER, aggregate_tuple
from .presets import PRESETS, count_problem, run_audit_suite, run_preset
from .reporting import __version__, provenance_line, write_csv, write_csv_text
from .simulator import (
    ALL_SCHEMES,
    SCHEME_OURS,
    run_experiment,
    sweep_cells,
)
from .types import ScenarioConfig, load_config, validate

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_CONFIG = 2


def _default_out() -> str:
    return os.environ.get("SKYMARKET_OUT", "results")


def _int_at_least(low: int):
    """argparse type: an int >= ``low`` (a usage error otherwise)."""
    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"not an integer: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be >= {low} (got {value})")
        return value
    return parse


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process on first use. ``--out``
    defaults to None, which ``main`` resolves by ``_default_out`` on each
    call, so ``SKYMARKET_OUT`` is read per call."""
    parser = argparse.ArgumentParser(
        prog="skymarket",
        description="Auction-based scheduling of mobile wireless chargers for UAV fleets",
    )
    parser.add_argument("--version", action="version", version=f"skymarket {__version__}")
    sub = parser.add_subparsers(dest="command")

    def common(p):
        p.add_argument("--seed", type=_int_at_least(0), default=0, help="base RNG seed")
        p.add_argument("--out", help="output directory")

    p_run = sub.add_parser("run", help="simulate a scenario and emit metrics CSVs")
    common(p_run)
    p_run.add_argument("--config", help="scenario config file (flat key=value)")
    p_run.add_argument("--scheme", choices=list(ALL_SCHEMES) + ["all"], default=SCHEME_OURS)
    p_run.add_argument("--reps", type=_int_at_least(1), default=1,
                       help="number of seeds to simulate")
    p_run.add_argument("--ugvs", type=int, nargs="+", help="sweep over UGV counts")
    p_run.add_argument("--tau", type=float, nargs="+", help="sweep over window lengths (s)")
    p_run.add_argument("--audit", action="store_true",
                       help="attach a full audit report to every window")
    p_run.add_argument("--outcomes", action="store_true",
                       help="also dump per-window allocations and payments")

    p_preset = sub.add_parser("preset", help="run a canned experiment")
    common(p_preset)
    p_preset.add_argument("name", help=f"one of: {', '.join(sorted(PRESETS))}")
    p_preset.add_argument("--config", help="scenario config overriding the defaults")
    p_preset.add_argument("--reps", type=_int_at_least(1),
                          help="override replication count (fig-*, table-*)")
    p_preset.add_argument("--instances", type=_int_at_least(1),
                          help="override instance count (audit-suite)")

    p_audit = sub.add_parser("audit", help="IR/IC/envy/stability probes on random markets")
    common(p_audit)
    p_audit.add_argument("--instances", type=_int_at_least(1), default=1000)
    p_audit.add_argument("--max-size", type=_int_at_least(1), default=8,
                         help="max market side length")

    p_val = sub.add_parser("validate", help="validate a scenario config file")
    p_val.add_argument("config", help="path to the config file")

    return parser


def _checked_config(path: str | None) -> ScenarioConfig | None:
    """The config at ``path`` (defaults if None), or None after reporting
    why it cannot be read or used."""
    try:
        config = ScenarioConfig() if path is None else load_config(path)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return None
    problems = validate(config)
    for p in problems:
        print(f"invalid config: {p}", file=sys.stderr)
    return None if problems else config


def cmd_run(args) -> int:
    config = _checked_config(args.config)
    if config is None:
        return EXIT_CONFIG

    schemes = ALL_SCHEMES if args.scheme == "all" else (args.scheme,)
    sweep = {}
    if args.ugvs:
        sweep["ugv_count"] = args.ugvs
    if args.tau:
        sweep["window_len"] = args.tau
    try:
        cells = sweep_cells(config, sweep)
    except ValueError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    problems = [p for cell in cells for p in validate(cell)]
    for p in dict.fromkeys(problems):
        print(f"invalid config: {p}", file=sys.stderr)
    if problems:
        return EXIT_CONFIG

    result = run_experiment(
        config, sweep, replications=args.reps, schemes=schemes,
        base_seed=args.seed, with_audit=args.audit, keep_outcomes=args.outcomes,
    )
    out = Path(args.out)
    prov = provenance_line(args.seed, config, note=f"cmd=run reps={args.reps}")
    cols = result.metrics
    files = [
        write_csv_text(out / "metrics_raw.csv", METRICS_CSV_HEADER, cols.text(), prov),
        write_csv(out / "metrics_aggregate.csv", AGGREGATE_CSV_HEADER,
                  map(aggregate_tuple, result.aggregates), prov),
    ]
    if args.audit:
        files.append(write_csv_text(out / "audits.csv", AUDIT_CSV_HEADER,
                                    cols.audit_text(), prov))
    if args.outcomes:
        files.append(write_csv_text(out / "outcomes.csv", ("scheme", "seed") + OUTCOME_CSV_HEADER,
                                    cols.outcome_text(), prov))
    for f in files:
        print(f)
    return EXIT_OK


def cmd_preset(args) -> int:
    if args.name not in PRESETS:
        print(f"unknown preset {args.name!r}; available: {', '.join(sorted(PRESETS))}",
              file=sys.stderr)
        return EXIT_USAGE
    problem = count_problem(args.name, args.reps, args.instances)
    if problem:
        print(problem, file=sys.stderr)
        return EXIT_USAGE
    config = _checked_config(args.config)
    if config is None:
        return EXIT_CONFIG
    files = run_preset(args.name, config, args.seed, args.out,
                       reps=args.reps, instances=args.instances)
    for f in files:
        print(f)
    return EXIT_OK


def cmd_audit(args) -> int:
    config = ScenarioConfig()
    files = run_audit_suite(config, args.seed, Path(args.out),
                            instances=args.instances, max_size=args.max_size)
    for f in files:
        print(f)
    return EXIT_OK


def cmd_validate(args) -> int:
    try:
        config = load_config(args.config)
    except (OSError, ValueError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    problems = validate(config)
    if problems:
        for p in problems:
            print(p)
        return EXIT_CONFIG
    print("OK")
    return EXIT_OK


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse exits 2 on usage problems; remap (2 is reserved for configs)
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    if args.command is None:
        parser.print_help()
        return EXIT_USAGE
    if args.command != "validate" and args.out is None:
        args.out = _default_out()
    if args.command == "run":
        return cmd_run(args)
    if args.command == "preset":
        return cmd_preset(args)
    if args.command == "audit":
        return cmd_audit(args)
    if args.command == "validate":
        return cmd_validate(args)
    return EXIT_USAGE  # pragma: no cover


if __name__ == "__main__":
    sys.exit(main())
