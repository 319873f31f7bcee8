"""``repro bench`` — the CLI face of the benchmark harness.

Dispatched by :func:`repro.cli.main` so the one entry point covers
experiments *and* performance measurement::

    python -m repro.cli bench --list-scenarios
    python -m repro.cli bench --out BENCH.json
    python -m repro.cli bench --group nn --group solver --repeats 5
    python -m repro.cli bench --compare BENCH.json

With ``--compare`` the exit code is :data:`repro.bench.compare.REGRESSION_EXIT_CODE`
when any scenario is slower than ``--threshold`` percent — wire it straight
into CI.  A baseline that shares no scenario with the run exits 2, like an
unknown scenario: an empty comparison must not read as "no regressions".
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional

from repro.bench.compare import (
    DEFAULT_THRESHOLD_PCT,
    REGRESSION_EXIT_CODE,
    compare_reports,
    format_comparison,
)
from repro.bench.registry import select_scenarios
from repro.bench.runner import load_report, run_scenarios, write_report

__all__ = ["build_bench_parser", "bench_main"]


def build_bench_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro bench",
        description="Run registered benchmark scenarios and write/compare BENCH JSON reports.",
    )
    parser.add_argument("--list-scenarios", action="store_true",
                        help="list registered scenarios and exit")
    parser.add_argument("--scenario", action="append", default=None, metavar="NAME",
                        help="run this scenario (repeatable; default: all)")
    parser.add_argument("--group", action="append", default=None, metavar="GROUP",
                        help="run every scenario of this group (repeatable)")
    parser.add_argument("--repeats", type=int, default=3, metavar="N",
                        help="timed repetitions per scenario (default: 3; best-of is reported)")
    parser.add_argument("--warmup", type=int, default=1, metavar="N",
                        help="untimed warmup calls per scenario (default: 1)")
    parser.add_argument("--out", default=None, metavar="FILE",
                        help="write the schema-versioned report JSON here")
    parser.add_argument("--compare", default=None, metavar="BASELINE",
                        help="baseline report JSON; print percent deltas and gate on --threshold")
    parser.add_argument("--threshold", type=float, default=DEFAULT_THRESHOLD_PCT, metavar="PCT",
                        help="allowed percent slowdown before a scenario counts as a "
                             f"regression (default: {DEFAULT_THRESHOLD_PCT:g})")
    return parser


def _list_scenarios() -> str:
    from repro.analysis.report import format_table

    rows = [
        (scenario.name, scenario.units, scenario.description)
        for scenario in select_scenarios()
    ]
    return format_table(["scenario", "units", "description"], rows)


def bench_main(argv: Optional[List[str]] = None) -> int:
    """Entry point of the ``bench`` subcommand; returns the process exit code."""
    args = build_bench_parser().parse_args(argv)
    if args.list_scenarios:
        print(_list_scenarios())
        return 0
    try:
        report = run_scenarios(
            names=args.scenario,
            groups=args.group,
            repeats=args.repeats,
            warmup=args.warmup,
            progress=lambda line: print(line, file=sys.stderr),
        )
    except KeyError as error:
        print(f"repro bench: {error.args[0]}", file=sys.stderr)
        return 2
    if args.out:
        path = write_report(report, args.out)
        print(f"wrote {path}")
    if args.compare:
        comparison = compare_reports(
            load_report(args.compare), report, threshold_pct=args.threshold
        )
        if not comparison.deltas:
            print(
                f"repro bench: {args.compare} shares no scenario with this run\n"
                f"  baseline: {', '.join(comparison.only_in_baseline)}\n"
                f"  current:  {', '.join(comparison.only_in_current)}",
                file=sys.stderr,
            )
            return 2
        print(format_comparison(comparison, baseline_label=args.compare))
        if comparison.has_regressions:
            return REGRESSION_EXIT_CODE
    return 0
