"""Command-line entry point for rdsim_lint.

    python -m tools.rdsim_lint.cli [--root DIR] [--rules a,b,c]
                                   [--json FILE] [--dot FILE] [--list]

Runs the selected rules (default: all) over <root>/src and prints one line
per violation plus a per-rule summary. `--json` additionally writes the
machine-readable report (schema rdsim.lint/1); `--dot` writes the layer
dependency graph when the layering rule ran.

Exit codes: 0 clean · 1 violations · 2 configuration/usage error.

This is the one lint entry point: each ctest (`determinism_lint`,
`units_lint`, ...) runs `python3 -m tools.rdsim_lint.cli --rules <rule>`.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

if __package__ in (None, ""):  # executed as a script, not a module
    sys.path.insert(0, str(Path(__file__).resolve().parents[2]))
    from tools.rdsim_lint.cli import main  # noqa: F811
    raise SystemExit(main())

from .engine import ConfigError, Report, SourceTree, run_rules
from .rules import ALL_RULES


def repo_root_default() -> Path:
    return Path(__file__).resolve().parents[2]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rdsim_lint",
        description="C++-aware static analysis for the rdsim tree")
    parser.add_argument("--root", type=Path, default=repo_root_default(),
                        help="repository root (default: this checkout)")
    parser.add_argument("--rules", default="all",
                        help="comma-separated rule set (default: all); "
                             "known: " + ", ".join(ALL_RULES))
    parser.add_argument("--json", type=Path, default=None, metavar="FILE",
                        help="also write the JSON report to FILE")
    parser.add_argument("--dot", type=Path, default=None, metavar="FILE",
                        help="write the layer dependency graph (DOT) to FILE")
    parser.add_argument("--list", action="store_true",
                        help="list known rules and exit")
    parser.add_argument("--quiet", action="store_true",
                        help="suppress the per-violation lines (summary only)")
    return parser


def select_rules(spec: str) -> list:
    if spec == "all":
        names = list(ALL_RULES)
    else:
        names = [n.strip() for n in spec.split(",") if n.strip()]
        unknown = [n for n in names if n not in ALL_RULES]
        if unknown:
            raise ConfigError(
                f"unknown rule(s) {', '.join(unknown)}; "
                f"known: {', '.join(ALL_RULES)}")
    return [ALL_RULES[n]() for n in names]


def render(report: Report, quiet: bool) -> None:
    if not quiet:
        for violation in report.violations:
            print(violation)
    counts = report.counts()
    if counts:
        print(f"\nrdsim_lint: {len(report.violations)} violation(s) "
              f"across rules [{', '.join(report.rules)}]:")
        for rule, count in counts.items():
            print(f"  {rule:>18}: {count}")
    else:
        print(f"rdsim_lint: clean ({', '.join(report.rules)})")
    for note in report.notes:
        print(f"note: {note}")


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    if args.list:
        for name in ALL_RULES:
            print(name)
        return 0
    try:
        rules = select_rules(args.rules)
        tree = SourceTree(args.root)
        report = run_rules(tree, rules)
    except ConfigError as err:
        print(f"rdsim_lint: configuration error: {err}", file=sys.stderr)
        return 2
    render(report, args.quiet)
    if args.json is not None:
        args.json.parent.mkdir(parents=True, exist_ok=True)
        args.json.write_text(report.to_json())
        print(f"json report: {args.json}")
    if args.dot is not None:
        layering = next((r for r in rules if r.name == "layering"), None)
        if layering is None:
            print("rdsim_lint: --dot requires the layering rule",
                  file=sys.stderr)
            return 2
        args.dot.parent.mkdir(parents=True, exist_ok=True)
        args.dot.write_text(layering.dot())
        print(f"layer graph: {args.dot}")
    return 1 if report.violations else 0


if __name__ == "__main__":
    raise SystemExit(main())
