"""The ``repro lint`` subcommand.

Usage::

    python -m repro lint src/                      # gate: exit 1 on new violations
    python -m repro lint src/ --format json        # machine-readable report
    python -m repro lint src/ --write-baseline     # grandfather the current state
    python -m repro lint src/ --no-baseline        # report everything, baseline or not
    python -m repro lint src/ --graph json         # export the resolved call graph
    python -m repro lint src/ --no-project         # per-file rules only

Both passes run by default: the per-file rules (REP001–REP008 and
REP011–REP013) and the whole-program pass (REP009/REP010 over the
project symbol table and call graph).  Project-pass findings flow
through the same pragma and baseline machinery, so the gate stays
baseline-compatible.

The baseline defaults to ``lint-baseline.json`` in the working
directory; a missing file is simply an empty baseline, so a clean tree
needs no baseline at all.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from repro.lint.baseline import DEFAULT_BASELINE_NAME, Baseline
from repro.lint.engine import lint_paths, parse_files
from repro.lint.report import render_json, render_text

__all__ = ["add_lint_arguments", "run_lint"]


def add_lint_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the lint options to an (sub)parser."""
    parser.add_argument(
        "paths",
        nargs="*",
        default=["src"],
        help="files or directories to lint (default: src)",
    )
    parser.add_argument(
        "--format",
        dest="output_format",
        choices=("text", "json"),
        default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--baseline",
        default=DEFAULT_BASELINE_NAME,
        metavar="PATH",
        help=f"baseline file of grandfathered violations "
        f"(default: {DEFAULT_BASELINE_NAME}; missing file = empty)",
    )
    parser.add_argument(
        "--no-baseline",
        action="store_true",
        help="ignore the baseline file and report every violation",
    )
    parser.add_argument(
        "--write-baseline",
        action="store_true",
        help="write all current violations to the baseline file and exit 0",
    )
    parser.add_argument(
        "--no-project",
        action="store_true",
        help="skip the whole-program pass (project symbol table + call graph)",
    )
    parser.add_argument(
        "--graph",
        choices=("dot", "json"),
        metavar="{dot,json}",
        help="print the resolved call graph in the given format and exit "
        "(no lint gate is applied)",
    )


def run_lint(args: argparse.Namespace) -> int:
    """Execute the lint run; returns the process exit code."""
    paths = [Path(p) for p in args.paths]
    missing = [str(p) for p in paths if not p.exists()]
    if missing:
        print(f"repro lint: no such path(s): {', '.join(missing)}", file=sys.stderr)
        return 2

    if args.graph:
        from repro.lint.project import build_project

        contexts, _errors = parse_files(paths)
        project = build_project(contexts)
        print(project.to_json() if args.graph == "json" else project.to_dot())
        return 0

    try:
        result = lint_paths(paths, project=not args.no_project)
    except ValueError as exc:
        print(f"repro lint: {exc}", file=sys.stderr)
        return 2

    baseline_path = Path(args.baseline)
    if args.write_baseline:
        Baseline.from_violations(result.violations).save(baseline_path)
        print(
            f"wrote {len(result.violations)} grandfathered violation(s) "
            f"to {baseline_path}"
        )
        return 0

    if not args.no_baseline:
        try:
            result = Baseline.load(baseline_path).apply(result)
        except ValueError as exc:
            print(f"repro lint: {exc}", file=sys.stderr)
            return 2

    exit_code = 1 if result.violations else 0
    if args.output_format == "json":
        print(render_json(result, exit_code))
    else:
        print(render_text(result))
    return exit_code
