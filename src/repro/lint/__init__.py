"""replint: the repro domain linter.

An AST-based static-analysis pass enforcing the invariants generic
linters cannot see: randomness flows from the campaign seed, unit
suffixes agree, simulator and tracer APIs are used as contracted, and
registered metric and audit names stay diffable.  A per-file pass runs
the rules in :mod:`repro.lint.rules`; a **whole-program pass**
(:mod:`repro.lint.project`) then builds a project symbol table and call
graph for the interprocedural rules (REP009 unit flow, REP010 rng flow).

The README rule catalogue ("Determinism and unit conventions") lists
every rule in one line each; ``EXPERIMENTS.md`` covers the conventions
themselves, the pragma syntax and the baseline workflow.
"""

from repro.lint.baseline import Baseline
from repro.lint.engine import (
    FileContext,
    LintResult,
    Rule,
    Violation,
    all_rules,
    lint_paths,
    parse_files,
    rule,
)
from repro.lint.project import (
    ProjectContext,
    ProjectRule,
    all_project_rules,
    build_project,
    project_rule,
)
from repro.lint.report import render_json, render_text

__all__ = [
    "Baseline",
    "FileContext",
    "LintResult",
    "ProjectContext",
    "ProjectRule",
    "Rule",
    "Violation",
    "all_project_rules",
    "all_rules",
    "build_project",
    "lint_paths",
    "parse_files",
    "project_rule",
    "render_json",
    "render_text",
    "rule",
]
