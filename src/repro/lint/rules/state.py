"""REP004: hidden mutable state that couples runs to each other.

Two patterns:

* **mutable default arguments** (anywhere) — the default binds once at
  import, so one call's mutation leaks into the next call and, under
  the campaign runner, into the next *experiment*.
* **module-level mutable globals in ``experiments/``** — an experiment
  module accumulating into a lowercase module-level list/dict/set keeps
  state across repetitions within one worker process while fresh
  workers start clean, so serial and ``--parallel`` campaigns diverge.
  SHOUTED names are exempt: the codebase convention is that all-caps
  module-level containers are frozen-by-convention lookup tables.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.lint.engine import FileContext, Rule, Violation, rule

_CONSTANT_NAME_RE = re.compile(r"_{0,2}[A-Z][A-Z0-9_]*")

_MUTABLE_FACTORIES = frozenset({"list", "dict", "set", "bytearray", "defaultdict", "Counter", "deque"})

_MUTABLE_LITERALS = (
    ast.List,
    ast.Dict,
    ast.Set,
    ast.ListComp,
    ast.DictComp,
    ast.SetComp,
)


def is_mutable_value(node: ast.AST) -> bool:
    """Does ``node`` build a mutable container (literal or factory call)?"""
    if isinstance(node, _MUTABLE_LITERALS):
        return True
    if isinstance(node, ast.Call):
        name = node.func.id if isinstance(node.func, ast.Name) else None
        if name is None and isinstance(node.func, ast.Attribute):
            name = node.func.attr
        return name in _MUTABLE_FACTORIES
    return False


def module_mutables(ctx: FileContext) -> Iterator[tuple[ast.stmt, str]]:
    """(statement, name) for each module-level name bound to a mutable container."""
    for node in ctx.tree.body:
        if isinstance(node, ast.Assign):
            targets, value = node.targets, node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets, value = [node.target], node.value
        else:
            continue
        if is_mutable_value(value):
            for target in targets:
                if isinstance(target, ast.Name):
                    yield node, target.id


@rule
class HiddenStateRule(Rule):
    """Flag mutable defaults and experiment-module mutable globals."""

    id = "REP004"
    name = "hidden-state"
    severity = "warning"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        yield from self._mutable_defaults(ctx)
        if ctx.in_package_dir("experiments"):
            yield from self._module_globals(ctx)

    def _mutable_defaults(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.walk(ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda):
            defaults = list(node.args.defaults) + [
                default for default in node.args.kw_defaults if default is not None
            ]
            for default in defaults:
                if is_mutable_value(default):
                    yield self.violation(
                        ctx,
                        default,
                        "mutable default argument is shared across calls; "
                        "default to None and construct inside the function",
                    )

    def _module_globals(self, ctx: FileContext) -> Iterator[Violation]:
        for node, name in module_mutables(ctx):
            if _CONSTANT_NAME_RE.fullmatch(name):
                continue  # SHOUTED constants: frozen by convention
            if name.startswith("__") and name.endswith("__"):
                continue  # dunders (__all__) are interpreter contracts
            yield self.violation(
                ctx,
                node,
                f"module-level mutable global {name!r} in an "
                "experiment module persists across repetitions within "
                "a worker; pass state explicitly or make it a "
                "SHOUTED frozen constant",
            )
