"""REP008: no per-point scalar radio evaluation inside Python loops.

The batched radio core (``repro.radio.batch`` and the matrix methods of
``RadioNetwork``) evaluates every point×cell pair at once; a Python loop
that calls ``rsrp_map_at`` per point, or walks ``network.cells`` calling
a scalar evaluator per cell, rebuilds exactly the quadratic hot path the
vectorization removed — at 100-1000× the cost for survey-sized inputs.
Likewise a loop calling ``<factory>.stream(key)`` per key builds one
numpy ``SeedSequence`` per key, about seven times the per-key cost of
``RngFactory.standard_normals``, which draws a batch of keyed normals.
The rule guards the packages on that hot path (``radio/`` — including
the survey code in ``coverage.py`` — and ``mobility/``); glue code
elsewhere may still use the per-UE API freely.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.lint.engine import FileContext, Rule, Violation, rule

#: Per-UE/per-cell evaluators that have a batched twin.
_EVAL_METHODS = frozenset(
    {
        "rsrp_at",
        "sample_at",
        "rsrp_map_at",
        "bit_rate_at",
        "best_cell_at",
        "path_loss_db",
        "breakdown",
    }
)

_COMPREHENSIONS = (ast.ListComp, ast.SetComp, ast.GeneratorExp, ast.DictComp)


def _method_name(node: ast.AST) -> str | None:
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute):
        return node.func.attr
    return None


def _iterates_cells(iter_node: ast.AST) -> bool:
    """Does a loop iterate something spelled ``<expr>.cells``?"""
    return isinstance(iter_node, ast.Attribute) and iter_node.attr == "cells"


@rule
class ScalarHotPathRule(Rule):
    """Flag per-point/per-cell scalar radio evaluation and per-key seeding in loops."""

    id = "REP008"
    name = "scalar-hot-path"
    severity = "error"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if not (ctx.in_package_dir("radio") or ctx.in_package_dir("mobility")):
            return
        reported: set[int] = set()
        for node in ctx.walk(ast.For, ast.AsyncFor, ast.While, *_COMPREHENSIONS):
            if isinstance(node, (ast.For, ast.AsyncFor, ast.While)):
                over_cells = not isinstance(node, ast.While) and _iterates_cells(
                    node.iter
                )
                yield from self._scan(
                    ctx, node.body + node.orelse, over_cells, reported
                )
            elif isinstance(node, _COMPREHENSIONS):
                over_cells = any(
                    _iterates_cells(gen.iter) for gen in node.generators
                )
                if isinstance(node, ast.DictComp):
                    scope: list[ast.AST] = [node.key, node.value]
                else:
                    scope = [node.elt]
                scope.extend(
                    test for gen in node.generators for test in gen.ifs
                )
                yield from self._scan(ctx, scope, over_cells, reported)

    def _scan(
        self,
        ctx: FileContext,
        scope: list[ast.AST],
        over_cells: bool,
        reported: set[int],
    ) -> Iterator[Violation]:
        for top in scope:
            for inner in ast.walk(top):
                name = _method_name(inner)
                if name is None or id(inner) in reported:
                    continue
                if name == "rsrp_map_at":
                    reported.add(id(inner))
                    yield self.violation(
                        ctx,
                        inner,
                        "rsrp_map_at called per point inside a loop; batch the "
                        "points and use rsrp_matrix_at / samples_at / "
                        "bit_rates_at instead",
                    )
                elif name == "stream":
                    reported.add(id(inner))
                    yield self.violation(
                        ctx,
                        inner,
                        "stream() per key inside a loop seeds one SeedSequence "
                        "per key; draw the keys' normals in one "
                        "RngFactory.standard_normals call",
                    )
                elif over_cells and name in _EVAL_METHODS:
                    reported.add(id(inner))
                    yield self.violation(
                        ctx,
                        inner,
                        f"per-cell {name}() in a loop over .cells rebuilds the "
                        "scalar hot path; evaluate all cells at once through "
                        "repro.radio.batch",
                    )
