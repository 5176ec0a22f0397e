"""REP002: unit-suffix consistency, derived from the ``core.units`` lattice.

Physical quantities in this codebase carry their unit in the identifier
suffix (``rsrp_dbm``, ``bandwidth_hz``, ``delay_s`` — see
``repro.core.units.UNIT_DIMENSIONS``).  This rule checks the two places
a wrong unit silently corrupts a figure:

* **additive expressions** — ``x_dbm + y_hz`` (different dimensions) or
  ``t_s + gap_ms`` (same dimension, mismatched scale).  Log-domain
  suffixes (``_dbm``/``_db``/``_dbm_hz``) are mutually additive because
  level + ratio arithmetic is the point of working in dB.
* **keyword arguments** — passing ``x_ms`` to a ``bandwidth_hz=``
  parameter, or any suffixed name to a parameter with a different
  suffix.

Multiplication and division change dimensions legitimately, so the rule
treats them as opaque; unsuffixed operands resolve to "unknown" and
never fire.
"""

from __future__ import annotations

import ast
from collections.abc import Callable, Iterator

from repro.core.units import LOG_DOMAIN_DIMENSIONS, UNIT_DIMENSIONS, unit_suffix
from repro.lint.engine import FileContext, Rule, Violation, rule, terminal_name

#: (suffix, dimension) — resolved unit of a subexpression.
Unit = tuple[str, str]


def _name_unit(node: ast.AST) -> Unit | None:
    name = terminal_name(node)
    suffix = None if name is None else unit_suffix(name)
    if suffix is None:
        return None
    return suffix, UNIT_DIMENSIONS[suffix]


def additive_compatible(left: Unit, right: Unit) -> bool:
    """May quantities in these units be added or subtracted?"""
    if left[0] == right[0]:
        return True
    return left[1] in LOG_DOMAIN_DIMENSIONS and right[1] in LOG_DOMAIN_DIMENSIONS


def describe(unit: Unit) -> str:
    return f"_{unit[0]} ({unit[1]})"


def expression_unit(
    node: ast.AST, on_mix: Callable[[ast.BinOp, Unit, Unit], None] | None = None
) -> Unit | None:
    """Unit of an expression; ``on_mix`` hears of each incompatible add.

    Only additive structure is traversed — any other operator yields
    "unknown" so dimension-changing arithmetic never misfires.  When
    one operand is unknown the other's unit propagates, keeping
    chains like ``noise_dbm + 10 * log10(bw) + nf_db`` checkable.  An
    incompatible add resolves to "unknown" after it is reported.
    """
    if isinstance(node, ast.UnaryOp):
        return expression_unit(node.operand, on_mix)
    if isinstance(node, ast.BinOp) and isinstance(node.op, (ast.Add, ast.Sub)):
        left = expression_unit(node.left, on_mix)
        right = expression_unit(node.right, on_mix)
        if left is None:
            return right
        if right is None:
            return left
        if not additive_compatible(left, right):
            if on_mix is not None:
                on_mix(node, left, right)
            return None
        if left[1] in LOG_DOMAIN_DIMENSIONS and left[1] != right[1]:
            # level +/- ratio keeps the level's (absolute) unit
            return left if left[1] != "log-ratio" else right
        return left
    return _name_unit(node)


@rule
class UnitConsistencyRule(Rule):
    """Flag additive and keyword-passing mixes of incompatible suffixes."""

    id = "REP002"
    name = "unit-consistency"
    severity = "error"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        found: list[Violation] = []

        def report(node: ast.AST, left: Unit, right: Unit) -> None:
            found.append(self._mix_violation(ctx, node, left, right))

        additive_children: set[int] = set()
        for node in ctx.walk(ast.BinOp):
            if isinstance(node.op, (ast.Add, ast.Sub)):
                for child in (node.left, node.right):
                    if isinstance(child, ast.BinOp) and isinstance(
                        child.op, (ast.Add, ast.Sub)
                    ):
                        additive_children.add(id(child))
        for node in ctx.walk(ast.BinOp, ast.AugAssign, ast.Call):
            if (
                isinstance(node, ast.BinOp)
                and isinstance(node.op, (ast.Add, ast.Sub))
                and id(node) not in additive_children
            ):
                expression_unit(node, report)
            elif isinstance(node, ast.AugAssign) and isinstance(
                node.op, (ast.Add, ast.Sub)
            ):
                target = _name_unit(node.target)
                value = expression_unit(node.value, report)
                if target and value and not additive_compatible(target, value):
                    report(node, target, value)
            elif isinstance(node, ast.Call):
                found.extend(self._check_keywords(ctx, node))
        yield from found

    def _mix_violation(
        self, ctx: FileContext, node: ast.AST, left: Unit, right: Unit
    ) -> Violation:
        if left[1] == right[1]:
            message = (
                f"adding {describe(left)} to {describe(right)}: same "
                "dimension but mismatched scales — convert explicitly"
            )
        else:
            message = (
                f"adding {describe(left)} to {describe(right)}: "
                "incompatible unit dimensions"
            )
        return self.violation(ctx, node, message)

    def _check_keywords(self, ctx: FileContext, node: ast.Call) -> Iterator[Violation]:
        for keyword in node.keywords:
            if keyword.arg is None:
                continue
            param = unit_suffix(keyword.arg)
            if param is None:
                continue
            value = _name_unit(keyword.value)
            if value is None or value[0] == param:
                continue
            expected = (param, UNIT_DIMENSIONS[param])
            yield self.violation(
                ctx,
                keyword.value,
                f"passing {describe(value)} value to keyword "
                f"{keyword.arg}= which expects {describe(expected)}",
            )
