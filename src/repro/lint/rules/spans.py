"""REP005: tracer span hygiene outside :mod:`repro.trace`.

:meth:`Tracer.begin` opens a span and returns a handle that must be
closed with ``.end(...)`` — a leaked handle silently produces a trace
with missing intervals, which defeats the whole point of asserting on
internals.  Instrumentation code should prefer the self-closing forms
(``complete(...)`` for known intervals, ``span(...)`` as a context
manager); when ``begin`` is unavoidable, the handle must be kept and
ended in the same function.

Two patterns are flagged, on any receiver whose name mentions a tracer
(``tracer``, ``self._tracer``, ``trace``):

* ``tracer.begin(...)`` as a bare statement — the handle is discarded
  and the span can never be closed;
* ``handle = tracer.begin(...)`` with no ``handle.end(...)`` anywhere in
  the same function scope.

Handles that flow elsewhere (returned, passed as arguments, stored on
``self``) are out of the rule's static reach and are left alone, as is
everything under ``repro/trace/`` itself, where the machinery lives.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.lint.engine import FileContext, Rule, Violation, rule, terminal_name

#: Receivers considered tracers; matches ``tracer``, ``_tracer``,
#: ``self._tracer`` and a module imported as ``trace``.
_TRACER_NAME_RE = re.compile(r"(^|_)tracer?$", re.IGNORECASE)


def _is_tracer_begin(call: ast.AST) -> bool:
    if not (isinstance(call, ast.Call) and isinstance(call.func, ast.Attribute)):
        return False
    if call.func.attr != "begin":
        return False
    receiver = terminal_name(call.func.value)
    return receiver is not None and _TRACER_NAME_RE.search(receiver) is not None


def _scope_nodes(scope: ast.AST) -> Iterator[ast.AST]:
    """Descendants of ``scope`` excluding nested function/lambda bodies."""
    stack = list(ast.iter_child_nodes(scope))
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


@rule
class SpanHygieneRule(Rule):
    """Flag Tracer.begin() whose span handle is dropped or never ended."""

    id = "REP005"
    name = "trace-span-hygiene"
    severity = "error"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.in_package_dir("trace"):
            return
        scopes: list[ast.AST] = [ctx.tree]
        scopes.extend(ctx.walk(ast.FunctionDef, ast.AsyncFunctionDef))
        for scope in scopes:
            yield from self._check_scope(ctx, scope)

    def _check_scope(self, ctx: FileContext, scope: ast.AST) -> Iterator[Violation]:
        opened: list[tuple[ast.Call, str]] = []  # handle name -> begin call
        ended: set[str] = set()
        for node in _scope_nodes(scope):
            if isinstance(node, ast.Expr) and _is_tracer_begin(node.value):
                yield self.violation(
                    ctx,
                    node.value,
                    "span handle from Tracer.begin() is discarded; the span "
                    "can never be ended — use complete()/span() or keep the "
                    "handle and call .end()",
                )
            elif (
                isinstance(node, ast.Assign)
                and len(node.targets) == 1
                and isinstance(node.targets[0], ast.Name)
                and _is_tracer_begin(node.value)
            ):
                opened.append((node.value, node.targets[0].id))
            elif (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr == "end"
                and isinstance(node.func.value, ast.Name)
            ):
                ended.add(node.func.value.id)
        for call, handle in opened:
            if handle not in ended:
                yield self.violation(
                    ctx,
                    call,
                    f"span handle {handle!r} from Tracer.begin() is never "
                    "ended in this function; close it with "
                    f"{handle}.end(...) or use the span() context manager",
                )
