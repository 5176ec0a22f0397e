"""REP009: interprocedural unit-dimension inference over the call graph.

REP002 checks unit suffixes *within* one expression or keyword argument;
it cannot see a ``window_ms`` value crossing a function boundary into a
``delay_s`` parameter defined two modules away — the exact class of slip
that silently scales a hand-off timer by 1000×.  This project rule walks
the resolved call graph and checks three flows:

* **positional arguments** — a suffixed value passed *positionally* to a
  parameter declaring a different suffix (REP002's keyword check never
  sees these);
* **conflicting inference** — an *unsuffixed* parameter that receives
  same-dimension but different-scale values from different call sites
  (``_ms`` here, ``_s`` there): one of the callers is wrong, and the
  parameter needs a suffix to say which.  Cross-dimension mixes are
  treated as evidence of a genuinely generic parameter (a KPI value, a
  formatting helper) and stay quiet;
* **returns** — a function whose *name* carries a suffix must not return
  expressions resolving to an incompatible unit, and a call result must
  not be assigned to a name whose suffix contradicts the function's
  declared or unanimously inferred return unit.

Expressions resolve through REP002's resolver, so log-domain quantities
(``_dbm``/``_db``/...) are mutually compatible exactly as there, and a
mixed additive chain resolves to "unknown".  Anything the resolver cannot
type stays silent: the rule under-approximates rather than guesses.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.core.units import LOG_DOMAIN_DIMENSIONS, UNIT_DIMENSIONS, unit_suffix
from repro.lint.engine import FileContext, Violation
from repro.lint.project import (
    CallSite,
    FunctionInfo,
    ProjectContext,
    ProjectRule,
    project_rule,
)
from repro.lint.rules.units import Unit, additive_compatible, describe, expression_unit


def _map_positional(
    info: FunctionInfo, call: ast.Call
) -> Iterator[tuple[str, ast.AST]]:
    """(param name, argument expression) for plain positional arguments."""
    for index, arg in enumerate(call.args):
        if isinstance(arg, ast.Starred):
            return  # everything after *args is positionally untrackable
        if index >= len(info.params):
            return
        yield info.params[index], arg


def _assignment_targets(ctx: FileContext) -> dict[int, str]:
    """Map ``id(call node)`` -> simple-name assignment target in ``ctx``."""
    targets: dict[int, str] = {}
    for node in ctx.walk(ast.Assign):
        assert isinstance(node, ast.Assign)
        if (
            len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(node.value, ast.Call)
        ):
            targets[id(node.value)] = node.targets[0].id
    for node in ctx.walk(ast.AnnAssign):
        assert isinstance(node, ast.AnnAssign)
        if isinstance(node.target, ast.Name) and isinstance(node.value, ast.Call):
            targets[id(node.value)] = node.target.id
    return targets


@project_rule
class UnitFlowRule(ProjectRule):
    """Flag unit mismatches that only the whole-program view can see."""

    id = "REP009"
    name = "unit-flow"
    severity = "error"

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        assign_targets: dict[str, dict[int, str]] = {}
        for info in project.functions.values():
            sites = project.calls_to(info.qualname)
            if sites:
                yield from self._check_positional(info, sites)
                yield from self._check_inference(info, sites)
                yield from self._check_result_assignment(info, sites, assign_targets)
            yield from self._check_returns(info)

    # -- positional arguments ----------------------------------------

    def _check_positional(
        self, info: FunctionInfo, sites: list[CallSite]
    ) -> Iterator[Violation]:
        declared = {
            param: (suffix, UNIT_DIMENSIONS[suffix])
            for param in info.params
            if (suffix := unit_suffix(param)) is not None
        }
        if not declared:
            return
        for site in sites:
            for param, arg in _map_positional(info, site.node):
                expected = declared.get(param)
                if expected is None:
                    continue
                actual = expression_unit(arg)
                if actual is None or additive_compatible(actual, expected):
                    continue
                yield self.violation(
                    site.ctx,
                    arg,
                    f"passing {describe(actual)} value positionally to "
                    f"parameter {param!r} of {info.qualname}() which "
                    f"expects {describe(expected)}",
                )

    # -- conflicting inference for unsuffixed parameters ---------------

    def _check_inference(
        self, info: FunctionInfo, sites: list[CallSite]
    ) -> Iterator[Violation]:
        unsuffixed = [p for p in info.all_params if unit_suffix(p) is None]
        if not unsuffixed or not sites:
            return
        evidence: dict[str, dict[str, CallSite]] = {p: {} for p in unsuffixed}
        for site in sites:
            seen: list[tuple[str, ast.AST]] = list(
                _map_positional(info, site.node)
            )
            seen.extend(
                (kw.arg, kw.value)
                for kw in site.node.keywords
                if kw.arg is not None
            )
            for param, arg in seen:
                if param not in evidence:
                    continue
                actual = expression_unit(arg)
                if actual is not None:
                    evidence[param].setdefault(actual[0], site)
        for param, units in evidence.items():
            if len(units) < 2:
                continue
            dims = {UNIT_DIMENSIONS[s] for s in units}
            if len(dims) != 1 or dims & LOG_DOMAIN_DIMENSIONS:
                # cross-dimension: a generic parameter, not a unit slip
                continue
            ordered = sorted(units)
            witnesses = "; ".join(
                f"_{suffix} at {units[suffix].ctx.display_path}:"
                f"{units[suffix].line}"
                for suffix in ordered
            )
            yield self.violation(
                info.ctx,
                info.node,
                f"parameter {param!r} of {info.qualname}() receives "
                f"same-dimension values at different scales ({witnesses}); "
                "suffix the parameter and convert at the wrong call site",
            )

    # -- returns -------------------------------------------------------

    def _return_unit(self, info: FunctionInfo) -> Unit | None:
        """Declared (name-suffix) or unanimously inferred return unit."""
        suffix = unit_suffix(info.name)
        if suffix is not None:
            return suffix, UNIT_DIMENSIONS[suffix]
        inferred: set[str] = set()
        for node in info.walk(ast.Return):
            assert isinstance(node, ast.Return)
            if node.value is not None:
                unit = expression_unit(node.value)
                if unit is None:
                    return None  # an untypable return keeps us honest
                inferred.add(unit[0])
        if len(inferred) == 1:
            only = next(iter(inferred))
            return only, UNIT_DIMENSIONS[only]
        return None

    def _check_returns(self, info: FunctionInfo) -> Iterator[Violation]:
        suffix = unit_suffix(info.name)
        if suffix is None:
            return
        declared = (suffix, UNIT_DIMENSIONS[suffix])
        for node in info.walk(ast.Return):
            assert isinstance(node, ast.Return)
            if node.value is None:
                continue
            actual = expression_unit(node.value)
            if actual is None or additive_compatible(actual, declared):
                continue
            yield self.violation(
                info.ctx,
                node,
                f"{info.qualname}() declares {describe(declared)} in its "
                f"name but returns {describe(actual)}",
            )

    def _check_result_assignment(
        self,
        info: FunctionInfo,
        sites: list[CallSite],
        assign_targets: dict[str, dict[int, str]],
    ) -> Iterator[Violation]:
        if not sites:
            return
        returned = self._return_unit(info)
        if returned is None:
            return
        for site in sites:
            per_ctx = assign_targets.get(site.ctx.display_path)
            if per_ctx is None:
                per_ctx = _assignment_targets(site.ctx)
                assign_targets[site.ctx.display_path] = per_ctx
            target = per_ctx.get(id(site.node))
            if target is None:
                continue
            suffix = unit_suffix(target)
            if suffix is None:
                continue
            expected = (suffix, UNIT_DIMENSIONS[suffix])
            if additive_compatible(returned, expected):
                continue
            yield self.violation(
                site.ctx,
                site.node,
                f"result of {info.qualname}() ({describe(returned)}) "
                f"assigned to {target!r} which implies "
                f"{describe(expected)}",
            )
