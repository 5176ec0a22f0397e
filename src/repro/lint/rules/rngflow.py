"""REP010: RNG provenance and fork-safety over the call graph.

Every generator reaching an experiment ``run()`` must flow from the
campaign seed: either threaded in as a parameter, drawn from a named
``RngFactory`` stream, or derived from a threaded generator via
``repro.core.rng.derive``.  REP001 already bans raw ``numpy.random`` /
``random`` calls syntactically; this project rule catches the flows a
per-file rule cannot:

* **shadowed provenance** — a function that *accepts* an ``rng``/
  ``rngf`` parameter but constructs its own generator anyway: the
  parameter documents a provenance contract the body silently breaks,
  so half the randomness ignores the campaign seed;
* **constant reseeds on experiment-reachable paths** — calling
  ``default_rng(0)`` / ``RngFactory(42)`` with a literal seed (or no
  seed) anywhere reachable from an experiment ``run()`` freezes that
  stream across repetitions while the rest of the run varies;
* **fork-unsafe module state** — a module-level mutable container
  mutated on an experiment-reachable path: a fork-started pool worker
  inherits the coordinator's accumulated state while a spawn-started
  one starts clean, so sharded campaigns stop merging to the serial
  result.  (SHOUTED lookup tables are exempt only if never mutated —
  mutation is exactly what disqualifies them.)

Roots are the module-level ``run()`` functions of modules under an
``experiments/`` package; reachability follows resolved call edges
(imports incl. relative ones, module-local calls, ``self.``-methods),
so the rule under-approximates: dynamic dispatch it cannot resolve
never produces a finding.
"""

from __future__ import annotations

import ast
import re
from collections.abc import Iterator

from repro.lint.engine import Violation
from repro.lint.project import (
    FunctionInfo,
    ProjectContext,
    ProjectRule,
    project_rule,
)
from repro.lint.rules.policies import RNG_CONSTRUCTORS
from repro.lint.rules.state import module_mutables

#: Parameters that promise seeded provenance.
_RNG_PARAM_RE = re.compile(r"(^|_)rngf?(_factory)?$|(^|_)rng_factory$")

#: The sanctioned way to branch off a threaded generator.
_DERIVE = "repro.core.rng.derive"

#: The module allowed to construct generators from anything.
_EXEMPT_MODULES = ("core/rng.py",)

_MUTATOR_METHODS = frozenset(
    {
        "append",
        "appendleft",
        "add",
        "clear",
        "discard",
        "extend",
        "insert",
        "pop",
        "popleft",
        "popitem",
        "remove",
        "setdefault",
        "update",
    }
)


def _local_names(info: FunctionInfo) -> set[str]:
    """Names the function binds locally (params + assignment targets)."""
    args = info.node.args
    bound = {
        a.arg
        for a in (
            list(args.posonlyargs)
            + list(args.args)
            + list(args.kwonlyargs)
            + [a for a in (args.vararg, args.kwarg) if a is not None]
        )
    }
    declared_global: set[str] = set()
    for inner in info.walk(
        ast.Global, ast.Assign, ast.AnnAssign, ast.AugAssign, ast.For, ast.AsyncFor
    ):
        if isinstance(inner, ast.Global):
            declared_global.update(inner.names)
        elif isinstance(inner, (ast.Assign, ast.AnnAssign, ast.AugAssign)):
            targets = (
                inner.targets
                if isinstance(inner, ast.Assign)
                else [inner.target]
            )
            for target in targets:
                if isinstance(target, ast.Name):
                    bound.add(target.id)
        elif isinstance(inner, (ast.For, ast.AsyncFor)) and isinstance(
            inner.target, ast.Name
        ):
            bound.add(inner.target.id)
    return bound - declared_global


def _constant_seed(call: ast.Call) -> bool:
    """Does this constructor call pin its seed to a literal (or default)?"""
    seed: ast.AST | None = None
    if call.args:
        seed = call.args[0]
    else:
        for kw in call.keywords:
            if kw.arg == "seed":
                seed = kw.value
        if seed is None and not any(kw.arg is None for kw in call.keywords):
            return True  # no seed argument at all: the default literal
    return isinstance(seed, ast.Constant)


@project_rule
class RngFlowRule(ProjectRule):
    """Flag unsanctioned generator provenance and fork-unsafe state."""

    id = "REP010"
    name = "rng-flow"
    severity = "error"

    def check_project(self, project: ProjectContext) -> Iterator[Violation]:
        roots = [
            info.qualname
            for info in project.functions.values()
            if info.name == "run"
            and info.class_name is None
            and info.ctx.in_package_dir("experiments")
        ]
        reachable = project.reachable_from(roots)
        for info in project.functions.values():
            if info.ctx.is_module(*_EXEMPT_MODULES):
                continue
            yield from self._check_shadowed_provenance(info)
            if info.qualname in reachable:
                yield from self._check_constant_reseed(info)
        yield from self._check_fork_safety(project, reachable)

    # -- rng param + own constructor -----------------------------------

    def _check_shadowed_provenance(self, info: FunctionInfo) -> Iterator[Violation]:
        rng_params = [p for p in info.all_params if _RNG_PARAM_RE.search(p)]
        if not rng_params:
            return
        for node in info.walk(ast.Call):
            assert isinstance(node, ast.Call)
            qualified = info.ctx.imports.resolve(node.func)
            if qualified is None or qualified == _DERIVE:
                continue
            if qualified in RNG_CONSTRUCTORS:
                yield self.violation(
                    info.ctx,
                    node,
                    f"{info.qualname}() accepts {rng_params[0]!r} but "
                    f"constructs its own generator via {qualified}; derive "
                    "a child stream with repro.core.rng.derive() so all "
                    "randomness flows from the campaign seed",
                )

    # -- constant reseeds on reachable paths ---------------------------

    def _check_constant_reseed(self, info: FunctionInfo) -> Iterator[Violation]:
        for node in info.walk(ast.Call):
            assert isinstance(node, ast.Call)
            qualified = info.ctx.imports.resolve(node.func)
            if qualified not in RNG_CONSTRUCTORS:
                continue
            if _constant_seed(node):
                yield self.violation(
                    info.ctx,
                    node,
                    f"{qualified} called with a constant seed on an "
                    f"experiment-reachable path ({info.qualname}); the "
                    "stream freezes across repetitions — thread the "
                    "campaign seed or an rng parameter instead",
                )

    # -- fork-unsafe module state --------------------------------------

    def _check_fork_safety(
        self, project: ProjectContext, reachable: set[str]
    ) -> Iterator[Violation]:
        for module, ctx in project.modules.items():
            mutables = {name for _node, name in module_mutables(ctx)}
            if not mutables:
                continue
            for info in project.functions.values():
                if info.module != module or info.qualname not in reachable:
                    continue
                locals_ = _local_names(info)
                shadowed = {
                    name for name in mutables if name in locals_
                }
                visible = mutables - shadowed
                if not visible:
                    continue
                yield from self._check_mutations(info, visible)

    def _check_mutations(
        self, info: FunctionInfo, globals_: set[str]
    ) -> Iterator[Violation]:
        def flag(node: ast.AST, name: str) -> Violation:
            return self.violation(
                info.ctx,
                node,
                f"module-level mutable {name!r} is mutated on an "
                f"experiment-reachable path ({info.qualname}); "
                "fork-started workers inherit the coordinator's state "
                "while spawned ones start clean — pass the state "
                "explicitly or key it per process",
            )

        for node in info.walk(ast.Call, ast.Assign, ast.AugAssign, ast.Delete):
            if (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and isinstance(node.func.value, ast.Name)
                and node.func.value.id in globals_
                and node.func.attr in _MUTATOR_METHODS
            ):
                yield flag(node, node.func.value.id)
            elif isinstance(node, (ast.Assign, ast.AugAssign)):
                targets = (
                    node.targets if isinstance(node, ast.Assign) else [node.target]
                )
                for target in targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in globals_
                    ):
                        yield flag(node, target.value.id)
            elif isinstance(node, ast.Delete):
                for target in node.targets:
                    if (
                        isinstance(target, ast.Subscript)
                        and isinstance(target.value, ast.Name)
                        and target.value.id in globals_
                    ):
                        yield flag(node, target.value.id)
