"""The replint rule engine: contexts, registry, pragmas and the runner.

replint is a domain linter: its rules encode invariants of *this*
codebase (sanctioned randomness, unit-suffix discipline, simulator API
contracts) that generic linters cannot know about.  Each rule is either a
module under :mod:`repro.lint.rules` registered with the :func:`rule`
decorator or a row of the :mod:`repro.lint.rules.policies` table
registered with :func:`register`; the engine parses every target file
once and hands the same :class:`FileContext` to every rule.

Linting is a two-pass affair:

1. the **file pass** runs every :class:`Rule` over each
   :class:`FileContext` in isolation, and
2. the **project pass** (:mod:`repro.lint.project`) assembles the parsed
   files into a whole-program symbol table and call graph and runs the
   registered :class:`~repro.lint.project.ProjectRule` instances over it
   — this is how a ``_ms`` value flowing into an ``_s`` parameter two
   modules away gets caught.

Suppression happens at two levels:

* a ``# replint: ignore[REP001]`` pragma on any line of the reported
  statement silences named rules (bare ``# replint: ignore`` silences
  them all), and
* a committed baseline file grandfathers existing violations so the
  gate only fails on *new* ones (see :mod:`repro.lint.baseline`).
"""

from __future__ import annotations

import ast
import re
import tokenize
from collections.abc import Iterable, Iterator, Sequence
from dataclasses import dataclass, field
from pathlib import Path

__all__ = [
    "FileContext",
    "ImportTable",
    "LintResult",
    "Rule",
    "Violation",
    "all_rules",
    "lint_paths",
    "module_name_for",
    "parse_files",
    "register",
    "rule",
    "terminal_name",
]

#: Matches ``# replint: ignore`` and ``# replint: ignore[REP001,REP003]``.
_PRAGMA_RE = re.compile(r"#\s*replint:\s*ignore(?:\[(?P<rules>[A-Za-z0-9_,\s]+)\])?")

_SKIP_DIR_NAMES = {"__pycache__", ".git", ".repro_cache"}


@dataclass(frozen=True, order=True)
class Violation:
    """One rule finding, anchored to a source line.

    ``fingerprint`` (the stripped source text of the reported line) is
    what the baseline matches on, so grandfathered entries survive the
    line-number drift of unrelated edits.  ``end_line`` is the last
    source line of the offending statement — pragma suppression honours
    a ``# replint: ignore`` on *any* line of the span, so the pragma can
    sit at the end of a black-wrapped call.
    """

    path: str
    line: int
    col: int
    rule: str
    severity: str
    message: str
    snippet: str
    end_line: int = field(default=0, compare=False)

    @property
    def fingerprint(self) -> str:
        return self.snippet

    def as_dict(self) -> dict[str, object]:
        """Plain-dict form for the JSON report."""
        return {
            "rule": self.rule,
            "severity": self.severity,
            "path": self.path,
            "line": self.line,
            "end_line": self.end_line or self.line,
            "col": self.col,
            "message": self.message,
            "snippet": self.snippet,
        }


class Rule:
    """Base class for per-file replint rules.

    Subclasses set ``id``/``name``/``severity`` and implement
    :meth:`check`, yielding violations via ``ctx.violation(...)``.
    Registration is explicit through the :func:`rule` decorator so a
    rule module is exactly one import away from being active.
    """

    id: str = "REP000"
    name: str = "unnamed"
    severity: str = "error"

    def check(self, ctx: "FileContext") -> Iterator[Violation]:
        raise NotImplementedError

    def violation(
        self, ctx: "FileContext", node: ast.AST, message: str
    ) -> Violation:
        """A violation of this rule anchored at ``node``."""
        line = getattr(node, "lineno", 1)
        col = getattr(node, "col_offset", 0)
        end_line = getattr(node, "end_lineno", None) or line
        body = getattr(node, "body", None)
        if isinstance(body, list) and body and hasattr(body[0], "lineno"):
            # Compound statements (def/for/with/...) span their whole
            # body; the reported statement is just the header, so a
            # pragma inside the body must not silence the finding.
            end_line = max(line, body[0].lineno - 1)
        return Violation(
            path=ctx.display_path,
            line=line,
            col=col,
            rule=self.id,
            severity=self.severity,
            message=message,
            snippet=ctx.source_line(line).strip(),
            end_line=end_line,
        )


_REGISTRY: dict[str, Rule] = {}


def register(instance: Rule) -> Rule:
    """Register a per-file rule instance under its ``id``."""
    if instance.id in _REGISTRY:
        raise ValueError(f"duplicate rule id {instance.id!r}")
    _REGISTRY[instance.id] = instance
    return instance


def rule(cls: type[Rule]) -> type[Rule]:
    """Class decorator registering a rule instance under its ``id``."""
    register(cls())
    return cls


def all_rules() -> list[Rule]:
    """Every registered per-file rule, ordered by id (imports the rule modules)."""
    import repro.lint.rules  # noqa: F401  (registration side effect)

    return [_REGISTRY[rule_id] for rule_id in sorted(_REGISTRY)]


def module_name_for(display_path: str) -> str:
    """The dotted module name a repo-relative file path denotes.

    ``src/repro/mobility/handoff.py`` is ``repro.mobility.handoff``; a
    leading ``src`` layout directory is dropped, ``__init__.py`` names
    the package itself.  Paths outside a ``src`` layout map verbatim
    (``tests/data/lint/dirty/radio/survey.py`` →
    ``tests.data.lint.dirty.radio.survey``) so fixture packages get
    stable, resolvable names too.
    """
    parts = list(Path(display_path).parts)
    if parts and parts[-1].endswith(".py"):
        parts[-1] = parts[-1][: -len(".py")]
    if parts and parts[-1] == "__init__":
        parts.pop()
    if "src" in parts:
        parts = parts[parts.index("src") + 1 :]
    return ".".join(part for part in parts if part)


def terminal_name(node: ast.AST) -> str | None:
    """Last identifier of a name or attribute chain (``self._tracer`` -> ``_tracer``)."""
    if isinstance(node, ast.Attribute):
        return node.attr
    if isinstance(node, ast.Name):
        return node.id
    return None


class ImportTable:
    """Maps local aliases to fully qualified import paths for one module.

    The table is flat (function-level imports are folded in with
    module-level ones); replint resolves *names*, not scopes, which is
    the right precision for spotting calls into banned modules.

    Relative imports are resolved against ``module_name`` (the dotted
    path of the file being parsed): under ``repro.mobility.handoff``,
    ``from ..core import rng`` binds ``rng`` to ``repro.core.rng`` and
    ``from . import flow`` binds ``flow`` to ``repro.mobility.flow``.
    """

    def __init__(
        self,
        tree: ast.Module,
        module_name: str = "",
        is_package: bool = False,
    ) -> None:
        self._aliases: dict[str, str] = {}
        self._module_name = module_name
        self._is_package = is_package
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.asname is not None:
                        self._aliases[alias.asname] = alias.name
                    else:
                        root = alias.name.split(".", 1)[0]
                        self._aliases[root] = root
            elif isinstance(node, ast.ImportFrom):
                if node.level:
                    base = self._relative_base(node.level)
                    if base is None:
                        continue
                    module = f"{base}.{node.module}" if node.module else base
                elif node.module is not None:
                    module = node.module
                else:
                    continue
                for alias in node.names:
                    local = alias.asname or alias.name
                    self._aliases[local] = f"{module}.{alias.name}"

    def _relative_base(self, level: int) -> str | None:
        """The package a ``level``-dots relative import anchors to."""
        if not self._module_name:
            return None
        parts = self._module_name.split(".")
        if not self._is_package:
            parts = parts[:-1]  # the current *package*, not the module
        if level > 1:
            parts = parts[: len(parts) - (level - 1)]
        if not parts:
            return None
        return ".".join(parts)

    @property
    def aliases(self) -> dict[str, str]:
        """Read-only view of the local-name → qualified-name mapping."""
        return dict(self._aliases)

    def resolve(self, node: ast.AST) -> str | None:
        """The fully qualified dotted name of ``node``, if import-rooted.

        ``np.random.default_rng`` resolves to
        ``numpy.random.default_rng`` under ``import numpy as np``;
        attribute chains rooted in local variables resolve to ``None``.
        """
        parts: list[str] = []
        while isinstance(node, ast.Attribute):
            parts.append(node.attr)
            node = node.value
        if not isinstance(node, ast.Name):
            return None
        qualified = self._aliases.get(node.id)
        if qualified is None:
            return None
        parts.append(qualified)
        return ".".join(reversed(parts))


@dataclass
class FileContext:
    """One parsed file plus the helpers rules need."""

    path: Path
    display_path: str
    source: str
    tree: ast.Module
    imports: ImportTable
    module_name: str = ""
    lines: list[str] = field(default_factory=list)
    _all_nodes: list[ast.AST] | None = field(
        default=None, repr=False, compare=False
    )
    _nodes_by_type: dict[tuple[type, ...], list[ast.AST]] = field(
        default_factory=dict, repr=False, compare=False
    )

    @classmethod
    def parse(cls, path: Path, display_path: str) -> "FileContext":
        # tokenize.open honours a PEP 263 coding cookie (default UTF-8).
        with tokenize.open(path) as handle:
            source = handle.read()
        tree = ast.parse(source, filename=str(path))
        module_name = module_name_for(display_path)
        return cls(
            path=path,
            display_path=display_path,
            source=source,
            tree=tree,
            imports=ImportTable(
                tree,
                module_name=module_name,
                is_package=path.name == "__init__.py",
            ),
            module_name=module_name,
            lines=source.splitlines(),
        )

    def walk(self, *types: type) -> list[ast.AST]:
        """All AST nodes of the given types, from one cached full walk.

        The first call walks the tree once and memoises the flat node
        list; subsequent calls — from *any* rule — filter that list and
        memoise per type-tuple, so ten rules asking for ``ast.Call``
        cost one traversal plus nine list lookups instead of ten
        traversals.  With no arguments, returns every node.
        """
        if self._all_nodes is None:
            self._all_nodes = list(ast.walk(self.tree))
        if not types:
            return self._all_nodes
        cached = self._nodes_by_type.get(types)
        if cached is None:
            cached = [node for node in self._all_nodes if isinstance(node, types)]
            self._nodes_by_type[types] = cached
        return cached

    def source_line(self, lineno: int) -> str:
        if 1 <= lineno <= len(self.lines):
            return self.lines[lineno - 1]
        return ""

    @property
    def path_parts(self) -> tuple[str, ...]:
        return tuple(part.lower() for part in Path(self.display_path).parts)

    def in_package_dir(self, name: str) -> bool:
        """Is this file under a directory called ``name`` (e.g. 'experiments')?"""
        return name.lower() in self.path_parts[:-1]

    def is_module(self, *suffixes: str) -> bool:
        """Does the file path end with any of ``suffixes`` (posix style)?"""
        posix = Path(self.display_path).as_posix()
        return any(posix.endswith(suffix) for suffix in suffixes)

    def suppressed(
        self, lineno: int, rule_id: str, end_lineno: int | None = None
    ) -> bool:
        """Is ``rule_id`` pragma-silenced anywhere on ``lineno..end_lineno``?

        Multi-line statements carry their pragma wherever the formatter
        left room — typically the last physical line of a wrapped call —
        so every line of the span is consulted, not just the anchor.
        """
        last = max(lineno, end_lineno or lineno)
        last = min(last, len(self.lines))
        for candidate in range(lineno, last + 1):
            match = _PRAGMA_RE.search(self.source_line(candidate))
            if match is None:
                continue
            named = match.group("rules")
            if named is None:
                return True
            if rule_id in {part.strip() for part in named.split(",")}:
                return True
        return False


@dataclass(frozen=True)
class LintResult:
    """Outcome of one lint run."""

    violations: list[Violation]
    baselined: list[Violation]
    files_scanned: int

    @property
    def counts(self) -> dict[str, int]:
        """New-violation counts per rule id."""
        totals: dict[str, int] = {}
        for violation in self.violations:
            totals[violation.rule] = totals.get(violation.rule, 0) + 1
        return dict(sorted(totals.items()))


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """All ``*.py`` files under ``paths`` (files pass through verbatim)."""
    for path in paths:
        if path.is_file():
            yield path
            continue
        for candidate in sorted(path.rglob("*.py")):
            if not _SKIP_DIR_NAMES.intersection(candidate.parts):
                yield candidate


def _display_path(path: Path, root: Path) -> str:
    try:
        return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        return path.as_posix()


def _parse_error(display_path: str, exc: SyntaxError) -> Violation:
    return Violation(
        path=display_path,
        line=exc.lineno or 1,
        col=(exc.offset or 1) - 1,
        rule="REP000",
        severity="error",
        message=f"file does not parse: {exc.msg}",
        snippet=(exc.text or "").strip(),
        end_line=exc.lineno or 1,
    )


def _decode_error(path: Path, display_path: str, exc: UnicodeDecodeError) -> Violation:
    """REP000 at the first line of ``path`` that does not decode."""
    for lineno, raw in enumerate(path.read_bytes().splitlines(), start=1):
        try:
            raw.decode(exc.encoding)
        except UnicodeDecodeError:
            break
    return Violation(
        path=display_path,
        line=lineno,
        col=0,
        rule="REP000",
        severity="error",
        message=f"file does not decode as {exc.encoding}: {exc.reason}",
        snippet=raw.decode(exc.encoding, errors="replace").strip(),
        end_line=lineno,
    )


def parse_files(
    paths: Sequence[Path], root: Path | None = None
) -> tuple[list[FileContext], list[Violation]]:
    """Parse every python file under ``paths`` exactly once.

    Returns the shared :class:`FileContext` cache both lint passes run
    over, plus a REP000 violation per file that does not decode or parse.
    """
    base = root if root is not None else Path.cwd()
    contexts: list[FileContext] = []
    errors: list[Violation] = []
    for path in iter_python_files(paths):
        display = _display_path(path, base)
        try:
            contexts.append(FileContext.parse(path, display))
        except SyntaxError as exc:
            errors.append(_parse_error(display, exc))
        except UnicodeDecodeError as exc:
            errors.append(_decode_error(path, display, exc))
    return contexts, errors


def check_context(ctx: FileContext, rules: Iterable[Rule]) -> list[Violation]:
    """Run the file-pass ``rules`` over one parsed context."""
    violations: list[Violation] = []
    for active in rules:
        for violation in active.check(ctx):
            if not ctx.suppressed(violation.line, violation.rule, violation.end_line):
                violations.append(violation)
    return sorted(violations)


def lint_paths(
    paths: Sequence[Path],
    root: Path | None = None,
    project: bool = True,
) -> LintResult:
    """Lint every python file under ``paths`` (both passes).

    Args:
        paths: Files or directories to scan.
        root: Directory violation paths are reported relative to
            (default: the current working directory), which is also the
            frame of reference baseline entries are stored in.
        project: Run the whole-program pass (symbol table, call graph,
            ``ProjectRule`` registry) after the per-file pass.
    """
    active = all_rules()
    contexts, violations = parse_files(paths, root=root)
    violations = list(violations)
    for ctx in contexts:
        violations.extend(check_context(ctx, active))
    if project:
        from repro.lint.project import check_project

        violations.extend(check_project(contexts))
    return LintResult(
        violations=sorted(violations), baselined=[], files_scanned=len(contexts)
    )
