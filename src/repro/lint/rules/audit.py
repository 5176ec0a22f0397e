"""REP012: audit-event name hygiene and side-effect-free probe helpers.

Audit events are a public, diffable surface twice over: ledger totals are
exported as ``audit.*`` KPIs through :mod:`repro.metrics`, and flight
recorder dumps are compared byte-for-byte by ``repro inspect diff`` and the
CI determinism gate.  A misspelt event name silently forks a ledger, so
names registered from source must

* start with the ``audit.`` namespace prefix,
* match ``[a-z0-9_.]+`` (lowercase dotted — no dashes, no camelCase), and
* end in a unit suffix from :data:`repro.core.units.UNIT_DIMENSIONS` or
  one of the dimensionless suffixes ``_count`` / ``_ratio``.

The rule fires on the auditor registration methods (``.note``/``.flag``/
``.probe``/``.observe``/``.watch``) when the receiver is recognisably an
auditor — a name or attribute containing ``audit``, which covers
``instruments.current().auditor``.  f-string names are checked on their
literal fragments; names built by opaque expressions are out of static
reach and skipped, as is the :mod:`repro.audit` package itself.

The second half of the rule keeps probes honest: by convention, helpers
named ``_audit_*`` are *read-only* observers called from simulation hot
paths, so an always-on audit layer cannot perturb the very run it is
checking (registration helpers that do mutate state are named
``_register_audit``).  Any attribute/subscript assignment or ``del``
inside an ``_audit_*`` function is therefore a probe mutating simulation
state — the one bug class that would make audited and unaudited runs
diverge.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.core.units import unit_suffix
from repro.lint.engine import FileContext, Rule, Violation, rule

#: Auditor methods whose first argument is an audit event name.
_REGISTRATION_METHODS = frozenset({"note", "flag", "probe", "observe", "watch"})

#: Dimensionless suffixes allowed alongside the units lattice.
_EXTRA_SUFFIXES = ("_count", "_ratio")

_NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_.")

#: Prefix naming the read-only probe-helper convention.
_PROBE_HELPER_PREFIX = "_audit_"


def _auditor_receiver(node: ast.AST) -> bool:
    """Does ``node`` plausibly evaluate to an auditor?"""
    if isinstance(node, ast.Name):
        return "audit" in node.id.lower()
    if isinstance(node, ast.Attribute):
        return "audit" in node.attr.lower()
    return False


def _name_parts(node: ast.AST) -> list[str | None] | None:
    """The event-name expression as literal fragments.

    ``None`` entries stand for interpolated values; a ``None`` return
    means the expression is not statically analysable at all.
    """
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return [node.value]
    if isinstance(node, ast.JoinedStr):
        parts: list[str | None] = []
        for value in node.values:
            if isinstance(value, ast.Constant) and isinstance(value.value, str):
                parts.append(value.value)
            else:
                parts.append(None)
        return parts
    return None


def _has_unit_suffix(tail: str) -> bool:
    last = tail.rsplit(".", 1)[-1]
    if last.endswith(_EXTRA_SUFFIXES):
        return True
    return unit_suffix(last) is not None


@rule
class AuditHygieneRule(Rule):
    """Namespaced, unit-suffixed audit names; read-only ``_audit_*`` helpers."""

    id = "REP012"
    name = "audit-hygiene"
    severity = "error"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.in_package_dir("audit"):
            return  # the auditor implementation handles names generically
        yield from self._check_event_names(ctx)
        yield from self._check_probe_helpers(ctx)

    def _check_event_names(self, ctx: FileContext) -> Iterator[Violation]:
        for node in ctx.walk(ast.Call):
            name_node = self._event_name_argument(ctx, node)
            if name_node is None:
                continue
            parts = _name_parts(name_node)
            if parts is None:
                continue  # dynamically built name: out of static reach
            yield from self._check_name(ctx, name_node, parts)

    def _event_name_argument(self, ctx: FileContext, node: ast.Call) -> ast.AST | None:
        """The event-name argument of ``node``, if it is a registration call."""
        if not (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _REGISTRATION_METHODS
            and _auditor_receiver(node.func.value)
        ):
            return None
        if node.args:
            return node.args[0]
        for keyword in node.keywords:
            if keyword.arg == "name":
                return keyword.value
        return None

    def _check_name(
        self, ctx: FileContext, node: ast.AST, parts: list[str | None]
    ) -> Iterator[Violation]:
        literal_text = "".join(part for part in parts if part is not None)
        bad = sorted({ch for ch in literal_text if ch not in _NAME_CHARS})
        if bad:
            yield self.violation(
                ctx,
                node,
                f"audit event name contains {', '.join(map(repr, bad))}: "
                "names must match [a-z0-9_.]+",
            )
            return
        head = parts[0]
        if head is not None and not head.startswith("audit."):
            yield self.violation(
                ctx,
                node,
                f"audit event name starts with {head.split('.', 1)[0]!r}: names "
                "must live under the 'audit.' namespace so exported KPIs and "
                "flight-recorder dumps stay greppable as one family",
            )
            return
        tail = parts[-1]
        if tail is None:
            return  # interpolated tail: suffix is not statically known
        if not _has_unit_suffix(tail):
            yield self.violation(
                ctx,
                node,
                f"audit event name ends in {tail.rsplit('.', 1)[-1]!r}: names "
                "must end in a core.units suffix (_s, _bytes, ...) or "
                "_count/_ratio",
            )

    def _check_probe_helpers(self, ctx: FileContext) -> Iterator[Violation]:
        for fn in ctx.walk(ast.FunctionDef):
            if not fn.name.startswith(_PROBE_HELPER_PREFIX):
                continue
            for node in ast.walk(fn):
                if isinstance(node, (ast.Assign, ast.AugAssign, ast.AnnAssign)):
                    targets = (
                        node.targets
                        if isinstance(node, ast.Assign)
                        else [node.target]
                    )
                    if not any(
                        isinstance(t, (ast.Attribute, ast.Subscript)) for t in targets
                    ):
                        continue
                elif not isinstance(node, ast.Delete):
                    continue
                yield self.violation(
                    ctx,
                    node,
                    f"probe helper {fn.name!r} mutates state: _audit_* "
                    "functions are read-only observers (an audit layer that "
                    "perturbs the run cannot certify it); mutate from a "
                    "_register_audit helper or rename the function",
                )
