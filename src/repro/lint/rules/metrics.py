"""REP006: metric-name hygiene for the KPI registry.

Metric names are a public, diffable surface: ``repro inspect diff`` and
the bench KPI gate match on them byte-for-byte, and the Prometheus
exporter folds them into series names.  A typo'd or unit-less name
silently forks a KPI series, so names registered from source must

* match ``[a-z0-9_.]+`` (lowercase dotted — no dashes, no camelCase), and
* end in a unit suffix from :data:`repro.core.units.UNIT_DIMENSIONS`
  (``_ms``, ``_bps``, ``_nj``, ...) or one of the dimensionless suffixes
  ``_count`` / ``_ratio``.

The rule fires on the KPI helpers (``record_kpi``,
``record_kpi_samples``, ``bump_kpi`` from ``repro.experiments.common``)
and on the registry accessors (``.counter``/``.gauge``/``.welford``/
``.quantile``/``.histogram``) when the receiver is recognisably a metric
registry — a name or attribute containing ``registry``/``metrics``,
which covers ``instruments.current().registry``.  f-string names are
checked on their literal fragments (the trailing fragment carries the
unit suffix); names built by opaque expressions are out of static reach
and skipped, as is the :mod:`repro.metrics` package itself.
"""

from __future__ import annotations

import ast
from collections.abc import Iterator

from repro.core.units import unit_suffix
from repro.lint.engine import FileContext, Rule, Violation, rule

#: Helper functions (fully qualified) whose first argument is a metric name.
_KPI_HELPERS = {
    "repro.experiments.common.record_kpi",
    "repro.experiments.common.record_kpi_samples",
    "repro.experiments.common.bump_kpi",
}

#: Registry accessor methods whose first argument is a metric name.
_ACCESSORS = {"counter", "gauge", "welford", "quantile", "histogram"}

#: Dimensionless suffixes allowed alongside the units lattice.
_EXTRA_SUFFIXES = ("_count", "_ratio")

_NAME_CHARS = frozenset("abcdefghijklmnopqrstuvwxyz0123456789_.")


def _registry_receiver(node: ast.AST) -> bool:
    """Does ``node`` plausibly evaluate to a metric registry?"""
    if isinstance(node, ast.Name):
        lowered = node.id.lower()
        return "registry" in lowered or "metrics" in lowered
    if isinstance(node, ast.Attribute):
        lowered = node.attr.lower()
        return "registry" in lowered or "metrics" in lowered
    return False


def _name_parts(node: ast.AST) -> list[str | None] | None:
    """The metric-name expression as literal fragments.

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
class MetricNameRule(Rule):
    """Flag malformed or unit-less metric names at registration sites."""

    id = "REP006"
    name = "metric-names"
    severity = "error"

    def check(self, ctx: FileContext) -> Iterator[Violation]:
        if ctx.in_package_dir("metrics"):
            return  # the registry implementation handles names generically
        for node in ctx.walk(ast.Call):
            name_node = self._metric_name_argument(ctx, node)
            if name_node is None:
                continue
            parts = _name_parts(name_node)
            if parts is None:
                continue  # dynamically built name: out of static reach
            yield from self._check_name(ctx, name_node, parts)

    def _metric_name_argument(self, ctx: FileContext, node: ast.Call) -> ast.AST | None:
        """The metric-name argument of ``node``, if it is a registration call."""
        qualified = ctx.imports.resolve(node.func)
        is_registration = qualified in _KPI_HELPERS or (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _ACCESSORS
            and _registry_receiver(node.func.value)
        )
        if not is_registration:
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
                f"metric name contains {', '.join(map(repr, bad))}: "
                "names must match [a-z0-9_.]+",
            )
            return
        tail = parts[-1]
        if tail is None:
            return  # interpolated tail: suffix is not statically known
        if not _has_unit_suffix(tail):
            yield self.violation(
                ctx,
                node,
                f"metric name ends in {tail.rsplit('.', 1)[-1]!r}: names must "
                "end in a core.units suffix (_ms, _bps, ...) or _count/_ratio",
            )
