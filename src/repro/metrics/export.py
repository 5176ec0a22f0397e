"""Metric snapshot serialisation: JSONL, Prometheus text format, diffing.

Two output formats:

* **JSONL** (``.jsonl``) — the ``repro.metrics`` kind of
  :mod:`repro.artifacts`: a header counting the metrics, then one line
  per metric carrying both the mergeable state (per-origin parts,
  reservoir items) and the derived summary scalars.  A fixed experiment
  set + seed produces byte-identical files — the CI gate compares serial
  and parallel campaign exports with ``cmp``.
* **Prometheus text exposition** — counters/gauges map directly and
  quantile sketches to ``summary`` series.  Dots become underscores
  (Prometheus names cannot carry ``.``).

:func:`load_snapshot` reads the JSONL form back into a plain snapshot
dict, so ``repro inspect show|diff`` and :func:`diff_snapshots` work on
files exactly as on in-memory snapshots.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Any

from repro import artifacts
from repro.core.results import ResultTable
from repro.metrics.core import SNAPSHOT_SCHEMA_VERSION, merge_snapshots, summarize_entry

__all__ = [
    "MetricDelta",
    "diff_snapshots",
    "diff_table",
    "load_snapshot",
    "summary_table",
    "to_prometheus_lines",
    "write_jsonl",
    "write_prometheus",
]


def _record(name: str, entry: dict[str, Any]) -> dict[str, Any]:
    return {**entry, "name": name, "summary": summarize_entry(entry)}


def write_jsonl(
    snapshot: dict[str, Any], path: str, meta: dict[str, Any] | None = None
) -> int:
    """Write the JSONL form to ``path`` (metrics sorted); returns the metric count."""
    metrics = snapshot.get("metrics", {})
    fields = {
        "snapshot_schema_version": snapshot.get("schema_version", SNAPSHOT_SCHEMA_VERSION),
        "metrics": len(metrics),
    }
    records = (_record(name, metrics[name]) for name in sorted(metrics))
    return artifacts.write_jsonl(path, "metrics", fields, records, meta)


def load_snapshot(path: str) -> dict[str, Any]:
    """Load a metrics JSONL file back into a snapshot dict.

    Raises:
        ValueError: on empty, truncated or non-metrics input (see
            :func:`repro.artifacts.read_jsonl`).
    """
    header, records = artifacts.read_jsonl(path, "metrics")
    metrics: dict[str, Any] = {}
    for record in records:
        if not {"name", "kind", "parts"} <= set(record):
            raise ValueError(f"truncated or malformed metrics record: {record!r}")
        name = record["name"]
        metrics[name] = {
            key: value for key, value in record.items() if key not in ("name", "summary")
        }
    snapshot = {
        "schema_version": header.get("snapshot_schema_version", SNAPSHOT_SCHEMA_VERSION),
        "metrics": metrics,
    }
    # Normalise through a self-merge so list/tuple shapes are canonical.
    return merge_snapshots([snapshot])


def _prom_name(name: str) -> str:
    return name.replace(".", "_")


def _prom_value(value: float) -> str:
    if math.isnan(value):
        return "NaN"
    if math.isinf(value):
        return "+Inf" if value > 0 else "-Inf"
    return repr(float(value))


def to_prometheus_lines(snapshot: dict[str, Any]) -> list[str]:
    """Serialise a snapshot in the Prometheus text exposition format."""
    lines: list[str] = []
    metrics = snapshot.get("metrics", {})
    for name in sorted(metrics):
        entry = metrics[name]
        kind = entry["kind"]
        prom = _prom_name(name)
        summary = summarize_entry(entry)
        if kind == "counter":
            lines.append(f"# TYPE {prom} counter")
            lines.append(f"{prom} {_prom_value(summary['value'])}")
        elif kind == "gauge":
            lines.append(f"# TYPE {prom} gauge")
            lines.append(f"{prom} {_prom_value(summary['value'])}")
        elif kind == "quantile":
            lines.append(f"# TYPE {prom} summary")
            for pct, key in ((0.5, "p50"), (0.9, "p90"), (0.99, "p99")):
                lines.append(f'{prom}{{quantile="{pct}"}} {_prom_value(summary[key])}')
            total = summary["mean"] * summary["count"]
            lines.append(f"{prom}_sum {_prom_value(total)}")
            lines.append(f"{prom}_count {_prom_value(summary['count'])}")
    return lines


def write_prometheus(snapshot: dict[str, Any], path: str) -> int:
    """Write the Prometheus text form to ``path``; returns the line count."""
    lines = to_prometheus_lines(snapshot)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    return len(lines)


def summary_table(snapshot: dict[str, Any], title: str = "Metrics") -> ResultTable:
    """Human-readable rendering of a snapshot (one row per metric)."""
    table = ResultTable(title, ["metric", "kind", "count", "value", "detail"])
    metrics = snapshot.get("metrics", {})
    for name in sorted(metrics):
        entry = metrics[name]
        summary = summarize_entry(entry)
        kind = entry["kind"]
        if kind in ("counter", "gauge"):
            table.add_row([name, kind, "", f"{summary['value']:g}", ""])
        elif kind == "quantile":
            table.add_row(
                [
                    name,
                    kind,
                    f"{summary['count']:g}",
                    f"{summary['p50']:g}",
                    f"p90 {summary['p90']:g} mean {summary['mean']:g}",
                ]
            )
    return table


@dataclass(frozen=True)
class MetricDelta:
    """One differing summary field between two snapshots."""

    name: str
    field: str
    value_a: float | None
    value_b: float | None
    relative: float

    @property
    def missing(self) -> bool:
        return self.value_a is None or self.value_b is None


def _relative(a: float, b: float) -> float:
    scale = max(abs(a), abs(b))
    if scale == 0.0:
        return 0.0
    return abs(a - b) / scale


def diff_snapshots(
    a: dict[str, Any], b: dict[str, Any], tolerance: float = 0.0
) -> list[MetricDelta]:
    """Summary-level differences between two snapshots.

    Returns one :class:`MetricDelta` per (metric, field) whose relative
    difference exceeds ``tolerance``; metrics present on one side only
    are reported with the absent side as ``None``.
    """
    metrics_a = a.get("metrics", {})
    metrics_b = b.get("metrics", {})
    deltas: list[MetricDelta] = []
    for name in sorted(set(metrics_a) | set(metrics_b)):
        entry_a = metrics_a.get(name)
        entry_b = metrics_b.get(name)
        if entry_a is None or entry_b is None:
            present = summarize_entry(entry_a or entry_b)
            field = next(iter(sorted(present)))
            value = present[field]
            deltas.append(
                MetricDelta(
                    name=name,
                    field=field,
                    value_a=value if entry_a is not None else None,
                    value_b=value if entry_b is not None else None,
                    relative=float("inf"),
                )
            )
            continue
        summary_a = summarize_entry(entry_a)
        summary_b = summarize_entry(entry_b)
        for field in sorted(set(summary_a) | set(summary_b)):
            va = summary_a.get(field)
            vb = summary_b.get(field)
            if va is None or vb is None:
                deltas.append(MetricDelta(name, field, va, vb, float("inf")))
                continue
            relative = _relative(va, vb)
            if relative > tolerance:
                deltas.append(MetricDelta(name, field, va, vb, relative))
    return deltas


def diff_table(deltas: list[MetricDelta]) -> ResultTable:
    """Human-readable rendering of :func:`diff_snapshots` output."""
    table = ResultTable("Metrics diff", ["metric", "field", "a", "b", "rel diff"])
    for delta in deltas:
        table.add_row(
            [
                delta.name,
                delta.field,
                "absent" if delta.value_a is None else f"{delta.value_a:g}",
                "absent" if delta.value_b is None else f"{delta.value_b:g}",
                "-" if delta.missing else f"{delta.relative:.2%}",
            ]
        )
    if not deltas:
        table.add_row(["(identical within tolerance)", "", "", "", ""])
    return table
