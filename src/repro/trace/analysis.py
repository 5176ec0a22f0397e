"""Aggregation over traces: per-name summaries and trace-to-trace diffs.

These power ``repro inspect show|diff`` on traces and the optional
``RunRecord.trace_summary`` payload.  Everything here works on the query
API only, so it applies equally to a live :class:`~repro.trace.core.Tracer`
and to one re-loaded from disk.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

from repro.core.results import ResultTable
from repro.trace.core import CounterRecord, InstantRecord, NullTracer, SpanRecord, Tracer

__all__ = ["TraceDiff", "diff_traces", "summarize", "summary_dict", "summary_table"]


def summary_dict(tracer: Tracer | NullTracer) -> dict[str, Any]:
    """JSON-able per-kind aggregate of a trace.

    Spans aggregate to ``{count, total_s}`` per name, counters to
    ``{samples, last}`` per name, instants to a count per name.
    """
    spans: dict[str, dict[str, Any]] = {}
    instants: dict[str, int] = {}
    counters: dict[str, dict[str, Any]] = {}
    for record in tracer.records():
        if type(record) is SpanRecord:
            agg = spans.setdefault(record.name, {"count": 0, "total_s": 0.0})
            agg["count"] += 1
            agg["total_s"] += record.duration_s
        elif type(record) is InstantRecord:
            instants[record.name] = instants.get(record.name, 0) + 1
        elif type(record) is CounterRecord:
            agg = counters.setdefault(record.name, {"samples": 0, "last": 0.0})
            agg["samples"] += 1
            agg["last"] = record.value
    stats = tracer.stats()
    return {
        "spans": {name: spans[name] for name in sorted(spans)},
        "instants": {name: instants[name] for name in sorted(instants)},
        "counters": {name: counters[name] for name in sorted(counters)},
        "emitted": stats.emitted,
        "dropped": stats.dropped,
    }


def summarize(tracer: Tracer | NullTracer) -> dict[str, int]:
    """Compact emission counts for :class:`~repro.runner.instrument.RunRecord`."""
    stats = tracer.stats()
    return {
        "spans": stats.spans,
        "instants": stats.instants,
        "counter_samples": stats.counter_samples,
        "dropped": stats.dropped,
    }


def summary_table(tracer: Tracer | NullTracer) -> ResultTable:
    """Human-readable rendering of :func:`summary_dict`."""
    summary = summary_dict(tracer)
    table = ResultTable("Trace summary", ["kind", "name", "count", "detail"])
    for name, agg in summary["spans"].items():
        table.add_row(["span", name, agg["count"], f"total {agg['total_s'] * 1e3:.3f} ms"])
    for name, count in summary["instants"].items():
        table.add_row(["instant", name, count, ""])
    for name, agg in summary["counters"].items():
        table.add_row(["counter", name, agg["samples"], f"last {agg['last']:g}"])
    table.add_row(["total", "(emitted)", summary["emitted"], f"dropped {summary['dropped']}"])
    return table


@dataclass(frozen=True)
class TraceDiff:
    """Differences between two traces, keyed by record name.

    Each entry maps a name to ``(value_a, value_b)``: span counts, span
    total durations (seconds), instant counts, or final counter values.
    """

    span_counts: dict[str, tuple[int, int]]
    span_totals_s: dict[str, tuple[float, float]]
    instant_counts: dict[str, tuple[int, int]]
    counter_finals: dict[str, tuple[float, float]]

    @property
    def identical(self) -> bool:
        return not (
            self.span_counts or self.span_totals_s or self.instant_counts or self.counter_finals
        )

    def table(self) -> ResultTable:
        """Render the diff (one row per differing name)."""
        table = ResultTable("Trace diff", ["kind", "name", "a", "b"])
        for name, (a, b) in sorted(self.span_counts.items()):
            table.add_row(["span count", name, a, b])
        for name, (a, b) in sorted(self.span_totals_s.items()):
            table.add_row(["span total (ms)", name, f"{a * 1e3:.3f}", f"{b * 1e3:.3f}"])
        for name, (a, b) in sorted(self.instant_counts.items()):
            table.add_row(["instant count", name, a, b])
        for name, (a, b) in sorted(self.counter_finals.items()):
            table.add_row(["counter final", name, f"{a:g}", f"{b:g}"])
        if self.identical:
            table.add_row(["(identical)", "", "", ""])
        return table


def _pairwise(
    a: dict[str, Any], b: dict[str, Any], default: Any
) -> dict[str, tuple[Any, Any]]:
    out = {}
    for name in sorted(set(a) | set(b)):
        va = a.get(name, default)
        vb = b.get(name, default)
        if va != vb:
            out[name] = (va, vb)
    return out


def diff_traces(a: Tracer | NullTracer, b: Tracer | NullTracer) -> TraceDiff:
    """Compare two traces of the same experiment (e.g. two seeds or commits)."""
    sa, sb = summary_dict(a), summary_dict(b)
    return TraceDiff(
        span_counts=_pairwise(
            {k: v["count"] for k, v in sa["spans"].items()},
            {k: v["count"] for k, v in sb["spans"].items()},
            0,
        ),
        span_totals_s=_pairwise(
            {k: v["total_s"] for k, v in sa["spans"].items()},
            {k: v["total_s"] for k, v in sb["spans"].items()},
            0.0,
        ),
        instant_counts=_pairwise(sa["instants"], sb["instants"], 0),
        counter_finals=_pairwise(
            {k: v["last"] for k, v in sa["counters"].items()},
            {k: v["last"] for k, v in sb["counters"].items()},
            0.0,
        ),
    )
