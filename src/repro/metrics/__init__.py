"""Mergeable KPI registry, its quantile sketch and exporters.

The paper reports statistical aggregates — RSRP distributions, hand-off
latency CDFs, energy-per-bit curves — and this package is where the
reproduction records its own: experiments register headline KPIs as
counters, gauges and quantile sketches under stable dotted names, the
campaign runner snapshots one registry per run, and per-worker snapshots
merge deterministically into a campaign-level view (byte-identical
serial vs parallel).  See :mod:`repro.metrics.core` for the merge model,
:mod:`repro.metrics.sketches` for the reservoir sketch, and
:mod:`repro.metrics.export` for JSONL/Prometheus output.
The registry a run records into is the ``registry`` field of
:func:`repro.instruments.current`.
"""

from repro.metrics.core import (
    MetricRegistry,
    NULL_REGISTRY,
    NullRegistry,
    fold_metric_name,
    merge_snapshots,
    summarize_entry,
)
from repro.metrics.export import (
    diff_snapshots,
    load_snapshot,
    to_prometheus_lines,
    write_jsonl,
    write_prometheus,
)
from repro.metrics.sketches import ReservoirQuantile

__all__ = [
    "MetricRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "ReservoirQuantile",
    "diff_snapshots",
    "fold_metric_name",
    "load_snapshot",
    "merge_snapshots",
    "summarize_entry",
    "to_prometheus_lines",
    "write_jsonl",
    "write_prometheus",
]
