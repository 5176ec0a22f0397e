"""The metric registry: named KPIs with deterministic merge semantics.

A :class:`MetricRegistry` collects three metric kinds under stable dotted
names (``fig6.ho_latency.5g_5g.mean_ms``), the shapes the paper reports
its results in (counts, means, CDFs):

* **counter** — monotone accumulator (``inc``);
* **gauge** — last-set scalar, the natural shape for headline KPIs;
* **quantile** — mergeable bottom-k reservoir
  (:class:`~repro.metrics.sketches.ReservoirQuantile`).

Every registry carries an ``origin`` tag (the campaign runner uses
``"<experiment>:<seed>"``) and its :meth:`~MetricRegistry.snapshot` keeps
per-origin *parts* rather than pre-folded values.  That is what makes
:func:`merge_snapshots` order-independent down to the byte: a merge is a
set union of parts keyed by origin, and every query folds parts in sorted
origin order — so N per-worker registries from a parallel campaign merge
into exactly the snapshot a serial campaign produces, regardless of
completion order.  Duplicate origins must carry identical parts (the same
run observed twice); conflicting duplicates raise.

Experiments record into the ``registry`` field of
:func:`repro.instruments.current`.  When nothing is installed,
:data:`NULL_REGISTRY` absorbs all recording at the cost of one no-op
call.

Metric names must match ``[a-z0-9_.]+`` — the REP006 lint rule further
requires a unit suffix from ``repro.core.units.UNIT_DIMENSIONS`` (or
``_count``/``_ratio``) on names registered from source code.
"""

from __future__ import annotations

import re
from typing import Any

from repro.metrics.sketches import DEFAULT_RESERVOIR_K, ReservoirQuantile, interpolate

__all__ = [
    "Counter",
    "Gauge",
    "MetricRegistry",
    "NULL_REGISTRY",
    "NullRegistry",
    "SNAPSHOT_SCHEMA_VERSION",
    "fold_metric_name",
    "merge_snapshots",
    "summarize_entry",
]

SNAPSHOT_SCHEMA_VERSION = 1

_NAME_RE = re.compile(r"^[a-z0-9_.]+$")


def _check_name(name: str) -> str:
    if not _NAME_RE.match(name):
        raise ValueError(
            f"invalid metric name {name!r}: must match [a-z0-9_.]+ "
            "(lowercase dotted, unit-suffixed — see REP006)"
        )
    return name


def fold_metric_name(name: str, prefix: str = "") -> str:
    """Map an arbitrary label to a valid metric name.

    Characters outside ``[a-z0-9_.]`` fold to ``_`` after lowercasing, so
    user-facing labels ("wired-bottleneck", span names) become stable
    registry keys.  ``prefix`` is joined with a dot when given.
    """
    folded = "".join(
        ch if (ch.isascii() and (ch.islower() or ch.isdigit() or ch in "._")) else "_"
        for ch in name.lower()
    )
    return f"{prefix}.{folded}" if prefix else folded


class Counter:
    """A monotone accumulator."""

    __slots__ = ("name", "value")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0

    def inc(self, delta: float = 1.0) -> None:
        """Add ``delta`` (must be non-negative — counters only go up)."""
        if delta < 0:
            raise ValueError(f"counter {self.name!r} cannot decrease (delta={delta})")
        self.value += float(delta)


class Gauge:
    """A last-set scalar; ``seq`` counts sets so merges pick the last write."""

    __slots__ = ("name", "value", "seq")

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0.0
        self.seq = 0

    def set(self, value: float) -> None:
        """Record the current value of the KPI."""
        self.value = float(value)
        self.seq += 1


class MetricRegistry:
    """One origin's worth of metrics; see the module docstring."""

    def __init__(self, origin: str = "") -> None:
        self.origin = origin
        self._metrics: dict[str, Any] = {}
        self._kinds: dict[str, str] = {}

    def __len__(self) -> int:
        return len(self._metrics)

    def names(self) -> list[str]:
        """Sorted names of all registered metrics."""
        return sorted(self._metrics)

    def get(self, name: str) -> Any:
        """The live metric object registered under ``name`` (KeyError if absent)."""
        return self._metrics[name]

    def _register(self, name: str, kind: str, factory) -> Any:
        existing = self._kinds.get(name)
        if existing is not None:
            if existing != kind:
                raise ValueError(
                    f"metric {name!r} already registered as {existing}, not {kind}"
                )
            return self._metrics[name]
        _check_name(name)
        metric = factory()
        self._metrics[name] = metric
        self._kinds[name] = kind
        return metric

    def counter(self, name: str) -> Counter:
        """Get or create the counter ``name``."""
        return self._register(name, "counter", lambda: Counter(name))

    def gauge(self, name: str) -> Gauge:
        """Get or create the gauge ``name``."""
        return self._register(name, "gauge", lambda: Gauge(name))

    def quantile(self, name: str, k: int = DEFAULT_RESERVOIR_K) -> ReservoirQuantile:
        """Get or create the reservoir quantile sketch ``name``.

        The sketch's priority tag is ``"<origin>|<name>"`` so each series
        draws an independent, reproducible retention pattern.
        """
        return self._register(
            name, "quantile", lambda: ReservoirQuantile(k=k, tag=f"{self.origin}|{name}")
        )

    # ------------------------------------------------------------- snapshot
    def snapshot(self) -> dict[str, Any]:
        """JSON-able, mergeable state of every metric (sorted by name).

        Metrics that were registered but never observed are omitted: an
        empty sketch carries no information and would drag non-finite
        min/max sentinels into the export.
        """
        metrics: dict[str, Any] = {}
        for name in self.names():
            entry = self._entry(name)
            if entry is not None:
                metrics[name] = entry
        return {"schema_version": SNAPSHOT_SCHEMA_VERSION, "metrics": metrics}

    def _entry(self, name: str) -> dict[str, Any] | None:
        metric = self._metrics[name]
        kind = self._kinds[name]
        origin = self.origin
        if kind == "counter":
            return {"kind": kind, "parts": {origin: metric.value}}
        if kind == "gauge":
            if metric.seq == 0:
                return None
            return {"kind": kind, "parts": {origin: [metric.seq, metric.value]}}
        if metric.count == 0:
            return None
        return {
            "kind": kind,
            "k": metric.k,
            "parts": {origin: [metric.count, metric.total, metric.minimum, metric.maximum]},
            "items": metric.items(),
        }


def merge_snapshots(snapshots) -> dict[str, Any]:
    """Merge registry snapshots into one campaign-level snapshot.

    Order-independent and associative: parts are unioned by origin,
    reservoir items are unioned then truncated to the k smallest
    priorities, and all output collections are sorted.  Merging the same
    origin twice is a no-op when the parts agree and an error when they
    conflict (two different runs claiming one origin).

    Raises:
        ValueError: on kind/shape mismatches or conflicting duplicate
            origins.
    """
    merged: dict[str, dict[str, Any]] = {}
    for snapshot in snapshots:
        if snapshot is None:
            continue
        for name, entry in snapshot.get("metrics", {}).items():
            target = merged.get(name)
            if target is None:
                merged[name] = _copy_entry(entry)
                continue
            _merge_entry(name, target, entry)
    for name, entry in merged.items():
        entry["parts"] = {origin: entry["parts"][origin] for origin in sorted(entry["parts"])}
        if entry["kind"] == "quantile":
            entry["items"] = sorted(
                (list(item) for item in {(k, v) for k, v in entry["items"]}),
            )[: entry["k"]]
    return {
        "schema_version": SNAPSHOT_SCHEMA_VERSION,
        "metrics": {name: merged[name] for name in sorted(merged)},
    }


def _copy_entry(entry: dict[str, Any]) -> dict[str, Any]:
    copy = {key: value for key, value in entry.items() if key not in ("parts", "items")}
    copy["parts"] = dict(entry["parts"])
    if entry["kind"] == "quantile":
        copy["items"] = [tuple(item) for item in entry["items"]]
    return copy


def _merge_entry(name: str, target: dict[str, Any], entry: dict[str, Any]) -> None:
    if target["kind"] != entry["kind"]:
        raise ValueError(
            f"metric {name!r}: cannot merge kind {entry['kind']} into {target['kind']}"
        )
    kind = entry["kind"]
    if kind == "quantile" and target["k"] != entry["k"]:
        raise ValueError(f"metric {name!r}: reservoir sizes differ ({target['k']} vs {entry['k']})")
    for origin, part in entry["parts"].items():
        existing = target["parts"].get(origin)
        if existing is None:
            target["parts"][origin] = part
        elif existing != part:
            raise ValueError(
                f"metric {name!r}: conflicting parts for origin {origin!r}"
            )
    if kind == "quantile":
        target["items"].extend(tuple(item) for item in entry["items"])


def summarize_entry(entry: dict[str, Any]) -> dict[str, float]:
    """Representative scalars of one snapshot entry.

    Parts fold in sorted-origin order, so the same snapshot always
    summarizes to the same floats.  Gauges resolve to the part with the
    lexicographically greatest origin (KPI gauges are namespaced per
    experiment, so cross-origin conflicts indicate a naming bug rather
    than a meaningful "last write").
    """
    kind = entry["kind"]
    parts = [entry["parts"][origin] for origin in sorted(entry["parts"])]
    if kind == "counter":
        return {"value": float(sum(parts))}
    if kind == "gauge":
        return {"value": float(parts[-1][1])}
    if kind == "quantile":
        count = sum(int(part[0]) for part in parts)
        total = sum(part[1] for part in parts)
        minimum = min(part[2] for part in parts)
        maximum = max(part[3] for part in parts)
        values = sorted(value for _, value in entry["items"])
        return {
            "count": float(count),
            "mean": total / count,
            "p50": interpolate(values, 50.0),
            "p90": interpolate(values, 90.0),
            "p99": interpolate(values, 99.0),
            "min": minimum,
            "max": maximum,
        }
    raise ValueError(f"unknown metric kind {kind!r}")


class _NullMetric:
    """Absorbs recording when no registry is installed."""

    __slots__ = ()

    def inc(self, delta: float = 1.0) -> None:
        pass

    def set(self, value: float) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_METRIC = _NullMetric()


class NullRegistry:
    """The disabled registry: every accessor returns a no-op metric."""

    origin = ""

    __slots__ = ()

    def __len__(self) -> int:
        return 0

    def names(self) -> list[str]:
        return []

    def counter(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def gauge(self, name: str) -> _NullMetric:
        return _NULL_METRIC

    def quantile(self, name: str, k: int = DEFAULT_RESERVOIR_K) -> _NullMetric:
        return _NULL_METRIC

    def snapshot(self) -> dict[str, Any]:
        return {"schema_version": SNAPSHOT_SCHEMA_VERSION, "metrics": {}}


NULL_REGISTRY = NullRegistry()
