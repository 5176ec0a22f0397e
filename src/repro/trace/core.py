"""Low-overhead deterministic tracing for the simulator stack.

A :class:`Tracer` records three kinds of typed events into a bounded ring
buffer:

* **spans** — named intervals on virtual time (``begin_s``/``end_s``),
  e.g. one handoff procedure or one radio-state dwell;
* **instants** — point events with attributes, e.g. an A3 trigger;
* **counters** — monotone or sampled series, e.g. cwnd or queue depth.

Timestamps are *virtual* seconds (simulation time), never wall clock, so a
trace is a pure function of the experiment and seed — running the same
experiment twice yields byte-identical exports.  Layers without a virtual
clock (link adaptation, HARQ) pass ``time_s=None`` and get a deterministic
per-series sample index instead.

The disabled path is as close to free as Python allows: instrumented code
holds the tracer of :func:`repro.instruments.current` (looked up once, at
component construction) and either checks one ``enabled`` attribute or
calls a no-op method on the module-level :data:`NULL_TRACER`.
"""

from __future__ import annotations

from collections import deque
from typing import Any, NamedTuple

__all__ = [
    "CounterRecord",
    "InstantRecord",
    "NULL_TRACER",
    "NullTracer",
    "SpanHandle",
    "SpanRecord",
    "TraceStats",
    "Tracer",
]

#: Default ring-buffer capacity (records).  Large enough for a full fig6
#: campaign; a bounded buffer keeps worst-case memory flat for long runs.
DEFAULT_CAPACITY = 1 << 20


class SpanRecord(NamedTuple):
    """A named interval ``[begin_s, end_s]`` on virtual time."""

    name: str
    begin_s: float
    end_s: float
    args: tuple[tuple[str, Any], ...] = ()

    @property
    def duration_s(self) -> float:
        return self.end_s - self.begin_s


class InstantRecord(NamedTuple):
    """A point event at ``time_s`` on virtual time."""

    name: str
    time_s: float
    args: tuple[tuple[str, Any], ...] = ()


class CounterRecord(NamedTuple):
    """One sample of a named numeric series."""

    name: str
    time_s: float
    value: float


# The ring stores each record as a plain tuple ``(kind, *fields)`` and
# :meth:`Tracer.records` rebuilds the NamedTuples.  The cyclic GC stops
# tracking an exact tuple of atomic values, but never a tuple subclass, so
# a ring of NamedTuples (a traced fig7 run emits about two million) would
# be walked by every full collection of the run.
_SPAN, _INSTANT, _COUNTER = 0, 1, 2
_RECORD_TYPES = (SpanRecord, InstantRecord, CounterRecord)


class TraceStats(NamedTuple):
    """Cumulative emission counts (independent of ring-buffer eviction)."""

    spans: int
    instants: int
    counter_samples: int
    emitted: int
    dropped: int


def _freeze_args(args: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    """Sort attributes so record equality and exports are order-independent."""
    # Most hooks pass one attribute; sorting it would only allocate a list.
    return tuple(sorted(args.items())) if len(args) > 1 else tuple(args.items())


class SpanHandle:
    """An open span returned by :meth:`Tracer.begin`; close with :meth:`end`.

    Prefer the context-manager form (:meth:`Tracer.span`) — replint REP005
    flags ``begin`` calls whose handle is dropped or never ended.
    """

    __slots__ = ("_tracer", "name", "begin_s", "_args", "_closed")

    def __init__(self, tracer: "Tracer", name: str, begin_s: float, args: dict[str, Any]):
        self._tracer = tracer
        self.name = name
        self.begin_s = begin_s
        self._args = args
        self._closed = False

    def end(self, end_s: float, **args: Any) -> None:
        """Close the span at virtual time ``end_s`` (idempotent)."""
        if self._closed:
            return
        self._closed = True
        if args:
            merged = dict(self._args)
            merged.update(args)
        else:
            merged = self._args
        self._tracer.complete(self.name, self.begin_s, end_s, **merged)


class _SpanContext:
    """Context manager that reads a virtual clock on entry and exit."""

    __slots__ = ("_tracer", "_name", "_clock", "_args", "_begin_s")

    def __init__(self, tracer: "Tracer", name: str, clock, args: dict[str, Any]):
        self._tracer = tracer
        self._name = name
        self._clock = clock
        self._args = args
        self._begin_s = 0.0

    def __enter__(self) -> "_SpanContext":
        self._begin_s = float(self._clock())
        return self

    def __exit__(self, *exc: Any) -> None:
        self._tracer.complete(self._name, self._begin_s, float(self._clock()), **self._args)


class Tracer:
    """Collects trace records into a bounded ring buffer.

    The buffer is a ``deque`` with ``maxlen``: O(1) append in C, and once
    full the oldest records are evicted first.  All query methods return
    records in emission order, as the NamedTuple record types.
    """

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ring: deque[Any] = deque(maxlen=capacity)
        self._append = self._ring.append
        self._spans_emitted = 0
        self._instants_emitted = 0
        self._counter_samples_emitted = 0
        self._counter_index: dict[str, int] = {}
        self._counter_totals: dict[str, float] = {}

    # ------------------------------------------------------------------ emit
    def complete(self, name: str, begin_s: float, end_s: float, **args: Any) -> None:
        """Record a finished span ``[begin_s, end_s]``."""
        self._spans_emitted += 1
        self._append((_SPAN, name, begin_s, end_s, _freeze_args(args)))

    def complete_frozen(
        self, name: str, begin_s: float, end_s: float, args: tuple[tuple[str, Any], ...]
    ) -> None:
        """:meth:`complete` with the attributes already frozen.

        ``args`` is the tuple ``complete`` would build: the ``(name,
        value)`` pairs sorted by name.  A hook that records the same
        attributes many times freezes them once.
        """
        self._spans_emitted += 1
        self._append((_SPAN, name, begin_s, end_s, args))

    def begin(self, name: str, begin_s: float, **args: Any) -> SpanHandle:
        """Open a span; the caller must ``end()`` the returned handle."""
        return SpanHandle(self, name, begin_s, args)

    def span(self, name: str, clock, **args: Any) -> _SpanContext:
        """Span as a context manager; ``clock`` is a zero-arg virtual-time read.

        Example:
            >>> tracer = Tracer()
            >>> with tracer.span("work", lambda: 1.0):
            ...     pass
        """
        return _SpanContext(self, name, clock, args)

    def instant(self, name: str, time_s: float, **args: Any) -> None:
        """Record a point event."""
        self._instants_emitted += 1
        self._append((_INSTANT, name, time_s, _freeze_args(args)))

    def counter(self, name: str, time_s: float | None, value: float) -> None:
        """Sample a counter series.

        ``time_s=None`` stamps the sample with a per-series index — the
        deterministic choice for layers that have no virtual clock.
        """
        if time_s is None:
            index = self._counter_index.get(name, 0)
            self._counter_index[name] = index + 1
            time_s = float(index)
        self._counter_samples_emitted += 1
        self._append((_COUNTER, name, time_s, float(value)))

    def bump(self, name: str, time_s: float | None, delta: float = 1.0) -> None:
        """Increment a monotone counter by ``delta`` and sample the new total."""
        total = self._counter_totals.get(name, 0.0) + delta
        self._counter_totals[name] = total
        self.counter(name, time_s, total)

    # ----------------------------------------------------------------- query
    def records(self) -> list[Any]:
        """All retained records in emission order (oldest first)."""
        return [_RECORD_TYPES[entry[0]]._make(entry[1:]) for entry in self._ring]

    def spans(self, name: str | None = None, prefix: str | None = None) -> list[SpanRecord]:
        """Retained spans, optionally filtered by exact ``name`` or ``prefix``."""
        out = [r for r in self.records() if type(r) is SpanRecord]
        if name is not None:
            out = [r for r in out if r.name == name]
        if prefix is not None:
            out = [r for r in out if r.name.startswith(prefix)]
        return out

    def instants(self, name: str | None = None) -> list[InstantRecord]:
        """Retained instants, optionally filtered by exact ``name``."""
        out = [r for r in self.records() if type(r) is InstantRecord]
        if name is not None:
            out = [r for r in out if r.name == name]
        return out

    def counter_series(self, name: str) -> list[tuple[float, float]]:
        """``(time_s, value)`` samples of one counter, in emission order."""
        return [
            (r.time_s, r.value)
            for r in self.records()
            if type(r) is CounterRecord and r.name == name
        ]

    def counter_names(self) -> list[str]:
        """Sorted names of all retained counter series."""
        return sorted({r.name for r in self.records() if type(r) is CounterRecord})

    def span_names(self) -> list[str]:
        """Sorted names of all retained spans."""
        return sorted({r.name for r in self.records() if type(r) is SpanRecord})

    def stats(self) -> TraceStats:
        """Cumulative emission counts plus how many records were evicted."""
        emitted = self._spans_emitted + self._instants_emitted + self._counter_samples_emitted
        return TraceStats(
            spans=self._spans_emitted,
            instants=self._instants_emitted,
            counter_samples=self._counter_samples_emitted,
            emitted=emitted,
            dropped=emitted - len(self._ring),
        )

    def clear(self) -> None:
        """Drop all retained records and reset emission counts."""
        self._ring.clear()
        self._spans_emitted = 0
        self._instants_emitted = 0
        self._counter_samples_emitted = 0
        self._counter_index.clear()
        self._counter_totals.clear()


class NullTracer:
    """The disabled tracer: every method is a no-op.

    It is the ``tracer`` of an :class:`repro.instruments.Instruments`
    record unless a run overrides it; every hook collapses to one
    attribute load (``enabled``) or one no-op call.
    """

    enabled = False

    __slots__ = ()

    def complete(self, name: str, begin_s: float, end_s: float, **args: Any) -> None:
        pass

    def begin(self, name: str, begin_s: float, **args: Any) -> "_NullSpanHandle":
        return _NULL_HANDLE

    def span(self, name: str, clock, **args: Any) -> "_NullSpanContext":
        return _NULL_CONTEXT

    def instant(self, name: str, time_s: float, **args: Any) -> None:
        pass

    def counter(self, name: str, time_s: float | None, value: float) -> None:
        pass

    def bump(self, name: str, time_s: float | None, delta: float = 1.0) -> None:
        pass

    def records(self) -> list[Any]:
        return []

    def spans(self, name: str | None = None, prefix: str | None = None) -> list[SpanRecord]:
        return []

    def instants(self, name: str | None = None) -> list[InstantRecord]:
        return []

    def counter_series(self, name: str) -> list[tuple[float, float]]:
        return []

    def counter_names(self) -> list[str]:
        return []

    def span_names(self) -> list[str]:
        return []

    def stats(self) -> TraceStats:
        return TraceStats(0, 0, 0, 0, 0)

    def clear(self) -> None:
        pass


class _NullSpanHandle:
    __slots__ = ()

    def end(self, end_s: float, **args: Any) -> None:
        pass


class _NullSpanContext:
    __slots__ = ()

    def __enter__(self) -> "_NullSpanContext":
        return self

    def __exit__(self, *exc: Any) -> None:
        pass


NULL_TRACER = NullTracer()
_NULL_HANDLE = _NullSpanHandle()
_NULL_CONTEXT = _NullSpanContext()
