"""Benchmark-side spans on an uninstalled ``repro.trace.Tracer``.

The tracer is never installed, so the program's own tracing stays off and
the measured loops are the ones ``repro run`` executes.  Spans are timed
with ``time.perf_counter`` (CLOCK_MONOTONIC on Linux, so spans from the
pass processes of one run share a timeline) and carry ``id``/``parent``
arguments, which nest them as workload -> operation -> layer call.
"""

from __future__ import annotations

import contextlib
import time
from collections.abc import Iterator
from typing import Any

__all__ = ["NULL_SPANS", "Spans", "self_seconds"]


class Spans:
    """Nested wall-clock spans recorded into ``tracer``."""

    def __init__(self, tracer: Any) -> None:
        self.tracer = tracer
        self._stack = [0]
        self._next_id = 1

    def _new_id(self) -> int:
        span_id = self._next_id
        self._next_id += 1
        return span_id

    @contextlib.contextmanager
    def span(self, name: str, begin_s: float | None = None) -> Iterator[None]:
        """Time the block as a child of the innermost open span.

        ``begin_s`` backdates the start, for a span that opens on work
        done before the tracer existed (interpreter start, imports).
        """
        span_id = self._new_id()
        parent = self._stack[-1]
        self._stack.append(span_id)
        if begin_s is None:
            begin_s = time.perf_counter()
        try:
            yield
        finally:
            end_s = time.perf_counter()
            self._stack.pop()
            self.tracer.complete(name, begin_s, end_s, id=span_id, parent=parent)

    def record(self, name: str, begin_s: float, end_s: float) -> None:
        """Add an already-timed interval under the innermost open span."""
        self.tracer.complete(
            name, begin_s, end_s, id=self._new_id(), parent=self._stack[-1]
        )

    def as_dicts(self) -> list[dict[str, Any]]:
        """The recorded spans as plain dicts, in completion order."""
        return [
            {"name": s.name, "begin_s": s.begin_s, "end_s": s.end_s, **dict(s.args)}
            for s in self.tracer.spans()
        ]


class _NullSpans:
    """Tracing off: spans cost one call and record nothing."""

    def span(self, name: str, begin_s: float | None = None) -> contextlib.nullcontext:
        return contextlib.nullcontext()

    def record(self, name: str, begin_s: float, end_s: float) -> None:
        pass

    def as_dicts(self) -> list[dict[str, Any]]:
        return []


NULL_SPANS = _NullSpans()


def self_seconds(spans: list[dict[str, Any]]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover.

    ``spans`` are dicts with ``id``, ``parent``, ``begin_s`` and ``end_s``
    from one process.  Children are clipped to their parent and their
    union is subtracted, so overlapping children are not counted twice.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        children.setdefault(span["parent"], []).append((span["begin_s"], span["end_s"]))
    result: dict[int, float] = {}
    for span in spans:
        begin_s, end_s = span["begin_s"], span["end_s"]
        covered = 0.0
        cursor = begin_s
        for child_begin, child_end in sorted(children.get(span["id"], [])):
            lo, hi = max(child_begin, cursor), min(child_end, end_s)
            if hi > lo:
                covered += hi - lo
                cursor = hi
        result[span["id"]] = (end_s - begin_s) - covered
    return result
