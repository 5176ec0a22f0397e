"""Trace serialisation: JSONL, Chrome ``trace_event`` JSON, and loading.

Two on-disk formats:

* **JSONL** (``.jsonl``) — the ``repro.trace`` kind of
  :mod:`repro.artifacts`: a header counting emitted and dropped records,
  then one span, instant or counter sample per line.  This is the
  canonical, diff-able format: a fixed experiment+seed produces
  byte-identical files.
* **Chrome trace_event** (``.json``) — the ``{"traceEvents": [...]}``
  format understood by Perfetto / ``chrome://tracing``.  Virtual seconds
  are mapped to microseconds; each top-level category (the part of a
  record name before the first ``.`` or ``:``) becomes its own named
  thread row so spans nest sensibly.

:func:`load_trace` sniffs either format back into an in-memory
:class:`~repro.trace.core.Tracer` so the query API works on files too.
"""

from __future__ import annotations

import json
from typing import Any

from repro import artifacts
from repro.trace.core import CounterRecord, InstantRecord, SpanRecord, Tracer

__all__ = [
    "is_chrome",
    "load_trace",
    "to_chrome",
    "write_chrome",
    "write_jsonl",
]

#: Virtual seconds → trace_event microseconds.
_US_PER_S = 1e6


def _record_to_dict(record: Any) -> dict[str, Any]:
    if type(record) is SpanRecord:
        return {
            "kind": "span",
            "name": record.name,
            "begin_s": record.begin_s,
            "end_s": record.end_s,
            "args": dict(record.args),
        }
    if type(record) is InstantRecord:
        return {
            "kind": "instant",
            "name": record.name,
            "time_s": record.time_s,
            "args": dict(record.args),
        }
    if type(record) is CounterRecord:
        return {
            "kind": "counter",
            "name": record.name,
            "time_s": record.time_s,
            "value": record.value,
        }
    raise TypeError(f"not a trace record: {record!r}")


def write_jsonl(tracer: Tracer, path: str, meta: dict[str, Any] | None = None) -> int:
    """Write the JSONL form to ``path``; returns the number of records."""
    stats = tracer.stats()
    fields = {"emitted": stats.emitted, "dropped": stats.dropped}
    return artifacts.write_jsonl(
        path, "trace", fields, map(_record_to_dict, tracer.records()), meta
    )


def _category(name: str) -> str:
    """Top-level category of a record name (text before the first ``.``/``:``)."""
    for sep in (".", ":"):
        head, found, _ = name.partition(sep)
        if found:
            return head
    return name


def to_chrome(tracer: Tracer, meta: dict[str, Any] | None = None) -> dict[str, Any]:
    """Build a Chrome ``trace_event`` document from a trace.

    Spans become complete (``ph="X"``) events, instants ``ph="i"``, and
    counters ``ph="C"``.  Categories are laid out as named threads of one
    process, in order of first appearance, so Perfetto groups related spans
    on one row.
    """
    events: list[dict[str, Any]] = []
    tids: dict[str, int] = {}

    def tid_for(name: str) -> int:
        cat = _category(name)
        if cat not in tids:
            tids[cat] = len(tids) + 1
            events.append(
                {
                    "ph": "M",
                    "name": "thread_name",
                    "pid": 1,
                    "tid": tids[cat],
                    "args": {"name": cat},
                }
            )
        return tids[cat]

    for record in tracer.records():
        if type(record) is SpanRecord:
            events.append(
                {
                    "ph": "X",
                    "name": record.name,
                    "cat": _category(record.name),
                    "pid": 1,
                    "tid": tid_for(record.name),
                    "ts": record.begin_s * _US_PER_S,
                    "dur": record.duration_s * _US_PER_S,
                    "args": dict(record.args),
                }
            )
        elif type(record) is InstantRecord:
            events.append(
                {
                    "ph": "i",
                    "s": "t",
                    "name": record.name,
                    "cat": _category(record.name),
                    "pid": 1,
                    "tid": tid_for(record.name),
                    "ts": record.time_s * _US_PER_S,
                    "args": dict(record.args),
                }
            )
        elif type(record) is CounterRecord:
            events.append(
                {
                    "ph": "C",
                    "name": record.name,
                    "pid": 1,
                    "tid": tid_for(record.name),
                    "ts": record.time_s * _US_PER_S,
                    "args": {"value": record.value},
                }
            )
    document: dict[str, Any] = {
        "traceEvents": events,
        "displayTimeUnit": "ms",
    }
    if meta:
        document["otherData"] = meta
    return document


def write_chrome(tracer: Tracer, path: str, meta: dict[str, Any] | None = None) -> int:
    """Write the Chrome trace_event form to ``path``; returns the event count."""
    document = to_chrome(tracer, meta)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(document, fh, sort_keys=True, separators=(",", ":"))
        fh.write("\n")
    return len(document["traceEvents"])


def _load_jsonl(path: str) -> Tracer:
    _, records = artifacts.read_jsonl(path, "trace")
    tracer = Tracer(capacity=max(len(records), 1))
    for obj in records:
        kind = obj.get("kind")
        try:
            if kind == "span":
                tracer.complete(obj["name"], obj["begin_s"], obj["end_s"], **obj.get("args", {}))
            elif kind == "instant":
                tracer.instant(obj["name"], obj["time_s"], **obj.get("args", {}))
            elif kind == "counter":
                tracer.counter(obj["name"], obj["time_s"], obj["value"])
            else:
                raise ValueError(f"unknown trace record kind: {kind!r}")
        except KeyError as exc:
            raise ValueError(
                f"truncated or malformed {kind} record: missing field {exc}"
            ) from exc
    return tracer


def _load_chrome(document: dict[str, Any]) -> Tracer:
    events = document.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("not a trace_event document: missing traceEvents list")
    tracer = Tracer(capacity=max(len(events), 1))
    for event in events:
        phase = event.get("ph")
        try:
            if phase == "X":
                begin_s = event["ts"] / _US_PER_S
                tracer.complete(
                    event["name"],
                    begin_s,
                    begin_s + event.get("dur", 0.0) / _US_PER_S,
                    **event.get("args", {}),
                )
            elif phase == "i":
                tracer.instant(event["name"], event["ts"] / _US_PER_S, **event.get("args", {}))
            elif phase == "C":
                tracer.counter(event["name"], event["ts"] / _US_PER_S, event["args"]["value"])
            # Metadata ("M") and unknown phases carry no trace payload.
        except KeyError as exc:
            raise ValueError(
                f"truncated or malformed trace event: missing field {exc}"
            ) from exc
    return tracer


def is_chrome(head: str) -> bool:
    """Whether the left-stripped start of a file is a Chrome trace document."""
    return head.startswith("{") and '"traceEvents"' in head


def load_trace(path: str) -> Tracer:
    """Load a JSONL or Chrome-format trace file into a queryable tracer.

    Raises:
        ValueError: on empty, truncated or malformed input, or a JSONL
            file without its header — an empty trace means the producing
            run recorded nothing (or the file was clobbered), and every
            query on it would silently answer "no events", so it is
            rejected up front.
    """
    head, header = artifacts.sniff(path)
    if header or not is_chrome(head):
        return _load_jsonl(path)
    with open(path, encoding="utf-8") as fh:
        try:
            document = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"truncated or malformed trace JSON: {exc}") from exc
    return _load_chrome(document)
