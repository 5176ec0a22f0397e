"""Flight-recorder serialisation: byte-deterministic JSONL dumps.

One sorted-key JSON object per line, preceded by a header.  Dumps carry
*virtual* timestamps only — no wall clock, no PIDs, no absolute paths —
so the flight recorder of a fixed (experiment, seed) is byte-identical
whether the run executed serially, in a pool worker, or on another
machine.  That is what makes ``repro inspect diff`` a meaningful gate: two
dumps of the same run must be equal down to the byte.
"""

from __future__ import annotations

import json
import os
from typing import Any

from repro.audit.core import AuditEvent, Auditor

__all__ = [
    "JSONL_SCHEMA_VERSION",
    "dump_basename",
    "load_audit",
    "to_jsonl_lines",
    "write_jsonl",
]

JSONL_SCHEMA_VERSION = 1


def dump_basename(experiment: str, seed: int) -> str:
    """Canonical flight-recorder file name for one run."""
    return f"{experiment}-seed{seed}.audit.jsonl"


def _event_to_dict(event: AuditEvent) -> dict[str, Any]:
    return {
        "kind": event.kind,
        "name": event.name,
        "time_s": event.time_s,
        "args": dict(event.args),
    }


def to_jsonl_lines(auditor: Auditor, meta: dict[str, Any] | None = None) -> list[str]:
    """Serialise a flight recorder as JSONL lines (header first, in order)."""
    stats = auditor.stats()
    header: dict[str, Any] = {
        "kind": "header",
        "tool": "repro.audit",
        "schema_version": JSONL_SCHEMA_VERSION,
        "notes": stats.notes,
        "violations": stats.violations,
        "checks": stats.checks,
        "dropped": stats.dropped,
    }
    if meta:
        header["meta"] = meta
    lines = [json.dumps(header, sort_keys=True)]
    for event in auditor.records():
        lines.append(json.dumps(_event_to_dict(event), sort_keys=True))
    return lines


def write_jsonl(auditor: Auditor, path: str, meta: dict[str, Any] | None = None) -> int:
    """Write the flight recorder to ``path``; returns the record count."""
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    lines = to_jsonl_lines(auditor, meta)
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines))
        fh.write("\n")
    return len(lines) - 1


def load_audit(path: str) -> tuple[dict[str, Any], list[AuditEvent]]:
    """Load a flight-recorder dump: ``(header, events)``.

    Raises:
        ValueError: on empty, truncated or malformed input — an empty
            dump would make every query silently answer "no events".
    """
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    if not text.strip():
        raise ValueError("empty audit file")
    try:
        objects = [json.loads(line) for line in text.splitlines() if line.strip()]
    except json.JSONDecodeError as exc:
        raise ValueError(f"truncated or malformed audit JSONL: {exc}") from exc
    header: dict[str, Any] = {}
    events: list[AuditEvent] = []
    for obj in objects:
        if not isinstance(obj, dict):
            raise ValueError(f"truncated or malformed audit record: {obj!r}")
        kind = obj.get("kind")
        if kind == "header":
            if obj.get("tool") != "repro.audit":
                raise ValueError(f"not an audit dump: tool={obj.get('tool')!r}")
            header = obj
            continue
        if kind not in ("note", "violation"):
            raise ValueError(f"unknown audit record kind: {kind!r}")
        try:
            events.append(
                AuditEvent(
                    name=obj["name"],
                    time_s=obj["time_s"],
                    kind=kind,
                    args=tuple(sorted(obj.get("args", {}).items())),
                )
            )
        except KeyError as exc:
            raise ValueError(
                f"truncated or malformed {kind} record: missing field {exc}"
            ) from exc
    if not header:
        raise ValueError("audit dump has no header line")
    return header, events
