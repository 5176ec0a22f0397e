"""Flight-recorder serialisation: byte-deterministic JSONL dumps.

A dump is the ``repro.audit`` kind of :mod:`repro.artifacts`: a header
counting notes, violations, checks and dropped events, then one note or
violation per line.  Dumps carry *virtual* timestamps only — no wall
clock, no PIDs, no absolute paths — so the flight recorder of a fixed
(experiment, seed) is byte-identical whether the run executed serially,
in a pool worker, or on another machine.  That is what makes ``repro
inspect diff`` a meaningful gate: two dumps of the same run must be equal
down to the byte.
"""

from __future__ import annotations

from typing import Any

from repro import artifacts
from repro.audit.core import AuditEvent, Auditor

__all__ = [
    "dump_basename",
    "load_audit",
    "write_jsonl",
]


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


def write_jsonl(auditor: Auditor, path: str, meta: dict[str, Any] | None = None) -> int:
    """Write the flight recorder to ``path``; returns the record count."""
    stats = auditor.stats()
    fields = {
        "notes": stats.notes,
        "violations": stats.violations,
        "checks": stats.checks,
        "dropped": stats.dropped,
    }
    return artifacts.write_jsonl(
        path, "audit", fields, map(_event_to_dict, auditor.records()), meta
    )


def load_audit(path: str) -> tuple[dict[str, Any], list[AuditEvent]]:
    """Load a flight-recorder dump: ``(header, events)``.

    Raises:
        ValueError: on empty, truncated or malformed input (see
            :func:`repro.artifacts.read_jsonl`) or an unknown event kind.
    """
    header, records = artifacts.read_jsonl(path, "audit")
    events: list[AuditEvent] = []
    for obj in records:
        kind = obj.get("kind")
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
    return header, events
