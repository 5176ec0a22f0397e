"""The ``repro.<kind>`` JSONL format shared by every run artifact.

A trace, a metrics snapshot and an audit flight recorder are each written
as one sorted-key JSON object per line, after a header line::

    {"kind": "header", "tool": "repro.<kind>", "schema_version": 1, ..., "meta": {...}}

The header carries the kind's own fields (record counts, drops) and,
when given, the campaign ``meta``.  Files hold virtual time only (no
wall clock, PIDs or paths), so a fixed experiment set and seed writes
the same bytes wherever it runs.  This module writes and reads that
frame; each kind's ``export`` module turns its records into dicts and
back, and ``repro inspect`` tells the kinds apart with :func:`sniff`.
"""

from __future__ import annotations

import json
import os
from collections.abc import Iterable
from typing import Any

__all__ = ["KINDS", "SCHEMA_VERSION", "kind_of", "read_jsonl", "sniff", "write_jsonl"]

#: Artifact kinds in this format; a file of kind ``k`` names the tool ``repro.k``.
KINDS = ("trace", "metrics", "audit")

SCHEMA_VERSION = 1

_KIND_OF_TOOL = {f"repro.{kind}": kind for kind in KINDS}

#: ``json.dumps(obj, sort_keys=True)`` without building an encoder per line.
_encode = json.JSONEncoder(sort_keys=True).encode

#: Characters :func:`sniff` reads: a header line is far shorter, and a
#: one-line Chrome trace names ``traceEvents`` among its first keys.
_SNIFF_CHARS = 1 << 16


def write_jsonl(
    path: str,
    kind: str,
    fields: dict[str, Any],
    records: Iterable[dict[str, Any]],
    meta: dict[str, Any] | None = None,
) -> int:
    """Write the header, then one line per record; returns the record count.

    ``records`` is consumed as it is written, so a generator keeps a long
    trace from being held as a list of dicts.
    """
    header: dict[str, Any] = {
        "kind": "header",
        "tool": f"repro.{kind}",
        "schema_version": SCHEMA_VERSION,
        **fields,
    }
    if meta:
        header["meta"] = meta
    directory = os.path.dirname(path)
    if directory:
        os.makedirs(directory, exist_ok=True)
    count = 0
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(_encode(header) + "\n")
        for record in records:
            fh.write(_encode(record) + "\n")
            count += 1
    return count


def kind_of(header: Any) -> str | None:
    """The artifact kind a parsed first line names, or ``None`` if it is no header."""
    if isinstance(header, dict) and header.get("kind") == "header":
        return _KIND_OF_TOOL.get(str(header.get("tool")))
    return None


def read_jsonl(path: str, kind: str) -> tuple[dict[str, Any], list[dict[str, Any]]]:
    """The header and records of a ``repro.<kind>`` file.

    Raises:
        ValueError: naming ``kind``, on an empty or whitespace-only file, a
            line that is not JSON (a truncated write), a line that is not an
            object, or a first line that is not this kind's header.  An empty
            artifact would make every query silently answer "nothing".
    """
    with open(path, encoding="utf-8") as fh:
        try:
            objects = [json.loads(line) for line in fh if line.strip()]
        except json.JSONDecodeError as exc:
            raise ValueError(f"truncated or malformed {kind} JSONL: {exc}") from exc
    if not objects:
        raise ValueError(f"empty {kind} file")
    for obj in objects:
        if not isinstance(obj, dict):
            raise ValueError(f"truncated or malformed {kind} record: {obj!r}")
    header, *records = objects
    found = kind_of(header)
    if found != kind:
        named = f"its header names repro.{found}" if found else "no header line"
        raise ValueError(f"not a repro.{kind} file: {named}")
    return header, records


def sniff(path: str) -> tuple[str, dict[str, Any]]:
    """The start of ``path``, left-stripped, and its header (``{}`` if it has none)."""
    with open(path, encoding="utf-8") as fh:
        head = fh.read(_SNIFF_CHARS).lstrip()
    try:
        header = json.loads(head.partition("\n")[0])
    except json.JSONDecodeError:
        return head, {}
    return head, header if kind_of(header) else {}
