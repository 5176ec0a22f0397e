"""``repro inspect show|diff|export``: one reader for every run artifact.

Trace, metrics and audit JSONL files open with their
:mod:`repro.artifacts` header line, Chrome traces carry ``traceEvents``
and a directory (``repro run --out DIR``) holds worker heartbeats, so the
kind comes from the artifact.  ``show`` on a directory exits 1 when a run is
busy beyond ``--stall-timeout``; ``diff`` exits 1 when two artifacts
differ, so it doubles as a determinism gate; ``export`` writes a trace as
Chrome ``trace_event`` JSON, with a JSONL header's campaign meta as its
``otherData``.  A missing, empty, truncated or unknown artifact fails with
a one-line message on stderr and exit code 1.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from typing import Any

from repro import artifacts
from repro.audit import analysis as audit_analysis
from repro.audit.export import load_audit
from repro.metrics import export as metrics_export
from repro.runner.worker import STALL_TIMEOUT_S, scan_stalls
from repro.trace import analysis as trace_analysis
from repro.trace.export import is_chrome, load_trace, write_chrome

__all__ = ["add_inspect_arguments", "artifact_kind", "run_inspect"]

_LOADERS = {"trace": load_trace, "metrics": metrics_export.load_snapshot, "audit": load_audit}


def add_inspect_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the inspect sub-subcommands to a (sub)parser."""
    sub = parser.add_subparsers(dest="inspect_command", required=True)
    show = sub.add_parser("show", help="summarise an artifact or scan a heartbeat directory")
    show.add_argument("path", help="trace, metrics or audit file, or heartbeat directory")
    show.add_argument("--violations", action="store_true",
                      help="audit dumps: list every violation verbatim")
    show.add_argument("--stall-timeout", type=float, default=STALL_TIMEOUT_S, metavar="SECONDS",
                      help="heartbeat directories: stalled after this long (default: %(default)g)")
    diff = sub.add_parser("diff", help="compare two artifacts of one kind; exit 1 if they differ")
    diff.add_argument("path_a", help="first artifact")
    diff.add_argument("path_b", help="second artifact")
    diff.add_argument("--tolerance", type=float, default=0.0, metavar="REL",
                      help="metrics: tolerated relative difference per field (default: 0)")
    export = sub.add_parser(
        "export", help="write a trace as Chrome trace_event JSON, metrics as Prometheus text"
    )
    export.add_argument("path", help="trace or metrics file")
    export.add_argument("output", help="output path")


def artifact_kind(path: str) -> str:
    """One of :data:`repro.artifacts.KINDS` or ``"heartbeats"`` (ValueError if none)."""
    if os.path.isdir(path):
        return "heartbeats"
    head, header = artifacts.sniff(path)
    kind = artifacts.kind_of(header)
    if kind is not None:
        return kind
    if not head:
        raise ValueError("empty file")
    if is_chrome(head):
        return "trace"
    raise ValueError("not a repro artifact (no repro.* header line, no traceEvents)")


def _load(path: str) -> tuple[str, Any] | None:
    """``(kind, payload)``, or ``None`` after a one-line message on stderr."""
    try:
        kind = artifact_kind(path)
        return kind, path if kind == "heartbeats" else _LOADERS[kind](path)
    except FileNotFoundError:
        print(f"repro inspect: no such file or directory: {path}", file=sys.stderr)
    except (OSError, ValueError) as exc:
        print(f"repro inspect: {path}: {exc}", file=sys.stderr)
    return None


def _show(kind: str, payload: Any, args: argparse.Namespace) -> int:
    if kind == "heartbeats":
        stalls = scan_stalls(payload, time.monotonic(), args.stall_timeout)
        for stall in stalls:
            print(f"worker pid {stall['pid']} stalled on {stall['experiment']!r} "
                  f"(seed {stall['seed']}) — busy {stall['busy_s']:.0f}s > "
                  f"{args.stall_timeout:.0f}s")
        if not stalls:
            print("no stalled workers")
        return 1 if stalls else 0
    if kind == "trace":
        table = trace_analysis.summary_table(payload)
    elif kind == "metrics":
        table = metrics_export.summary_table(payload)
    elif args.violations:
        table = audit_analysis.violations_table(payload[1])
    else:
        table = audit_analysis.summary_table(*payload)
    print(table.render())
    return 0


def _diff(kind: str, a: Any, b: Any, tolerance: float) -> int:
    if kind == "metrics":
        deltas = metrics_export.diff_snapshots(a, b, tolerance=tolerance)
        print(metrics_export.diff_table(deltas).render())
        return 1 if deltas else 0
    diff = trace_analysis.diff_traces(a, b) if kind == "trace" else audit_analysis.diff_audits(a, b)
    print(diff.table().render())
    return 0 if diff.identical else 1


def run_inspect(args: argparse.Namespace) -> int:
    """Execute an inspect subcommand; returns the process exit code."""
    command = args.inspect_command
    paths = (args.path_a, args.path_b) if command == "diff" else (args.path,)
    loaded = [_load(path) for path in paths]
    if None in loaded:
        return 1
    kind, payload = loaded[0]
    if command == "show":
        return _show(kind, payload, args)
    if command == "diff":
        other_kind, other = loaded[1]
        if kind != other_kind or kind == "heartbeats":
            print(f"repro inspect: cannot diff {kind} against {other_kind}", file=sys.stderr)
            return 1
        return _diff(kind, payload, other, args.tolerance)
    if kind == "trace":
        # The campaign meta of a JSONL header becomes the document's otherData.
        meta = artifacts.sniff(args.path)[1].get("meta")
        count = write_chrome(payload, args.output, meta=meta)
        print(f"wrote {count} trace event(s) to {args.output}")
    elif kind == "metrics":
        count = metrics_export.write_prometheus(payload, args.output)
        print(f"wrote {count} exposition line(s) to {args.output}")
    else:
        print(f"repro inspect: {args.path}: {kind} has no export format", file=sys.stderr)
        return 1
    return 0
