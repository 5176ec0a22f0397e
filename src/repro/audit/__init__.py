"""Runtime verification: conservation ledgers, invariant probes, a flight recorder.

Quick start::

    from repro import audit, instruments

    with instruments.using(auditor=audit.Auditor()) as active:
        result = fig7.run(seed=7)
        residuals = active.auditor.checkpoint("run-end")
    active.auditor.assert_clean("fig7 seed 7")
    audit.write_jsonl(active.auditor, "fig7.audit.jsonl")

Components capture the auditor of :func:`repro.instruments.current` once
at construction, so the per-call cost with no auditor installed is a
no-op method on the shared :data:`NULL_AUDITOR`.  Set
``REPRO_NO_AUDIT=1`` to keep runner-managed runs on the null path
entirely.  The runner dumps a failing run's flight recorder into its out
directory (``repro run --out DIR``; ``--observe audit`` dumps every run),
where ``repro inspect show|diff`` reads it.

See :mod:`repro.audit.core` for the recording model,
:mod:`repro.audit.export` for the byte-deterministic JSONL dumps, and
:mod:`repro.audit.analysis` for the ``repro inspect show|diff`` queries.
"""

from repro.audit.analysis import AuditDiff, diff_audits, summary_table, violations_table
from repro.audit.core import (
    NULL_AUDITOR,
    AuditError,
    AuditEvent,
    AuditStats,
    Auditor,
    NullAuditor,
    audits_enabled,
)
from repro.audit.export import (
    dump_basename,
    load_audit,
    write_jsonl,
)

__all__ = [
    "NULL_AUDITOR",
    "AuditDiff",
    "AuditError",
    "AuditEvent",
    "AuditStats",
    "Auditor",
    "NullAuditor",
    "audits_enabled",
    "diff_audits",
    "dump_basename",
    "load_audit",
    "summary_table",
    "violations_table",
    "write_jsonl",
]
