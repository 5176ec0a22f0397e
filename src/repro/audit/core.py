"""Runtime verification: conservation ledgers, invariant probes, a flight recorder.

The paper's headline diagnosis (an under-buffered router silently
corrupting TCP behaviour) was only visible because independent vantage
points were cross-checked; this module builds that habit into every run.
An :class:`Auditor` carries three cooperating mechanisms:

* **conservation ledgers** — components register :meth:`watch` callbacks
  returning a *residual* that must be ~zero (packets in = packets out +
  drops + resident; bytes likewise; TCP sequence bookkeeping; energy
  dwell times).  :meth:`checkpoint` evaluates every watch, records the
  per-ledger totals, and flags any residual beyond its tolerance.
* **invariant probes** — hot paths call :meth:`probe` with a boolean
  (virtual-time monotonicity, occupancy bounds, sojourn sanity, PEP
  backpressure bounds).  A passing probe costs one call and appends
  nothing; a failing probe records a violation.
* **flight recorder** — notes and violations land in a bounded ring
  buffer stamped with *virtual* time only, so a dump
  (:func:`repro.audit.export.write_jsonl`) is a pure function of
  (experiment, seed) and byte-identical across serial and parallel
  campaigns.

Components capture the ``auditor`` of :func:`repro.instruments.current`
once at construction: :data:`NULL_AUDITOR`, whose every hook is a no-op,
unless a run installs one.  The campaign runner installs a fresh per-run
auditor by default (``REPRO_NO_AUDIT=1`` opts out), checkpoints it at run
end, and exports the ledger totals as ``audit.*`` KPIs through
``repro.metrics``.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass
from typing import Any, NamedTuple

__all__ = [
    "AuditError",
    "AuditEvent",
    "AuditStats",
    "Auditor",
    "NULL_AUDITOR",
    "NullAuditor",
    "audits_enabled",
]

#: Default ring capacity.  Audit events are deliberately low-rate (notes
#: at checkpoints and quiescence, violations when something is wrong), so
#: a few thousand records cover a full campaign run.
DEFAULT_CAPACITY = 4096

#: Environment switch: set to ``"1"`` to skip per-run auditor installs.
NO_AUDIT_ENV = "REPRO_NO_AUDIT"

#: Violations retained verbatim (the ring may evict; these never do).
_MAX_VIOLATIONS = 256


def audits_enabled() -> bool:
    """Whether the campaign runner should install per-run auditors."""
    return os.environ.get(NO_AUDIT_ENV, "") != "1"


def _freeze_args(args: dict[str, Any]) -> tuple[tuple[str, Any], ...]:
    """Sort attributes so record equality and exports are order-independent."""
    return tuple(sorted(args.items()))


@dataclass(frozen=True)
class AuditEvent:
    """One flight-recorder entry on virtual time.

    ``kind`` is ``"note"`` (informational: checkpoint totals, quiescence
    checks, run milestones) or ``"violation"`` (a probe or ledger fired).
    """

    name: str
    time_s: float
    kind: str
    args: tuple[tuple[str, Any], ...] = ()


class AuditStats(NamedTuple):
    """Cumulative emission counts (independent of ring-buffer eviction)."""

    notes: int
    violations: int
    checks: int
    emitted: int
    dropped: int


class AuditError(RuntimeError):
    """Raised when a run finishes with unresolved audit violations."""

    def __init__(self, message: str, violations: list[AuditEvent] | None = None,
                 dump_path: str = "") -> None:
        super().__init__(message)
        self.violations = violations or []
        self.dump_path = dump_path


class Auditor:
    """Collects audit events into a bounded ring; see the module docstring."""

    enabled = True

    def __init__(self, capacity: int = DEFAULT_CAPACITY) -> None:
        if capacity <= 0:
            raise ValueError(f"capacity must be positive, got {capacity}")
        self.capacity = capacity
        self._ring: list[AuditEvent] = []
        self._head = 0  # next overwrite position once the ring is full
        self._notes_emitted = 0
        self._violations_emitted = 0
        self._checks = 0
        self._watches: list[tuple[str, Callable[[], float], float]] = []
        self._violations: list[AuditEvent] = []
        self._ledger_totals: dict[str, float] = {}

    # ------------------------------------------------------------------ emit

    def _append(self, event: AuditEvent) -> None:
        ring = self._ring
        if len(ring) < self.capacity:
            ring.append(event)
        else:
            ring[self._head] = event
            self._head = (self._head + 1) % self.capacity

    def note(self, name: str, time_s: float, **args: Any) -> None:
        """Record an informational flight-recorder event."""
        self._notes_emitted += 1
        self._append(AuditEvent(name, time_s, "note", _freeze_args(args)))

    def flag(self, name: str, time_s: float, **args: Any) -> None:
        """Record a violation: the invariant named ``name`` does not hold."""
        self._violations_emitted += 1
        event = AuditEvent(name, time_s, "violation", _freeze_args(args))
        self._append(event)
        if len(self._violations) < _MAX_VIOLATIONS:
            self._violations.append(event)

    def probe(self, name: str, ok: bool, time_s: float, **args: Any) -> bool:
        """Check an invariant: free when it holds, a violation when not."""
        self._checks += 1
        if not ok:
            self.flag(name, time_s, **args)
        return ok

    def observe(self, name: str, residual: float, time_s: float = 0.0,
                tol: float = 0.0, **args: Any) -> None:
        """Feed one ledger residual directly (for one-shot accounting).

        The residual accumulates under ``name`` (exported by
        :meth:`export_kpis`) and is flagged when it exceeds ``tol``.
        """
        self._checks += 1
        self._ledger_totals[name] = self._ledger_totals.get(name, 0.0) + residual
        self.note(name, time_s, residual=residual, **args)
        if abs(residual) > tol:
            self.flag(name, time_s, residual=residual, **args)

    # ----------------------------------------------------------------- ledgers

    def watch(self, name: str, fn: Callable[[], float], tol: float = 0.0) -> None:
        """Register a conservation ledger: ``fn()`` returns the residual.

        Multiple watches may share a ``name`` (e.g. one per link instance);
        :meth:`checkpoint` sums their residuals per name.  Callbacks must
        be read-only — replint REP012 enforces that ``_audit_*`` helpers
        never mutate simulation state.
        """
        self._watches.append((name, fn, tol))

    def checkpoint(self, label: str, time_s: float = 0.0) -> dict[str, float]:
        """Evaluate every watch; note per-ledger totals, flag non-zero ones.

        Returns the per-name residual totals.  Evaluation follows watch
        registration order (component construction order), so the emitted
        note sequence is deterministic for a given (experiment, seed).
        """
        totals: dict[str, float] = {}
        tols: dict[str, float] = {}
        order: list[str] = []
        for name, fn, tol in self._watches:
            residual = float(fn())
            if name in totals:
                totals[name] += residual
                tols[name] = max(tols[name], tol)
            else:
                totals[name] = residual
                tols[name] = tol
                order.append(name)
        for name in order:
            self._checks += 1
            residual = totals[name]
            self._ledger_totals[name] = residual
            self.note(name, time_s, label=label, residual=residual)
            if abs(residual) > tols[name]:
                self.flag(name, time_s, label=label, residual=residual)
        return totals

    def assert_clean(self, context: str = "", dump_path: str = "") -> None:
        """Raise :class:`AuditError` if any violation has been recorded."""
        count = self._violations_emitted
        if count == 0:
            return
        head = ", ".join(
            f"{v.name}@{v.time_s:g}" for v in self._violations[:5]
        )
        suffix = f" (flight recorder: {dump_path})" if dump_path else ""
        prefix = f"{context}: " if context else ""
        raise AuditError(
            f"{prefix}{count} audit violation(s): {head}{suffix}",
            violations=list(self._violations),
            dump_path=dump_path,
        )

    # ----------------------------------------------------------------- export

    def export_kpis(self, registry: Any) -> None:
        """Publish ledger totals and event counts as ``audit.*`` metrics.

        ``registry`` is duck-typed (a :class:`repro.metrics.MetricRegistry`
        or anything with ``counter``/``gauge``).  A run that never touched
        an audited component exports nothing at all, so un-instrumented
        experiments keep their ``metrics is None`` records.
        """
        stats = self.stats()
        if stats.emitted == 0 and stats.checks == 0:
            return
        registry.counter("audit.checks_count").inc(float(stats.checks))
        registry.counter("audit.events_count").inc(float(stats.emitted))
        registry.counter("audit.violations_count").inc(float(stats.violations))
        for name in sorted(self._ledger_totals):
            registry.gauge(name).set(self._ledger_totals[name])

    # ----------------------------------------------------------------- query

    def records(self) -> list[AuditEvent]:
        """All retained events in emission order (oldest first)."""
        ring = self._ring
        if len(ring) < self.capacity:
            return list(ring)
        return ring[self._head:] + ring[:self._head]

    def violations(self) -> list[AuditEvent]:
        """Retained violations in emission order (never ring-evicted)."""
        return list(self._violations)

    @property
    def violation_count(self) -> int:
        """Total violations flagged so far."""
        return self._violations_emitted

    def ledger_totals(self) -> dict[str, float]:
        """Latest per-ledger residual totals, sorted by name."""
        return {name: self._ledger_totals[name] for name in sorted(self._ledger_totals)}

    def stats(self) -> AuditStats:
        """Cumulative emission counts plus how many records were evicted."""
        emitted = self._notes_emitted + self._violations_emitted
        return AuditStats(
            notes=self._notes_emitted,
            violations=self._violations_emitted,
            checks=self._checks,
            emitted=emitted,
            dropped=emitted - len(self._ring),
        )

    def clear(self) -> None:
        """Drop retained events and reset counts (watches stay registered)."""
        self._ring.clear()
        self._head = 0
        self._notes_emitted = 0
        self._violations_emitted = 0
        self._checks = 0
        self._violations.clear()
        self._ledger_totals.clear()


class NullAuditor:
    """The disabled auditor: every method is a no-op.

    It is the ``auditor`` of an :class:`repro.instruments.Instruments`
    record unless a run overrides it; every hook collapses to one
    attribute load (``enabled``) or one no-op call.
    """

    enabled = False

    __slots__ = ()

    def note(self, name: str, time_s: float, **args: Any) -> None:
        pass

    def flag(self, name: str, time_s: float, **args: Any) -> None:
        pass

    def probe(self, name: str, ok: bool, time_s: float, **args: Any) -> bool:
        return ok

    def observe(self, name: str, residual: float, time_s: float = 0.0,
                tol: float = 0.0, **args: Any) -> None:
        pass

    def watch(self, name: str, fn: Callable[[], float], tol: float = 0.0) -> None:
        pass

    def checkpoint(self, label: str, time_s: float = 0.0) -> dict[str, float]:
        return {}

    def assert_clean(self, context: str = "", dump_path: str = "") -> None:
        pass

    def export_kpis(self, registry: Any) -> None:
        pass

    def records(self) -> list[AuditEvent]:
        return []

    def violations(self) -> list[AuditEvent]:
        return []

    @property
    def violation_count(self) -> int:
        return 0

    def ledger_totals(self) -> dict[str, float]:
        return {}

    def stats(self) -> AuditStats:
        return AuditStats(0, 0, 0, 0, 0)

    def clear(self) -> None:
        pass


NULL_AUDITOR = NullAuditor()
