"""One instrumentation context: the tracer, registry, auditor and profiler of a run.

Each :class:`Instruments` field defaults to its subsystem's null object.
:func:`current` is the top of the one install stack; :class:`using`
pushes a copy with some fields overridden.  Long-lived components
(``Simulator``, ``Link``, the TCP sender, ...) read :func:`current` at
construction, one-shot helpers per call.
:func:`repro.runner.instrument.instrumented_call` installs one record
per run: a fresh auditor and registry plus the caller's tracer and
profiler.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import TYPE_CHECKING, Any

from repro.audit.core import NULL_AUDITOR, Auditor, NullAuditor
from repro.metrics.core import NULL_REGISTRY, MetricRegistry, NullRegistry
from repro.trace.core import NULL_TRACER, NullTracer, Tracer

if TYPE_CHECKING:
    from repro.runner.profiling import ProfileCollector

__all__ = ["Instruments", "current", "using"]


@dataclass(frozen=True)
class Instruments:
    """The tracer, registry, auditor and profiler one run reports to."""

    tracer: Tracer | NullTracer = NULL_TRACER
    registry: MetricRegistry | NullRegistry = NULL_REGISTRY
    auditor: Auditor | NullAuditor = NULL_AUDITOR
    profiler: ProfileCollector | None = None


# The install stack; the bottom record (all null objects) is never popped.
_stack: list[Instruments] = [Instruments()]


def current() -> Instruments:
    """The active record (all null objects when nothing is installed)."""
    return _stack[-1]


class using:
    """Install :func:`current` with ``fields`` overridden for one block.

    Fields not named are inherited from the enclosing record, so an inner
    ``using(registry=...)`` keeps an outer tracer.

    Example:
        >>> tracer = Tracer()
        >>> with using(tracer=tracer) as active:
        ...     current() is active and active.tracer is tracer
        True
    """

    def __init__(self, **fields: Any) -> None:
        self._fields = fields
        self._record: Instruments | None = None

    def __enter__(self) -> Instruments:
        self._record = replace(_stack[-1], **self._fields)
        _stack.append(self._record)
        return self._record

    def __exit__(self, *exc: Any) -> None:
        if self._record is None or _stack[-1] is not self._record:
            raise RuntimeError("instruments exited out of order: a different record is active")
        _stack.pop()
        self._record = None
