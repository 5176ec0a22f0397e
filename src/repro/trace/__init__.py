"""Deterministic tracing for the simulator stack (spans/instants/counters).

Quick start::

    from repro import instruments, trace

    with instruments.using(tracer=trace.Tracer()) as active:
        result = fig6.run(seed=7)
    handoffs = active.tracer.spans(prefix="handoff:")
    trace.write_chrome(active.tracer, "fig6.trace.json")

See :mod:`repro.trace.core` for the recording model and
:mod:`repro.trace.export` for the on-disk formats (the JSONL one is
framed by :mod:`repro.artifacts`).
"""

from repro.trace.analysis import diff_traces, summarize, summary_dict, summary_table
from repro.trace.core import (
    NULL_TRACER,
    CounterRecord,
    InstantRecord,
    NullTracer,
    SpanRecord,
    TraceStats,
    Tracer,
)
from repro.trace.export import (
    load_trace,
    to_chrome,
    write_chrome,
    write_jsonl,
)

__all__ = [
    "NULL_TRACER",
    "CounterRecord",
    "InstantRecord",
    "NullTracer",
    "SpanRecord",
    "TraceStats",
    "Tracer",
    "diff_traces",
    "load_trace",
    "summarize",
    "summary_dict",
    "summary_table",
    "to_chrome",
    "write_chrome",
    "write_jsonl",
]
