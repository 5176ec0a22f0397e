"""Tracing overhead benchmark: enabled tracing must not perturb the physics.

A reduced fig7 campaign with tracing enabled vs. disabled — enabled
tracing records millions of events, so it is allowed to cost real time,
but it must not change the result and must stay within a loose bound.
The disabled-path gate against the seed loop lives in
``test_audit_overhead.py``: both checks time the one ``Simulator.run``.

Run with plain ``pytest benchmarks/test_trace_overhead.py -s`` (this
test times itself and does not use the pytest-benchmark fixture).
"""

import time

from repro import instruments
from repro.experiments import fig7_throughput
from repro.trace import Tracer


def test_fig7_reduced_traced_vs_untraced():
    kwargs = dict(seed=7, duration_s=6.0, algorithms=("cubic", "bbr"), repeats=1)

    started = time.perf_counter()
    plain = fig7_throughput.run(**kwargs)
    untraced_s = time.perf_counter() - started

    tracer = Tracer()
    started = time.perf_counter()
    with instruments.using(tracer=tracer):
        traced = fig7_throughput.run(**kwargs)
    traced_s = time.perf_counter() - started

    stats = tracer.stats()
    print(f"\nfig7 (reduced): untraced {untraced_s:.2f}s, traced {traced_s:.2f}s "
          f"(x{traced_s / untraced_s:.2f}), {stats.emitted} records emitted")
    # Tracing must never perturb the physics.
    assert traced.udp_baselines_bps == plain.udp_baselines_bps
    assert traced.utilization == plain.utilization
    # The enabled path records per-ACK counters and per-dispatch spans, so
    # it costs real time; 3x is the loose alarm threshold.
    assert traced_s < 3.0 * untraced_s
    assert stats.spans > 0 and stats.counter_samples > 0
