"""Tracing overhead benchmark: enabled tracing must not perturb the physics.

A reduced fig7 campaign with tracing enabled vs. disabled — enabled
tracing records millions of events, so it is allowed to cost real time,
but it must not change the result and must stay within a loose bound.
Both sides are timed in CPU seconds (``process_time``), in rounds that
alternate which side goes first, and the median of the per-round ratios
is gated: one wall-clock pair let host load decide the result.
The disabled-path gate against the seed loop lives in
``test_audit_overhead.py``: both checks time the one ``Simulator.run``.

Run with plain ``pytest benchmarks/test_trace_overhead.py -s`` (this
test times itself and does not use the pytest-benchmark fixture).
"""

import statistics
import time

from repro import instruments
from repro.experiments import fig7_throughput
from repro.trace import Tracer

ROUNDS = 5


def test_fig7_reduced_traced_vs_untraced():
    kwargs = dict(seed=7, duration_s=6.0, algorithms=("cubic", "bbr"), repeats=1)

    def untraced():
        return fig7_throughput.run(**kwargs), None

    def traced():
        tracer = Tracer()
        with instruments.using(tracer=tracer):
            return fig7_throughput.run(**kwargs), tracer

    ratios, results = [], {}
    for round_index in range(ROUNDS):
        sides = [untraced, traced] if round_index % 2 == 0 else [traced, untraced]
        spent = {}
        for side in sides:
            started = time.process_time()
            results[side] = side()
            spent[side] = time.process_time() - started
        ratios.append(spent[traced] / spent[untraced])
        plain, _ = results[untraced]
        with_trace, tracer = results[traced]
        # Tracing must never perturb the physics.
        assert with_trace.udp_baselines_bps == plain.udp_baselines_bps
        assert with_trace.utilization == plain.utilization

    ratio = statistics.median(ratios)
    stats = tracer.stats()
    print(f"\nfig7 (reduced): traced/untraced CPU time x{ratio:.2f} "
          f"(median of {', '.join(f'x{r:.2f}' for r in ratios)}), "
          f"{stats.emitted} records emitted")
    # The enabled path records per-ACK counters and per-dispatch spans, so
    # it costs real time; 3x is the loose alarm threshold.
    assert ratio < 3.0
    assert stats.spans > 0 and stats.counter_samples > 0
