"""Deliberately dirty fixture exercising the REP006 metric-name rule.

Never imported at runtime: the linter only parses it.  Line numbers are
asserted by tests/test_lint.py — renumber there after editing here.
"""

from repro.experiments.common import bump_kpi, record_kpi, record_kpi_samples


def publish(registry, latencies, tag):
    record_kpi("fig0.ho-latency.mean_ms", 1.0)
    record_kpi("fig0.throughput.day", 2.0)
    record_kpi_samples("fig0.CamelCase.samples_ms", latencies)
    bump_kpi("fig0.events")
    registry.gauge("fig0.energy.t5")
    registry.quantile(f"fig0.rtt.{tag}.paths")
    instruments.current().registry.gauge("fig0.energy.t6")
