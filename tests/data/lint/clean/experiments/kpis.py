"""Clean twin of the dirty KPI fixture: sanctioned metric naming.

Every name is lowercase dotted and ends in a ``core.units`` suffix or
``_count``/``_ratio``; f-string names keep the suffix in the literal
tail so it stays statically checkable.
"""

from repro.experiments.common import bump_kpi, record_kpi, record_kpi_samples


def publish(registry, latencies, tag):
    record_kpi("fig0.ho_latency.mean_ms", 1.0)
    record_kpi("fig0.throughput.day_bps", 2.0)
    record_kpi_samples("fig0.latency.samples_ms", latencies)
    bump_kpi("fig0.events_count")
    registry.gauge("fig0.energy.t5_nj")
    registry.quantile(f"fig0.rtt.{tag}.paths_ms")
    instruments.current().registry.gauge("fig0.energy.t6_nj")
