"""Trace-driven energy simulation of the four power-management models
(Tab. 4): LTE, NR NSA, NR Oracle and heuristic dynamic 4G/5G switching.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Callable, Sequence

from repro.energy.drx import (
    LTE_DRX_CONFIG,
    LTE_POWER,
    NR_NSA_DRX_CONFIG,
    NR_POWER,
    EnergyResult,
    RadioEnergyModel,
    TimelineSegment,
    Transfer,
)
from repro import instruments

__all__ = [
    "WorkloadCapacities",
    "WEB_CAPACITIES",
    "VIDEO_CAPACITIES",
    "FILE_CAPACITIES",
    "simulate_lte",
    "simulate_nr_nsa",
    "simulate_nr_oracle",
    "simulate_dynamic_switch",
    "MODEL_RUNNERS",
    "DYNAMIC_SWITCH_THRESHOLD_BPS",
]

#: The dynamic-switch heuristic: traffic denser than 4G capacity goes 5G.
DYNAMIC_SWITCH_THRESHOLD_BPS = 100e6


def _trace_segments(model_name: str, result: EnergyResult) -> EnergyResult:
    """Emit one radio-state span per timeline segment (no-op when untraced)."""
    tracer = instruments.current().tracer
    if tracer.enabled:
        for seg in result.segments:
            tracer.complete(
                f"energy.{seg.state}",
                seg.start_s,
                seg.end_s,
                model=model_name,
                power_w=seg.power_w,
            )
    return _audit_segments(model_name, result)


def _audit_segments(model_name: str, result: EnergyResult) -> EnergyResult:
    """Energy-ledger checks over one model's timeline (read-only).

    The timeline must be gap-free (every simulated second is priced in
    exactly one radio state), total dwell must equal the timeline span,
    and the per-state energy decomposition must re-sum to the total —
    residuals beyond float accumulation noise mean a state was dropped
    or double-billed.
    """
    auditor = instruments.current().auditor
    if not auditor.enabled or not result.segments:
        return result
    segments = result.segments
    end_s = segments[-1].end_s
    max_gap = 0.0
    for prev, seg in zip(segments, segments[1:]):
        gap = abs(seg.start_s - prev.end_s)
        if gap > max_gap:
            max_gap = gap
    auditor.probe(
        "audit.energy.segment_gap_s",
        max_gap <= 1e-9,
        end_s,
        model=model_name,
        max_gap_s=max_gap,
    )
    span = end_s - segments[0].start_s
    dwell = sum(seg.duration_s for seg in segments)
    auditor.observe(
        "audit.energy.dwell_residual_s",
        span - dwell,
        time_s=end_s,
        tol=1e-6 * max(1.0, span),
        model=model_name,
    )
    total = result.total_energy_j
    by_state = sum(result.energy_by_state().values())
    auditor.observe(
        "audit.energy.state_residual_j",
        by_state - total,
        time_s=end_s,
        tol=1e-9 * max(1.0, abs(total)),
        model=model_name,
    )
    return result


@dataclass(frozen=True)
class WorkloadCapacities:
    """Effective link capacity each RAT delivers for one workload."""

    lte_bps: float
    nr_bps: float

    def __post_init__(self) -> None:
        if self.lte_bps <= 0 or self.nr_bps <= 0:
            raise ValueError("capacities must be positive")


#: Downlink page loads: both RATs deliver their daytime DL goodput.
WEB_CAPACITIES = WorkloadCapacities(lte_bps=125e6, nr_bps=880e6)

#: Uplink UHD telephony: the 45 Mbps stream saturates the congested 4G
#: uplink (effective goodput ~16 Mbps, cf. Fig. 18's dynamic-scene 4G
#: numbers), while 5G's 130 Mbps uplink carries it in real time.
VIDEO_CAPACITIES = WorkloadCapacities(lte_bps=16e6, nr_bps=130e6)

#: Saturated downloads: full daytime DL goodput.
FILE_CAPACITIES = WorkloadCapacities(lte_bps=125e6, nr_bps=880e6)


def simulate_lte(trace: Sequence[Transfer], capacities: WorkloadCapacities) -> EnergyResult:
    """All traffic over the 4G module."""
    model = RadioEnergyModel(LTE_POWER, LTE_DRX_CONFIG, capacities.lte_bps)
    return _trace_segments("LTE", model.replay(trace))


def simulate_nr_nsa(trace: Sequence[Transfer], capacities: WorkloadCapacities) -> EnergyResult:
    """All traffic over the 5G NSA module (current deployments)."""
    model = RadioEnergyModel(NR_POWER, NR_NSA_DRX_CONFIG, capacities.nr_bps)
    return _trace_segments("NR NSA", model.replay(trace))


def simulate_nr_oracle(
    trace: Sequence[Transfer], capacities: WorkloadCapacities
) -> EnergyResult:
    """Oracle sleep scheduling: perfect, zero-cost sleep/awake transitions.

    Whenever no data moves the radio drops straight to its deepest
    connected-mode sleep — but it still pays that sleep power, because the
    draw is intrinsic to the always-listening 5G RF hardware.  That is why
    even an oracle only trims 11-16% off NR NSA (Sec. 6.3): the protocol
    is not the bottleneck, the hardware is."""
    if not trace:
        raise ValueError("empty trace")
    result = EnergyResult()
    clock = 0.0
    for transfer in sorted(trace, key=lambda t: t.start_s):
        start = max(transfer.start_s, clock)
        if start > clock:
            result.segments.append(
                TimelineSegment(clock, start, "sleep", NR_POWER.drx_sleep_w)
            )
            clock = start
        rate = capacities.nr_bps
        if transfer.rate_hint_bps is not None:
            rate = min(rate, transfer.rate_hint_bps)
        duration = transfer.size_bytes * 8 / rate
        result.segments.append(
            TimelineSegment(clock, clock + duration, "active", NR_POWER.active_w(rate))
        )
        clock += duration
    return _trace_segments("NR Oracle", result)


def simulate_dynamic_switch(
    trace: Sequence[Transfer], capacities: WorkloadCapacities
) -> EnergyResult:
    """Heuristic mode selection (Sec. 6.3): route each transfer to 5G only
    when its instantaneous intensity approaches what the 4G link can
    deliver for this workload (nominally the 100 Mbps capacity, less if
    the workload congests 4G below that).

    Intensity is the transfer's source rate if capped, else the rate the
    4G link would need to keep up with the arrival process.
    """
    if not trace:
        raise ValueError("empty trace")
    lte_model = RadioEnergyModel(LTE_POWER, LTE_DRX_CONFIG, capacities.lte_bps)
    nr_model = RadioEnergyModel(NR_POWER, NR_NSA_DRX_CONFIG, capacities.nr_bps)

    result = EnergyResult()
    clock = 0.0
    connected_until = -1.0
    current: RadioEnergyModel | None = None

    threshold = min(DYNAMIC_SWITCH_THRESHOLD_BPS, 0.8 * capacities.lte_bps)
    for transfer in sorted(trace, key=lambda t: t.start_s):
        intensity = _intensity_bps(transfer, capacities)
        model = nr_model if intensity >= threshold else lte_model
        start = max(transfer.start_s, clock)
        if start > clock:
            # Gaps are priced on the cheap 4G module once the burst ends
            # (the heuristic drops back below threshold between bursts),
            # unless a high-rate stream merely paused within its
            # inactivity window.
            if current is nr_model and start - clock <= nr_model.drx.inactivity_s:
                result.segments.append(
                    TimelineSegment(clock, start, "inactivity", nr_model.power.drx_on_w)
                )
                clock = start
            else:
                clock = lte_model._fill_gap(result, clock, start, connected_until)
                if current is nr_model:
                    current = lte_model
        if model is not current or clock > connected_until:
            # Mode switch or cold start: pay the target RAT's promotion.
            result.segments.append(
                TimelineSegment(
                    clock,
                    clock + model.drx.promotion_s,
                    "promotion",
                    model.power.promotion_w,
                )
            )
            clock += model.drx.promotion_s
            current = model
        rate = model.capacity_bps
        if transfer.rate_hint_bps is not None:
            rate = min(rate, transfer.rate_hint_bps)
        duration = transfer.size_bytes * 8 / rate
        result.segments.append(
            TimelineSegment(clock, clock + duration, "active", model.power.active_w(rate))
        )
        clock += duration
        # Tail pricing: once traffic intensity drops, the heuristic rolls
        # back to the 4G module, so lulls and tails cost LTE prices — the
        # main saving over NR NSA for bursty traffic.  While a high-rate
        # stream keeps arriving (the gap never exceeds the inactivity
        # window), the radio stays on NR without re-promotion.
        connected_until = clock + lte_model.drx.tail_s

    result.segments.append(
        TimelineSegment(
            clock,
            connected_until,
            "tail-drx",
            lte_model.power.drx_average_w(lte_model.drx),
        )
    )
    return _trace_segments("Dyn. switch", result)


def _intensity_bps(transfer: Transfer, capacities: WorkloadCapacities) -> float:
    """Instantaneous traffic intensity the UE measures for the heuristic.

    Rate-capped streams declare their rate; for elastic transfers the UE
    sees the burst's bits spread over a one-second measurement window,
    capped by what 5G could deliver.
    """
    if transfer.rate_hint_bps is not None:
        return transfer.rate_hint_bps
    return min(transfer.size_bytes * 8 / 1.0, capacities.nr_bps)


MODEL_RUNNERS: dict[str, Callable[[Sequence[Transfer], WorkloadCapacities], EnergyResult]] = {
    "LTE": simulate_lte,
    "NR NSA": simulate_nr_nsa,
    "NR Oracle": simulate_nr_oracle,
    "Dyn. switch": simulate_dynamic_switch,
}
