"""Hand-off decision and execution under the 5G NSA architecture.

Implements the paper's Sec. 3.4 / Appendix A machinery:

* the A3 trigger of Eq. (1) — the neighbour's RSRQ must exceed the
  serving cell's by a 3 dB hysteresis continuously for a 324 ms
  time-to-trigger;
* the signaling procedures per hand-off kind, with per-step latencies.
  Under NSA a 5G-5G hand-off cannot switch gNBs directly: the UE releases
  its NR leg, hands the 4G anchor over, then re-adds NR on the target —
  which is why it takes ~108 ms against ~30 ms for a plain 4G-4G hand-off;
* vertical hand-offs: losing NR service drops the UE to its LTE anchor
  (5G-4G) and recovering NR coverage re-adds the leg (4G-5G).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from collections.abc import Iterable, Sequence

import numpy as np

from repro import instruments
from repro.core.config import DEFAULT_HANDOFF_CONFIG, HandoffConfig
from repro.mobility.walker import TrajectoryPoint
from repro.radio import batch
from repro.radio.cell import RadioNetwork
from repro.radio.signal import MIN_SERVICE_RSRP_DBM

__all__ = [
    "HandoffKind",
    "SignalingStep",
    "SA_NR_TO_NR_STEPS",
    "HandoffProcedure",
    "HandoffEvent",
    "HandoffCampaign",
    "HandoffEngine",
]


class HandoffKind:
    """Canonical hand-off kind labels used throughout the experiments."""

    LTE_TO_LTE = "4G-4G"
    NR_TO_NR = "5G-5G"
    NR_TO_LTE = "5G-4G"
    LTE_TO_NR = "4G-5G"

    ALL = (LTE_TO_LTE, NR_TO_NR, NR_TO_LTE, LTE_TO_NR)


@dataclass(frozen=True)
class SignalingStep:
    """One control-plane message exchange with its mean latency."""

    name: str
    mean_latency_s: float


#: Signaling procedures reverse-engineered from XCAL traces (Appendix A,
#: Fig. 24).  Mean step latencies are calibrated so the totals match the
#: measured averages: 30.10 ms (4G-4G), 108.40 ms (5G-5G), 80.23 ms (4G-5G).
_PROCEDURES: dict[str, tuple[SignalingStep, ...]] = {
    HandoffKind.LTE_TO_LTE: (
        SignalingStep("measurement report", 0.002),
        SignalingStep("hand-off request", 0.004),
        SignalingStep("admission control", 0.005),
        SignalingStep("RRC connection reconfiguration", 0.008),
        SignalingStep("random access procedure", 0.008),
        SignalingStep("path switch", 0.003),
    ),
    HandoffKind.NR_TO_NR: (
        SignalingStep("measurement report", 0.002),
        SignalingStep("NR resource release at source", 0.015),
        SignalingStep("hand-off request (anchor eNB)", 0.004),
        SignalingStep("admission control", 0.005),
        SignalingStep("T-gNB addition request", 0.006),
        SignalingStep("T-gNB addition request ACK", 0.004),
        SignalingStep("RRC connection reconfiguration (x3)", 0.024),
        SignalingStep("SN status transfer", 0.005),
        SignalingStep("link synchronization with T-eNB", 0.020),
        SignalingStep("random access procedure", 0.008),
        SignalingStep("T-gNB RRC reconfiguration complete", 0.0154),
    ),
    HandoffKind.LTE_TO_NR: (
        SignalingStep("B1 measurement report", 0.002),
        SignalingStep("gNB addition request", 0.010),
        SignalingStep("gNB addition request ACK", 0.008),
        SignalingStep("RRC connection reconfiguration", 0.015),
        SignalingStep("link synchronization", 0.020),
        SignalingStep("random access procedure (NR)", 0.012),
        SignalingStep("RRC reconfiguration complete", 0.013),
    ),
    HandoffKind.NR_TO_LTE: (
        SignalingStep("measurement report", 0.002),
        SignalingStep("NR resource release", 0.015),
        SignalingStep("RRC connection reconfiguration", 0.012),
        SignalingStep("data path roll-back to eNB", 0.016),
    ),
}

#: Direct Xn hand-off between gNBs under standalone 5G: the same four
#: phases as a 4G X2 hand-off, on NR timing (Sec. 8 projection).  Under
#: ``sa_mode`` this replaces the NSA anchor dance for 5G-5G hand-offs.
SA_NR_TO_NR_STEPS: tuple[SignalingStep, ...] = (
    SignalingStep("measurement report", 0.002),
    SignalingStep("Xn hand-off request", 0.004),
    SignalingStep("admission control", 0.005),
    SignalingStep("RRC reconfiguration", 0.008),
    SignalingStep("random access procedure (NR)", 0.008),
    SignalingStep("path switch (5GC)", 0.004),
)


def _procedure_steps(kind: str, sa_mode: bool) -> tuple[SignalingStep, ...]:
    if sa_mode and kind == HandoffKind.NR_TO_NR:
        return SA_NR_TO_NR_STEPS
    try:
        return _PROCEDURES[kind]
    except KeyError:
        raise ValueError(f"unknown hand-off kind {kind!r}") from None


@dataclass(frozen=True)
class HandoffProcedure:
    """A realized signaling procedure: the steps with drawn latencies."""

    kind: str
    step_latencies_s: tuple[tuple[str, float], ...]

    @property
    def total_latency_s(self) -> float:
        """Sum of the drawn step latencies."""
        return sum(latency for _, latency in self.step_latencies_s)

    @classmethod
    def draw(
        cls, kind: str, rng: np.random.Generator, sa_mode: bool = False
    ) -> "HandoffProcedure":
        """Draw per-step latencies for a hand-off of ``kind``.

        Step latencies are gamma-distributed around their calibrated means
        (shape 9, giving ~33% coefficient of variation as in the measured
        CDFs of Fig. 6).  With ``sa_mode`` the 5G-5G hand-off runs the
        direct Xn procedure instead of the NSA anchor dance.
        """
        steps = _procedure_steps(kind, sa_mode)
        shape = 9.0
        drawn = tuple(
            (step.name, float(rng.gamma(shape, step.mean_latency_s / shape)))
            for step in steps
        )
        return cls(kind=kind, step_latencies_s=drawn)

    @staticmethod
    def mean_latency_s(kind: str, sa_mode: bool = False) -> float:
        """Calibrated mean total latency for a hand-off kind."""
        return sum(step.mean_latency_s for step in _procedure_steps(kind, sa_mode))


@dataclass(frozen=True)
class HandoffEvent:
    """One executed hand-off."""

    time_s: float
    kind: str
    source_pci: int
    target_pci: int
    latency_s: float
    rsrq_before_db: float
    rsrq_after_db: float

    @property
    def rsrq_gain_db(self) -> float:
        """Instantaneous RSRQ change across the hand-off (Fig. 5)."""
        return self.rsrq_after_db - self.rsrq_before_db


@dataclass
class TraceSample:
    """One measurement report in the campaign trace (Fig. 4 raw data)."""

    time_s: float
    rat: str
    serving_pci: int
    serving_rsrq_db: float
    neighbor_rsrqs_db: dict[int, float] = field(default_factory=dict)
    inter_rat_rsrq_db: float | None = None


@dataclass
class HandoffCampaign:
    """Everything a hand-off measurement walk produced."""

    events: list[HandoffEvent] = field(default_factory=list)
    trace: list[TraceSample] = field(default_factory=list)
    outages: list[tuple[float, float]] = field(default_factory=list)

    def events_of_kind(self, kind: str) -> list[HandoffEvent]:
        """All events of one hand-off kind."""
        return [e for e in self.events if e.kind == kind]

    @property
    def horizontal_count(self) -> int:
        """5G-5G plus 4G-4G event count."""
        return len(self.events_of_kind(HandoffKind.NR_TO_NR)) + len(
            self.events_of_kind(HandoffKind.LTE_TO_LTE)
        )

    @property
    def vertical_count(self) -> int:
        """5G-4G plus 4G-5G event count."""
        return len(self.events_of_kind(HandoffKind.NR_TO_LTE)) + len(
            self.events_of_kind(HandoffKind.LTE_TO_NR)
        )


def _report_orders(pcis: Sequence[int]) -> list[tuple[np.ndarray, tuple[int, ...]]]:
    """Per serving column: the columns one report measures, and the neighbours.

    A report measures the serving cell first, then every other cell in
    PCI (column) order; the second item names those neighbours.
    """
    orders = []
    for serving in range(len(pcis)):
        others = [j for j in range(len(pcis)) if j != serving]
        orders.append((np.array([serving, *others]), tuple(pcis[j] for j in others)))
    return orders


class HandoffEngine:
    """Runs the NSA dual-connectivity hand-off logic over a trajectory.

    The UE always holds an LTE anchor; an NR leg is attached whenever NR
    coverage allows.  A3 events steer both legs; losing/regaining NR
    service causes vertical hand-offs.

    Args:
        nr_network: The 5G campus network.
        lte_network: The 4G campus network (anchors + infill).
        rng: Randomness for signaling latency draws.
        config: A3 hysteresis / time-to-trigger parameters.
        nr_reentry_margin_db: RSRP above the service floor required before
            re-adding the NR leg, preventing ping-pong at the coverage
            edge.
        measurement_noise_db: Std-dev of per-report RSRQ measurement noise.
            Real filtered RSRQ reports jitter by 1-2 dB, which is what
            makes a quarter of triggered hand-offs land on a worse cell
            (Fig. 5).
        sa_mode: Run 5G-5G hand-offs as direct standalone Xn hand-overs
            instead of the NSA release/anchor/re-add procedure.
    """

    def __init__(
        self,
        nr_network: RadioNetwork,
        lte_network: RadioNetwork,
        rng: np.random.Generator,
        config: HandoffConfig = DEFAULT_HANDOFF_CONFIG,
        nr_reentry_margin_db: float = 12.0,
        measurement_noise_db: float = 1.5,
        sa_mode: bool = False,
    ) -> None:
        self.nr = nr_network
        self.lte = lte_network
        self.config = config
        self.nr_reentry_margin_db = nr_reentry_margin_db
        self.measurement_noise_db = measurement_noise_db
        self.sa_mode = sa_mode
        self._rng = rng
        self._tracer = instruments.current().tracer

    def run(self, trajectory: Iterable[TrajectoryPoint]) -> HandoffCampaign:
        """Walk ``trajectory``, producing hand-off events and traces."""
        campaign = HandoffCampaign()
        nr_pci: int | None = None
        lte_pci: int | None = None
        a3_since: dict[str, float | None] = {"nr": None, "lte": None}
        nr_good_since: float | None = None
        blocked_until = -1.0
        attached = False

        # All radio measurements the walk will ever need, batched up
        # front: per-tick RSRP rows plus the RSRQ of every candidate
        # serving choice.  The walker RNG is independent of the engine's
        # latency/noise streams, so materializing the trajectory first
        # does not perturb any draw order.
        ticks = list(trajectory)
        if not ticks:
            return campaign
        locations = [sample.location for sample in ticks]
        nr_matrix = self.nr.rsrp_matrix_at(locations)
        lte_matrix = self.lte.rsrp_matrix_at(locations)
        nr_rsrq_matrix = batch.rsrq_matrix(
            nr_matrix,
            subcarrier_khz=self.nr.profile.subcarrier_khz,
            interference_floor_dbm=self.nr.interference_floor_dbm,
        )
        lte_rsrq_matrix = batch.rsrq_matrix(
            lte_matrix,
            subcarrier_khz=self.lte.profile.subcarrier_khz,
            interference_floor_dbm=self.lte.interference_floor_dbm,
        )
        nr_pcis, lte_pcis = self.nr.pcis, self.lte.pcis
        nr_col = {pci: j for j, pci in enumerate(nr_pcis)}
        lte_col = {pci: j for j, pci in enumerate(lte_pcis)}
        nr_reports = _report_orders(nr_pcis)
        lte_reports = _report_orders(lte_pcis)
        sigma = self.measurement_noise_db
        normal = self._rng.normal

        def measured(rsrqs: np.ndarray) -> list[float]:
            # Report-level noise, one draw per value in report order.  One
            # size-k call returns the values of k scalar calls.
            if sigma <= 0.0:
                return rsrqs.tolist()
            return (rsrqs + normal(0.0, sigma, size=len(rsrqs))).tolist()

        for i, sample in enumerate(ticks):
            t = sample.time_s
            nr_rsrps = dict(zip(nr_pcis, nr_matrix[i].tolist()))
            lte_rsrps = dict(zip(lte_pcis, lte_matrix[i].tolist()))
            nr_rsrqs = nr_rsrq_matrix[i].tolist()
            lte_rsrqs = lte_rsrq_matrix[i].tolist()

            if not attached:
                # Initial attach: pick the LTE anchor and, if covered, the
                # NR leg without emitting hand-off events.  Later NR
                # re-attachment goes through the 4G-5G procedure below.
                lte_pci = max(lte_rsrps, key=lambda p: lte_rsrps[p])
                if self._nr_usable(nr_rsrps):
                    nr_pci = max(nr_rsrps, key=lambda p: nr_rsrps[p])
                attached = True

            on_nr = nr_pci is not None
            serving_rsrqs = nr_rsrqs if on_nr else lte_rsrqs
            serving_col = nr_col if on_nr else lte_col
            serving_pci = nr_pci if on_nr else lte_pci
            serving_row = (nr_rsrq_matrix if on_nr else lte_rsrq_matrix)[i]
            order, neighbors = (nr_reports if on_nr else lte_reports)[serving_col[serving_pci]]
            # Inter-RAT measurement: the LTE anchor while riding NR, or the
            # best NR cell while camped on LTE (feeds B1/B2 events).
            if on_nr:
                inter_rat = lte_rsrqs[lte_col[lte_pci]]
            else:
                best_nr_pci = max(nr_rsrps, key=lambda p: nr_rsrps[p])
                inter_rat = nr_rsrqs[nr_col[best_nr_pci]]
            # One report: the serving cell, its neighbours, the inter-RAT cell.
            report = measured(np.append(serving_row[order], inter_rat))
            serving_rsrq = report[0]
            neighbor_rsrqs = dict(zip(neighbors, report[1:-1]))
            campaign.trace.append(
                TraceSample(
                    time_s=t,
                    rat="5G" if on_nr else "4G",
                    serving_pci=serving_pci,
                    serving_rsrq_db=serving_rsrq,
                    neighbor_rsrqs_db=neighbor_rsrqs,
                    inter_rat_rsrq_db=report[-1],
                )
            )

            if t < blocked_until:
                continue

            # Vertical: NR leg lost -> fall back to the LTE anchor.
            if on_nr and nr_rsrps[nr_pci] < MIN_SERVICE_RSRP_DBM:
                best_nr = max(nr_rsrps, key=lambda p: nr_rsrps[p])
                if nr_rsrps[best_nr] >= MIN_SERVICE_RSRP_DBM:
                    # A usable neighbour exists; let A3 handle it instead.
                    pass
                else:
                    blocked_until = self._execute(
                        campaign,
                        t,
                        HandoffKind.NR_TO_LTE,
                        source_pci=nr_pci,
                        target_pci=lte_pci,
                        rsrq_before=serving_rsrq,
                        rsrq_after=lte_rsrqs[lte_col[lte_pci]],
                    )
                    nr_pci = None
                    a3_since["nr"] = None
                    nr_good_since = None
                    continue

            # Vertical: NR coverage recovered -> re-add the NR leg (B1).
            if not on_nr:
                best_nr = max(nr_rsrps, key=lambda p: nr_rsrps[p])
                if nr_rsrps[best_nr] >= MIN_SERVICE_RSRP_DBM + self.nr_reentry_margin_db:
                    if nr_good_since is None:
                        nr_good_since = t
                    elif t - nr_good_since >= 3.0 * self.config.time_to_trigger_s:
                        blocked_until = self._execute(
                            campaign,
                            t,
                            HandoffKind.LTE_TO_NR,
                            source_pci=lte_pci,
                            target_pci=best_nr,
                            rsrq_before=serving_rsrq,
                            rsrq_after=nr_rsrqs[nr_col[best_nr]],
                            triggered_at_s=nr_good_since,
                        )
                        nr_pci = best_nr
                        nr_good_since = None
                        continue
                else:
                    nr_good_since = None

            # Horizontal A3 on the active data leg.
            fired = self._a3_step(
                campaign, t, a3_since, "nr" if on_nr else "lte",
                HandoffKind.NR_TO_NR if on_nr else HandoffKind.LTE_TO_LTE,
                serving_pci, serving_rsrq, neighbor_rsrqs, serving_rsrqs, serving_col,
            )
            if fired is not None:
                target_pci, blocked_until = fired
                if on_nr:
                    nr_pci = target_pci
                else:
                    lte_pci = target_pci

            # The 4G anchor keeps its own A3 mobility even while the data
            # plane rides NR (NSA dual connectivity).
            if on_nr:
                order, neighbors = lte_reports[lte_col[lte_pci]]
                anchor_report = measured(lte_rsrq_matrix[i][order])
                fired = self._a3_step(
                    campaign, t, a3_since, "lte", HandoffKind.LTE_TO_LTE, lte_pci,
                    anchor_report[0], dict(zip(neighbors, anchor_report[1:])),
                    lte_rsrqs, lte_col,
                )
                if fired is not None:
                    lte_pci, blocked_until = fired

        return campaign

    def _a3_step(
        self, campaign: HandoffCampaign, t: float, a3_since: dict[str, float | None],
        leg: str, kind: str, source_pci: int, source_rsrq: float,
        neighbor_rsrqs: dict[int, float], target_rsrqs: list[float], target_col: dict[int, int],
    ) -> tuple[int, float] | None:
        """One A3 evaluation (Eq. 1) on ``leg``.

        The best reported neighbour must beat ``source_rsrq`` by the
        hysteresis continuously for the time-to-trigger; ``a3_since[leg]``
        holds when that entry condition first held.  Returns
        ``(target_pci, busy_until)`` when the hand-off fires, else None.
        """
        if not neighbor_rsrqs:
            return None
        best_pci = max(neighbor_rsrqs, key=lambda p: neighbor_rsrqs[p])
        if neighbor_rsrqs[best_pci] - source_rsrq > self.config.hysteresis_db:
            if a3_since[leg] is None:
                a3_since[leg] = t
            elif t - a3_since[leg] >= self.config.time_to_trigger_s:
                busy_until = self._execute(
                    campaign,
                    t,
                    kind,
                    source_pci=source_pci,
                    target_pci=best_pci,
                    rsrq_before=source_rsrq,
                    rsrq_after=target_rsrqs[target_col[best_pci]],
                    triggered_at_s=a3_since[leg],
                )
                a3_since[leg] = None
                return best_pci, busy_until
        else:
            a3_since[leg] = None
        return None

    def _nr_usable(self, nr_rsrps: dict[int, float]) -> bool:
        return max(nr_rsrps.values()) >= MIN_SERVICE_RSRP_DBM

    def _execute(
        self,
        campaign: HandoffCampaign,
        t: float,
        kind: str,
        source_pci: int,
        target_pci: int,
        rsrq_before: float,
        rsrq_after: float,
        triggered_at_s: float | None = None,
    ) -> float:
        """Record one hand-off; returns the time the UE is busy until."""
        procedure = HandoffProcedure.draw(kind, self._rng, sa_mode=self.sa_mode)
        latency = procedure.total_latency_s
        tracer = self._tracer
        if tracer.enabled:
            # The full measurement-to-completion interval (A3 trigger start
            # through the last signaling step), then the Appendix A phases
            # laid back-to-back inside the procedure span.
            if triggered_at_s is not None:
                tracer.complete(
                    "ho.a3_to_complete", triggered_at_s, t + latency, kind=kind
                )
            tracer.instant(
                "ho.trigger", t, kind=kind, source_pci=source_pci, target_pci=target_pci
            )
            tracer.complete(
                f"handoff:{kind}",
                t,
                t + latency,
                source_pci=source_pci,
                target_pci=target_pci,
            )
            cursor_s = t
            for step_name, step_latency_s in procedure.step_latencies_s:
                tracer.complete(
                    f"ho.phase:{step_name}", cursor_s, cursor_s + step_latency_s, kind=kind
                )
                cursor_s += step_latency_s
            tracer.instant("ho.complete", t + latency, kind=kind, target_pci=target_pci)
        campaign.events.append(
            HandoffEvent(
                time_s=t,
                kind=kind,
                source_pci=source_pci,
                target_pci=target_pci,
                latency_s=latency,
                rsrq_before_db=rsrq_before,
                rsrq_after_db=rsrq_after,
            )
        )
        campaign.outages.append((t, t + latency))
        return t + latency


def rsrq_gain_cdf_fraction(
    events: Sequence[HandoffEvent], threshold_db: float = 3.0
) -> float:
    """Fraction of hand-offs whose RSRQ gain exceeds ``threshold_db``.

    The paper reports only ~75% of hand-offs gain more than the 3 dB the
    trigger nominally guarantees (Fig. 5).
    """
    if not events:
        raise ValueError("no hand-off events")
    return sum(1 for e in events if e.rsrq_gain_db > threshold_db) / len(events)
