"""repro.qdisc — queue disciplines and remedies for the paper's TCP anomaly.

The paper (Sec. 4.2) shows drop-tail buffers (:class:`DropTailQueue`)
far below the 5G bandwidth-delay product collapsing TCP; this subsystem
holds that buffer and supplies the remedies the measurement study could
only speculate about: AQM at the bottleneck (:class:`CoDelQueue`,
:class:`FqCodelQueue`, :class:`CakeQueue`), a closed-loop shaper
controller (:class:`AutorateController`), and a split-connection
performance enhancing proxy (:mod:`repro.qdisc.pep`).  Every queue obeys
one contract (:class:`Qdisc`), so a link holds any of them alike.
Scenario wiring lives in the ``[remedy]`` section (:class:`RemedySection`).
"""

from __future__ import annotations

from repro.qdisc.base import Qdisc, QdiscStats
from repro.qdisc.codel import CoDelQueue
from repro.qdisc.config import QDISC_NAMES, REMEDY_APPLY_TO, RemedySection
from repro.qdisc.droptail import DropTailQueue
from repro.qdisc.fq_codel import FqCodelQueue, flow_hash
from repro.qdisc.cake import CakeQueue
from repro.qdisc.autorate import AutorateController, ShaperState

__all__ = [
    "Qdisc",
    "QdiscStats",
    "DropTailQueue",
    "CoDelQueue",
    "FqCodelQueue",
    "CakeQueue",
    "AutorateController",
    "ShaperState",
    "RemedySection",
    "QDISC_NAMES",
    "REMEDY_APPLY_TO",
    "flow_hash",
    "make_qdisc",
]


def make_qdisc(remedy: RemedySection, capacity_packets: int, link_rate_bps: float) -> Qdisc:
    """Build the configured discipline for a hop buffered ``capacity_packets`` deep.

    Drop-tail keeps the deployed depth: it is the measured deployment,
    not a remedy, so ``aqm_buffer_ratio`` does not apply to it.
    """
    if remedy.qdisc == "droptail":
        return DropTailQueue(capacity_packets)
    target_s = remedy.target_ms / 1e3
    interval_s = remedy.interval_ms / 1e3
    # AQM makes deep buffers safe (the control law caps the standing
    # queue), so every AQM discipline gets ``aqm_buffer_ratio`` times the
    # drop-tail allocation: the paper's under-buffered routers overflow
    # in bursts no control law can pre-empt at 1x depth.
    capacity_packets = max(8, int(capacity_packets * remedy.aqm_buffer_ratio))
    if remedy.qdisc == "codel":
        return CoDelQueue(
            capacity_packets=capacity_packets, target_s=target_s, interval_s=interval_s
        )
    if remedy.qdisc == "fq-codel":
        return FqCodelQueue(
            capacity_packets=capacity_packets,
            target_s=target_s,
            interval_s=interval_s,
            flows_count=remedy.flows_count,
            quantum_bytes=remedy.quantum_bytes,
        )
    if remedy.qdisc == "cake":
        return CakeQueue(
            shaper_rate_bps=remedy.shaper_ratio * link_rate_bps,
            capacity_packets=capacity_packets,
            target_s=target_s,
            interval_s=interval_s,
            flows_count=remedy.flows_count,
            hosts_count=remedy.hosts_count,
            quantum_bytes=remedy.quantum_bytes,
        )
    raise ValueError(f"unknown qdisc {remedy.qdisc!r}")
