"""Split-connection TCP performance-enhancing proxy at the RAN edge.

The StanfordSNR 5G testbed (and pepsal before it) shows the classic
escape hatch from the paper's TCP anomaly: terminate the end-to-end
connection at the cellular edge and run *two* TCP connections — one
over the wireline segment, one over the radio segment — each with a
congestion controller matched to its own path.  The wireline half sees
a short-RTT path whose drop-tail buffer is now a sane fraction of the
BDP (so AIMD recovers quickly), and the radio half's stalls and delay
wander never trigger wireline backoff.

Mechanics, mapped onto the existing transport machinery:

* :class:`PepIngress` is a plain :class:`TcpReceiver` on the origin
  side that reports in-order progress to the relay;
* :class:`PepEgressSender` is a :class:`TcpSender` whose "application
  data" is whatever the ingress has reassembled so far (``_has_data``
  is bounded by the relay buffer), with its own CCA;
* :class:`PepRelay` couples the two with a finite relay buffer and
  *backpressure*: when the buffer fills, the origin sender's advertised
  receive window shrinks — exactly how a real split proxy stops the
  server from overrunning it — and reopens as the egress side drains.

Everything is event-driven off existing ACK deliveries: the relay adds
no timers, no RNG, and no wall-clock reads, so PEP runs are as
deterministic as single-connection ones.
"""

from __future__ import annotations

from repro import instruments
from repro.net.packet import Packet
from repro.net.path import NetworkPath
from repro.net.sim import Simulator
from repro.transport.base import CongestionControl, TcpReceiver, TcpSender

__all__ = ["PepIngress", "PepEgressSender", "PepRelay"]


class PepIngress(TcpReceiver):
    """Origin-side receiver that tells the relay when bytes become relayable."""

    def __init__(self, sim: Simulator, path: NetworkPath, flow_id: int, relay: "PepRelay") -> None:
        self._relay = relay
        super().__init__(sim, path, flow_id)

    def _on_data(self, packet: Packet) -> None:
        before = self.rcv_next
        super()._on_data(packet)
        if self.rcv_next > before:
            self._relay._on_ingress_progress()


class PepEgressSender(TcpSender):
    """Edge-side sender clocked by relay occupancy instead of an app."""

    def __init__(
        self,
        sim: Simulator,
        path: NetworkPath,
        cc: CongestionControl,
        flow_id: int,
        relay: "PepRelay",
    ) -> None:
        self._relay = relay
        super().__init__(sim, path, cc, flow_id, transfer_bytes=None)

    def _has_data(self) -> bool:
        # Only full segments: bytes the ingress has not reassembled yet
        # must never be invented on the egress side.
        return self.next_seq + self.mss <= self._relay.available_bytes

    def _on_ack(self, packet: Packet) -> None:
        before = self.cum_ack
        super()._on_ack(packet)
        if self.cum_ack > before:
            self._relay._on_egress_progress()


class PepRelay:
    """The proxy: origin connection || relay buffer || egress connection.

    Args:
        sim: Shared simulator.
        origin_path: Path the origin sender transmits over (WAN side for
            downlink, RAN side for uplink).
        egress_path: Path the proxy retransmits over.
        origin_cc: Congestion controller for the origin connection.
        egress_cc: Congestion controller for the proxy's connection.
        buffer_bytes: Relay buffer bound enforced via backpressure.
        flow_id: Flow id shared by both halves (they live on disjoint
            paths, so there is no ambiguity).
        transfer_bytes: Optional fixed transfer size for the origin.
    """

    def __init__(
        self,
        sim: Simulator,
        origin_path: NetworkPath,
        egress_path: NetworkPath,
        origin_cc: CongestionControl,
        egress_cc: CongestionControl,
        buffer_bytes: int,
        flow_id: int = 1,
        transfer_bytes: int | None = None,
    ) -> None:
        if buffer_bytes < origin_cc.mss:
            raise ValueError(f"relay buffer must hold at least one MSS, got {buffer_bytes}")
        self.sim = sim
        self.buffer_bytes = buffer_bytes
        self._config_rwnd_bytes = origin_path.config.rwnd_bytes
        self._auditor = instruments.current().auditor
        self.ingress = PepIngress(sim, origin_path, flow_id, relay=self)
        self.origin = TcpSender(sim, origin_path, origin_cc, flow_id, transfer_bytes=transfer_bytes)
        self.egress = PepEgressSender(sim, egress_path, egress_cc, flow_id, relay=self)
        self.terminus = TcpReceiver(sim, egress_path, flow_id)
        self._update_backpressure()

    # -- relay state -----------------------------------------------------

    @property
    def available_bytes(self) -> int:
        """In-order bytes the ingress has reassembled (egress high-water)."""
        return self.ingress.rcv_next

    @property
    def backlog_bytes(self) -> int:
        """Bytes held at the proxy: reassembled but not yet egress-acked."""
        return self.ingress.rcv_next - self.egress.cum_ack

    def start(self) -> None:
        """Begin the origin transfer (the egress side self-clocks)."""
        self.origin.start()

    # -- coupling --------------------------------------------------------

    def _on_ingress_progress(self) -> None:
        self._update_backpressure()
        self.egress._try_send()

    def _on_egress_progress(self) -> None:
        self._update_backpressure()
        # Reopened window: the origin may have gone idle with nothing in
        # flight, in which case no ACK will ever kick it — kick it here.
        self.origin._try_send()

    def _update_backpressure(self) -> None:
        headroom = self.buffer_bytes - self.backlog_bytes
        self.origin.rwnd_bytes = min(self._config_rwnd_bytes, max(headroom, 0))
        if self._auditor.enabled:
            self._audit_backpressure()

    def _audit_backpressure(self) -> None:
        """Bounds probes on the relay's backpressure coupling (read-only).

        The advertised window must stay inside [0, configured rwnd], and
        the backlog inside [0, buffer + configured rwnd] — the origin may
        legitimately overshoot the buffer by at most the window it was
        advertised *before* the buffer filled.
        """
        auditor = self._auditor
        now = self.sim.now
        rwnd = self.origin.rwnd_bytes
        backlog = self.backlog_bytes
        auditor.probe(
            "audit.pep.rwnd_bounds_bytes",
            0 <= rwnd <= self._config_rwnd_bytes,
            now,
            rwnd=rwnd,
            config_rwnd=self._config_rwnd_bytes,
        )
        auditor.probe(
            "audit.pep.backlog_bounds_bytes",
            0 <= backlog <= self.buffer_bytes + self._config_rwnd_bytes,
            now,
            backlog=backlog,
            buffer=self.buffer_bytes,
        )
