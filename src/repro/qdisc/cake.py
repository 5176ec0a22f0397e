"""Simplified CAKE: a virtual-time shaper over host/flow-isolated CoDel queues.

The real CAKE qdisc (Linux ``sch_cake``) bundles a deficit-mode shaper,
set-associative flow hashing with host isolation ("triple isolate"), and
per-flow CoDel.  This model keeps the three pieces that matter for the
paper's anomaly and drops the rest (diffserv tins, GSO peeling, ack
filtering):

* **shaper** — packets leave no faster than ``shaper_rate_bps``.  Run
  slightly *below* the bottleneck rate, this moves the standing queue
  out of the dumb drop-tail buffer and into CAKE, where the control law
  can see it.  The shaper is a virtual clock: after releasing a packet
  the earliest next release is ``size_bytes * 8 / shaper_rate_bps``
  later, and :meth:`next_ready_s` tells the link when to wake up —
  no polling, no RNG, byte-identical everywhere.
* **triple isolate** — fairness is enforced at two levels: deficit
  round robin over *hosts*, then over each host's *flows*, so one
  many-flow host cannot monopolise the bottleneck.
* **per-flow CoDel** — each flow queue runs the RFC 8289 control law
  via :class:`repro.qdisc.codel.CoDelQueue`.

``shaper_rate_bps`` is a plain mutable attribute: the autorate
controller (``qdisc/autorate.py``) retunes it in flight.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.qdisc.base import Qdisc
from repro.qdisc.codel import DEFAULT_INTERVAL_S, DEFAULT_TARGET_S
from repro.qdisc.fq_codel import _Flow, flow_hash

if TYPE_CHECKING:
    from repro.net.packet import Packet

__all__ = ["CakeQueue"]


class _CakeHost:
    """One host bucket: a DRR ring of that host's flows plus its own deficit."""

    __slots__ = ("flows", "ring", "deficit_bytes", "active")

    def __init__(self) -> None:
        self.flows: dict[int, _Flow] = {}
        self.ring: deque[int] = deque()
        self.deficit_bytes = 0
        self.active = False


class CakeQueue(Qdisc):
    """Shaped, host-and-flow-isolated, CoDel-managed queue."""

    name = "cake"

    def __init__(
        self,
        shaper_rate_bps: float,
        capacity_packets: int = 1000,
        target_s: float = DEFAULT_TARGET_S,
        interval_s: float = DEFAULT_INTERVAL_S,
        flows_count: int = 1024,
        hosts_count: int = 16,
        quantum_bytes: int = 1514,
    ) -> None:
        super().__init__(capacity_packets)
        if shaper_rate_bps <= 0:
            raise ValueError(f"shaper rate must be positive, got {shaper_rate_bps}")
        if flows_count < 1 or hosts_count < 1:
            raise ValueError("flows_count and hosts_count must be >= 1")
        if quantum_bytes < 1:
            # A zero quantum would rotate the DRR rings forever.
            raise ValueError(f"quantum_bytes must be >= 1, got {quantum_bytes}")
        self.shaper_rate_bps = shaper_rate_bps
        self.flows_count = flows_count
        self.hosts_count = hosts_count
        self.quantum_bytes = quantum_bytes
        self._target_s = target_s
        self._interval_s = interval_s
        self._hosts: dict[int, _CakeHost] = {}
        self._host_ring: deque[int] = deque()
        self._pkts = 0
        self._bytes = 0
        # Virtual clock of the deficit-mode shaper: earliest next release.
        self._time_next_packet_s = 0.0

    # -- classification --------------------------------------------------

    def _classify(self, packet: Packet) -> tuple[int, int]:
        """(host bucket, flow bucket) — "triple isolate" on flow identity.

        Packets may carry an explicit ``host_id``; flows without one fall
        back to their flow id, i.e. one host per flow.
        """
        host_id = packet.host_id
        if host_id is None:
            host_id = packet.flow_id
        return flow_hash(host_id, self.hosts_count), flow_hash(packet.flow_id, self.flows_count)

    # -- queue mechanics -------------------------------------------------

    def enqueue(self, packet: Packet, now_s: float) -> bool:
        if self._pkts >= self.capacity_packets:
            self.stats.drops += 1
            return False
        host_bucket, flow_bucket = self._classify(packet)
        host = self._hosts.get(host_bucket)
        if host is None:
            host = _CakeHost()
            self._hosts[host_bucket] = host
        flow = host.flows.get(flow_bucket)
        if flow is None:
            flow = _Flow(
                self.capacity_packets, self._target_s, self._interval_s, self._forward_drop
            )
            host.flows[flow_bucket] = flow
        if not flow.codel.enqueue(packet, now_s):
            self.stats.drops += 1
            return False
        self._pkts += 1
        self._bytes += packet.size_bytes
        self.stats.enqueued += 1
        self.stats.enqueued_bytes += packet.size_bytes
        if not flow.active:
            flow.active = True
            flow.deficit_bytes = self.quantum_bytes
            host.ring.append(flow_bucket)
        if not host.active:
            host.active = True
            host.deficit_bytes = self.quantum_bytes
            self._host_ring.append(host_bucket)
        return True

    def dequeue(self, now_s: float) -> Packet | None:
        if now_s < self._time_next_packet_s:
            return None  # shaped: not yet eligible; see next_ready_s()
        while self._host_ring:
            host_bucket = self._host_ring[0]
            host = self._hosts[host_bucket]
            if host.deficit_bytes <= 0:
                host.deficit_bytes += self.quantum_bytes
                self._host_ring.rotate(-1)
                continue
            packet = self._dequeue_from_host(host, now_s)
            if packet is None:
                self._host_ring.popleft()
                host.active = False
                continue
            host.deficit_bytes -= packet.size_bytes
            self._pkts -= 1
            self._bytes -= packet.size_bytes
            # Advance the shaper's virtual clock by this packet's
            # serialization time at the shaped rate.
            base = self._time_next_packet_s if self._time_next_packet_s > now_s else now_s
            self._time_next_packet_s = base + packet.size_bytes * 8 / self.shaper_rate_bps
            return packet
        return None

    def _dequeue_from_host(self, host: _CakeHost, now_s: float) -> Packet | None:
        while host.ring:
            flow_bucket = host.ring[0]
            flow = host.flows[flow_bucket]
            if flow.deficit_bytes <= 0:
                flow.deficit_bytes += self.quantum_bytes
                host.ring.rotate(-1)
                continue
            packet, dropped, dropped_bytes = flow.dequeue(now_s)
            if dropped:
                self._pkts -= dropped
                self._bytes -= dropped_bytes
                self.stats.aqm_drops += dropped
                self.stats.aqm_dropped_bytes += dropped_bytes
            if packet is None:
                host.ring.popleft()
                flow.active = False
                continue
            flow.deficit_bytes -= packet.size_bytes
            self.stats.note_sojourn(flow.codel.stats.last_sojourn_s)
            return packet
        return None

    def _recount(self) -> tuple[int, int]:
        pkts = 0
        size_bytes = 0
        for host in self._hosts.values():
            for flow in host.flows.values():
                flow_pkts, flow_bytes = flow.codel._recount()
                pkts += flow_pkts
                size_bytes += flow_bytes
        return pkts, size_bytes

    def next_ready_s(self, now_s: float) -> float | None:
        if self._pkts and now_s < self._time_next_packet_s:
            return self._time_next_packet_s
        return None

    @property
    def occupancy(self) -> int:
        return self._pkts

    @property
    def occupancy_bytes(self) -> int:
        return self._bytes
