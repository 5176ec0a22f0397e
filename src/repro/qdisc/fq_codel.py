"""FQ-CoDel — per-flow deficit round robin with CoDel on every queue.

RFC 8290's two ideas, reproduced on virtual time:

* **flow isolation** — packets hash (deterministically — no salted
  ``hash()``) into one of ``flows_count`` sub-queues scheduled by
  deficit round robin with a ``quantum_bytes`` per turn, so one bulk
  flow filling the under-buffered bottleneck cannot starve an ACK
  stream or a latency probe;
* **sparse-flow credit** — a queue that newly becomes active joins the
  priority ``new`` list and is served ahead of the backlogged ``old``
  list until it exhausts its first quantum, giving thin flows (the
  paper's RTT probes, handshakes) near-zero queueing delay.

Each sub-queue runs the same CoDel control law as
:class:`repro.qdisc.codel.CoDelQueue`, via composition.
"""

from __future__ import annotations

from collections import deque
from collections.abc import Callable
from typing import TYPE_CHECKING

from repro.qdisc.base import Qdisc
from repro.qdisc.codel import DEFAULT_INTERVAL_S, DEFAULT_TARGET_S, CoDelQueue

if TYPE_CHECKING:
    from repro.net.packet import Packet

__all__ = ["FqCodelQueue", "flow_hash"]

#: Knuth's multiplicative constant: a deterministic, well-mixing stand-in
#: for the kernel's (randomly keyed) Jenkins hash.
_HASH_MULTIPLIER = 2654435761


def flow_hash(flow_id: int, buckets: int) -> int:
    """Deterministic flow-to-bucket hash (identical across processes)."""
    return ((flow_id * _HASH_MULTIPLIER) & 0xFFFFFFFF) % buckets


class _Flow:
    """One sub-queue: a CoDel'd FIFO plus its DRR deficit.

    FQ-CoDel and CAKE schedule these; the parent forwards the sub-queue's
    control-law drops to its owner through ``on_drop``.
    """

    __slots__ = ("codel", "deficit_bytes", "active")

    def __init__(
        self,
        capacity_packets: int,
        target_s: float,
        interval_s: float,
        on_drop: Callable[[Packet], None],
    ) -> None:
        self.codel = CoDelQueue(
            capacity_packets=capacity_packets, target_s=target_s, interval_s=interval_s
        )
        self.codel.on_drop = on_drop
        self.deficit_bytes = 0
        self.active = False

    def dequeue(self, now_s: float) -> tuple[Packet | None, int, int]:
        """The sub-queue's next packet, and the packets and bytes its
        control law dropped on the way; the parent takes both off its books."""
        stats = self.codel.stats
        drops = stats.aqm_drops
        dropped_bytes = stats.aqm_dropped_bytes
        packet = self.codel.dequeue(now_s)
        return packet, stats.aqm_drops - drops, stats.aqm_dropped_bytes - dropped_bytes


class FqCodelQueue(Qdisc):
    """DRR scheduler over CoDel sub-queues with sparse-flow priority."""

    name = "fq-codel"

    def __init__(
        self,
        capacity_packets: int = 1000,
        target_s: float = DEFAULT_TARGET_S,
        interval_s: float = DEFAULT_INTERVAL_S,
        flows_count: int = 1024,
        quantum_bytes: int = 1514,
    ) -> None:
        super().__init__(capacity_packets)
        if flows_count < 1:
            raise ValueError(f"flows_count must be >= 1, got {flows_count}")
        if quantum_bytes < 1:
            raise ValueError(f"quantum_bytes must be >= 1, got {quantum_bytes}")
        self.flows_count = flows_count
        self.quantum_bytes = quantum_bytes
        self._flows: dict[int, _Flow] = {}
        self._new_flows: deque[int] = deque()
        self._old_flows: deque[int] = deque()
        self._target_s = target_s
        self._interval_s = interval_s
        self._pkts = 0
        self._bytes = 0

    def _flow_for(self, packet: Packet) -> tuple[int, _Flow]:
        bucket = flow_hash(packet.flow_id, self.flows_count)
        flow = self._flows.get(bucket)
        if flow is None:
            # Per-flow cap: the shared packet budget, so one flow alone
            # behaves exactly like a plain CoDel queue of the same size.
            flow = _Flow(
                self.capacity_packets, self._target_s, self._interval_s, self._forward_drop
            )
            self._flows[bucket] = flow
        return bucket, flow

    def enqueue(self, packet: Packet, now_s: float) -> bool:
        if self._pkts >= self.capacity_packets:
            self.stats.drops += 1
            return False
        bucket, flow = self._flow_for(packet)
        if not flow.codel.enqueue(packet, now_s):
            self.stats.drops += 1
            return False
        self._pkts += 1
        self._bytes += packet.size_bytes
        self.stats.enqueued += 1
        self.stats.enqueued_bytes += packet.size_bytes
        if not flow.active:
            # Sparse-flow credit: newly-active flows are served first.
            flow.active = True
            flow.deficit_bytes = self.quantum_bytes
            self._new_flows.append(bucket)
        return True

    def dequeue(self, now_s: float) -> Packet | None:
        while self._new_flows or self._old_flows:
            from_new = bool(self._new_flows)
            queue = self._new_flows if from_new else self._old_flows
            bucket = queue[0]
            flow = self._flows[bucket]
            if flow.deficit_bytes <= 0:
                flow.deficit_bytes += self.quantum_bytes
                queue.popleft()
                self._old_flows.append(bucket)
                continue
            packet, dropped, dropped_bytes = flow.dequeue(now_s)
            if dropped:
                self._pkts -= dropped
                self._bytes -= dropped_bytes
                self.stats.aqm_drops += dropped
                self.stats.aqm_dropped_bytes += dropped_bytes
            if packet is None:
                # Queue drained: a new flow that empties within its first
                # quantum stays "sparse" — it re-enters via new_flows on
                # its next packet (RFC 8290 Sec. 4.2's list handling).
                queue.popleft()
                flow.active = False
                continue
            flow.deficit_bytes -= packet.size_bytes
            self._pkts -= 1
            self._bytes -= packet.size_bytes
            self.stats.note_sojourn(flow.codel.stats.last_sojourn_s)
            return packet
        return None

    def _recount(self) -> tuple[int, int]:
        pkts = 0
        size_bytes = 0
        for flow in self._flows.values():
            flow_pkts, flow_bytes = flow.codel._recount()
            pkts += flow_pkts
            size_bytes += flow_bytes
        return pkts, size_bytes

    @property
    def occupancy(self) -> int:
        return self._pkts

    @property
    def occupancy_bytes(self) -> int:
        return self._bytes
