"""Drop-tail — the finite FIFO the paper's TCP anomaly lives in (Sec. 4.2).

Every router buffer of the measured deployment is one of these: packets
leave in arrival order and an arrival that finds the buffer full is
dropped.  Sized for 4G-era flows, it overflows in bursts under 5G-scale
windows, and every remedy in this package is judged against it.

A FIFO is work-conserving and keeps no sojourn times, so it needs
nothing from :class:`repro.qdisc.base.Qdisc` beyond the contract itself:
``next_ready_s`` stays ``None`` and no control law drops a queued packet.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.qdisc.base import Qdisc

if TYPE_CHECKING:
    from repro.audit.core import Auditor
    from repro.net.packet import Packet

__all__ = ["DropTailQueue"]


class DropTailQueue(Qdisc):
    """A finite FIFO of packets; arrivals beyond capacity are dropped."""

    name = "droptail"

    #: Bytes currently queued: a plain counter, not a property, because
    #: a link reads it every time it goes idle, about once per packet.
    occupancy_bytes: int = 0

    def __init__(self, capacity_packets: int) -> None:
        super().__init__(capacity_packets)
        self._queue: deque[Packet] = deque()
        self.occupancy_bytes = 0

    def enqueue(self, packet: Packet, now_s: float) -> bool:
        stats = self.stats
        if len(self._queue) >= self.capacity_packets:
            stats.drops += 1
            return False
        self._queue.append(packet)
        self.occupancy_bytes += packet.size_bytes
        stats.enqueued += 1
        stats.enqueued_bytes += packet.size_bytes
        return True

    def dequeue(self, now_s: float) -> Packet | None:
        if not self._queue:
            return None
        packet = self._queue.popleft()
        self.occupancy_bytes -= packet.size_bytes
        return packet

    @property
    def occupancy(self) -> int:
        return len(self._queue)

    def register_audit(self, auditor: Auditor, n: str) -> None:
        # The recount and sojourn ledgers would say nothing here: the
        # packet count is the deque's length, and a FIFO keeps no sojourn.
        self._watch_queue_residuals(auditor, n)
