"""The queue-discipline contract every :class:`repro.net.link.Link` buffer obeys.

The paper's TCP anomaly (Sec. 4.2) is a story about one buffer, the
under-provisioned drop-tail FIFO (:class:`repro.qdisc.droptail.DropTailQueue`).
It and the remedies judged against it (CoDel, FQ-CoDel, CAKE) implement
one protocol, so a link holds any of them through the same code path:

* ``enqueue(packet, now_s)`` — offer a packet; ``False`` means the
  arriving packet was tail-dropped (the caller records the loss).
* ``dequeue(now_s)`` — hand the serializer the next packet, or ``None``.
  AQM disciplines may drop queued packets *inside* this call (CoDel's
  head drops); those losses surface through the ``on_drop`` callback,
  never through the return value.  The owner counts what it dequeued
  in ``stats.dequeued`` / ``stats.dequeued_bytes``.
* ``next_ready_s(now_s)`` — for shaped disciplines (CAKE), the virtual
  time at which a withheld packet becomes eligible; the link schedules a
  wake-up instead of busy-polling.  Work-conserving queues return
  ``None``.
* ``register_audit(auditor, n)`` — watch the discipline's own books as
  ``audit.link.<n>.*`` conservation ledgers.

Both packet and byte occupancy are first-class: AQM control laws reason
in sojourn time and bytes, while the paper's buffer estimates (Tab. 3)
are quoted in packets.

Everything here runs on virtual time fed in by the caller and draws no
randomness, so serial and parallel campaigns stay byte-identical.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from collections.abc import Callable
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    # Type-only: a runtime import would cycle through repro.net/__init__
    # back into this package (net.link builds drop-tail queues).
    from repro.audit.core import Auditor
    from repro.net.packet import Packet

__all__ = ["QdiscStats", "Qdisc"]


class QdiscStats:
    """Shared counters and sojourn tracking for queue disciplines.

    ``peak_sojourn_s`` is resettable (:meth:`take_peak_sojourn_s`) so a
    closed-loop controller can watch per-interval queueing delay without
    the qdisc holding an unbounded sample list.
    """

    __slots__ = (
        "drops",
        "aqm_drops",
        "enqueued",
        "dequeued",
        "enqueued_bytes",
        "dequeued_bytes",
        "aqm_dropped_bytes",
        "last_sojourn_s",
        "_peak_sojourn_s",
        "_sojourn_sum_s",
        "_sojourn_count",
    )

    def __init__(self) -> None:
        self.drops = 0  # arrivals rejected at the tail
        self.aqm_drops = 0  # queued packets dropped by the control law
        self.enqueued = 0
        self.dequeued = 0
        self.enqueued_bytes = 0
        self.dequeued_bytes = 0
        self.aqm_dropped_bytes = 0
        self.last_sojourn_s = 0.0
        self._peak_sojourn_s = 0.0
        self._sojourn_sum_s = 0.0
        self._sojourn_count = 0

    def note_sojourn(self, sojourn_s: float) -> None:
        """Record one dequeued packet's time in queue."""
        self.last_sojourn_s = sojourn_s
        if sojourn_s > self._peak_sojourn_s:
            self._peak_sojourn_s = sojourn_s
        self._sojourn_sum_s += sojourn_s
        self._sojourn_count += 1

    def take_peak_sojourn_s(self) -> float:
        """Peak sojourn since the previous call; resets the peak."""
        peak = self._peak_sojourn_s
        self._peak_sojourn_s = 0.0
        return peak

    def take_mean_sojourn_s(self) -> float:
        """Mean sojourn since the previous call; resets the accumulator.

        An idle interval (no dequeues) reads as zero queueing delay —
        the right answer for a controller probing for headroom.
        """
        if self._sojourn_count == 0:
            return 0.0
        mean = self._sojourn_sum_s / self._sojourn_count
        self._sojourn_sum_s = 0.0
        self._sojourn_count = 0
        return mean


class Qdisc(ABC):
    """Base class for queue disciplines (see the module docstring).

    Subclasses implement :meth:`enqueue` and :meth:`dequeue` and keep
    ``occupancy``/``occupancy_bytes`` coherent.  ``on_drop`` is invoked
    for every packet discarded *after* it was accepted (AQM head drops,
    overload reclaims); tail rejections are signalled by ``enqueue``
    returning ``False``.  ``capacity_packets`` bounds the packets held;
    owners may resize it after construction.
    """

    #: Name under which the factory registers the discipline.
    name: str = "abstract"

    def __init__(self, capacity_packets: int) -> None:
        if capacity_packets < 1:
            raise ValueError(f"queue capacity must be >= 1, got {capacity_packets}")
        self.capacity_packets = capacity_packets
        self.stats = QdiscStats()
        self.on_drop: Callable[[Packet], None] | None = None

    # -- the contract ---------------------------------------------------

    @abstractmethod
    def enqueue(self, packet: Packet, now_s: float) -> bool:
        """Offer ``packet`` at virtual time ``now_s``; False = tail drop."""

    @abstractmethod
    def dequeue(self, now_s: float) -> Packet | None:
        """Next packet to serialize, or ``None`` (empty or shaped-idle)."""

    @property
    @abstractmethod
    def occupancy(self) -> int:
        """Packets currently queued."""

    @property
    @abstractmethod
    def occupancy_bytes(self) -> int:
        """Bytes currently queued."""

    def next_ready_s(self, now_s: float) -> float | None:
        """When a withheld packet becomes eligible (shaped qdiscs only)."""
        return None

    def register_audit(self, auditor: Auditor, n: str) -> None:
        """Watch this discipline's books as ``audit.link.<n>.*`` ledgers.

        Flow conservation in packets and bytes, the books against a
        recount of the live structure, and the sign of the last sojourn.
        """
        self._watch_queue_residuals(auditor, n)
        auditor.watch(
            f"audit.link.{n}.occupancy_residual_pkts", lambda: self.occupancy_residual()[0]
        )
        auditor.watch(
            f"audit.link.{n}.occupancy_residual_bytes", lambda: self.occupancy_residual()[1]
        )
        stats = self.stats
        auditor.watch(
            f"audit.link.{n}.sojourn_bounds_s", lambda: max(0.0, -stats.last_sojourn_s)
        )

    def _watch_queue_residuals(self, auditor: Auditor, n: str) -> None:
        """Accepted = dequeued + control-law drops + still queued."""
        stats = self.stats
        auditor.watch(
            f"audit.link.{n}.queue_residual_pkts",
            lambda: stats.enqueued - stats.dequeued - stats.aqm_drops - self.occupancy,
        )
        auditor.watch(
            f"audit.link.{n}.queue_residual_bytes",
            lambda: stats.enqueued_bytes
            - stats.dequeued_bytes
            - stats.aqm_dropped_bytes
            - self.occupancy_bytes,
        )

    # -- shared bookkeeping ---------------------------------------------

    @property
    def drops(self) -> int:
        """Total losses: tail rejections plus control-law drops."""
        return self.stats.drops + self.stats.aqm_drops

    @property
    def enqueued(self) -> int:
        """Packets accepted into the queue since construction."""
        return self.stats.enqueued

    def occupancy_residual(self) -> tuple[int, int]:
        """Book-vs-recount drift as ``(packets, bytes)``; zero when sound.

        Walks the live queue structure (:meth:`_recount`) and subtracts
        the recount from the incrementally maintained ``occupancy`` /
        ``occupancy_bytes`` books.  O(queued packets) — call it from
        audit checkpoints, not per-packet hot paths.
        """
        pkts, size_bytes = self._recount()
        return self.occupancy - pkts, self.occupancy_bytes - size_bytes

    def _recount(self) -> tuple[int, int]:
        """Ground-truth ``(packets, bytes)`` from the live queue structure."""
        raise NotImplementedError(f"{type(self).__name__} does not support recount")

    def _discard(self, packet: Packet) -> None:
        """Count an in-queue drop and notify the owner."""
        self.stats.aqm_drops += 1
        self.stats.aqm_dropped_bytes += packet.size_bytes
        if self.on_drop is not None:
            self.on_drop(packet)

    def _forward_drop(self, packet: Packet) -> None:
        """Relay a child qdisc's drop to this qdisc's owner, uncounted.

        Composite disciplines (FQ-CoDel, CAKE) book sub-queue drops
        themselves from the counts their flow records return; this hook
        only keeps the owner's callback informed.
        """
        if self.on_drop is not None:
            self.on_drop(packet)

    def __len__(self) -> int:
        return self.occupancy
