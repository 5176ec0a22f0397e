"""CoDel — the Controlled Delay AQM (RFC 8289) on virtual time.

CoDel attacks exactly the pathology the paper measures: a standing queue
in an under-buffered (or, on the RAN side, *over*-buffered) router that
either bloats delay or bursts drops.  Instead of reacting to queue
*length* it tracks each packet's *sojourn time* and, once the minimum
sojourn stays above ``target_s`` for a full ``interval_s``, begins
dropping at the head on the deterministic control-law schedule
``drop_next = t + interval / sqrt(count)``.

Head drops matter here: the surviving packet behind a drop carries the
congestion signal to the sender a full queue earlier than a tail drop
would, which is why a CoDel'd bottleneck turns the paper's burst losses
into isolated, promptly-repaired fast retransmits.

The implementation is RNG-free and keeps byte occupancy incrementally,
so it satisfies the :class:`repro.qdisc.base.Qdisc` determinism
contract as-is.
"""

from __future__ import annotations

from collections import deque
from typing import TYPE_CHECKING

from repro.qdisc.base import Qdisc

if TYPE_CHECKING:
    from repro.net.packet import Packet

__all__ = ["CoDelQueue"]

#: RFC 8289 recommended setpoint: 5 ms standing delay, 100 ms window.
DEFAULT_TARGET_S = 0.005
DEFAULT_INTERVAL_S = 0.100

#: A queue holding at most one MTU is never "standing" (RFC 8289's
#: ``maxpacket`` test): dropping from it cannot shorten the delay.
_MTU_BYTES = 1514


class CoDelQueue(Qdisc):
    """A CoDel-managed FIFO with a packet cap."""

    name = "codel"

    def __init__(
        self,
        capacity_packets: int = 1000,
        target_s: float = DEFAULT_TARGET_S,
        interval_s: float = DEFAULT_INTERVAL_S,
    ) -> None:
        super().__init__(capacity_packets)
        if target_s <= 0 or interval_s <= 0:
            raise ValueError("CoDel target/interval must be positive")
        self.target_s = target_s
        self.interval_s = interval_s
        self._queue: deque[tuple[Packet, float]] = deque()
        self._bytes = 0
        # Control-law state (RFC 8289 pseudocode names).
        self._first_above_time_s = 0.0
        self._drop_next_s = 0.0
        self._count = 0
        self._lastcount = 0
        self._dropping = False

    # -- queue mechanics -------------------------------------------------

    def enqueue(self, packet: Packet, now_s: float) -> bool:
        if len(self._queue) >= self.capacity_packets:
            self.stats.drops += 1
            return False
        self._queue.append((packet, now_s))
        self._bytes += packet.size_bytes
        self.stats.enqueued += 1
        self.stats.enqueued_bytes += packet.size_bytes
        return True

    def _pop_head(self, now_s: float) -> Packet | None:
        """Raw head removal plus sojourn bookkeeping (no control law)."""
        if not self._queue:
            return None
        packet, enqueued_at_s = self._queue.popleft()
        self._bytes -= packet.size_bytes
        self.stats.note_sojourn(now_s - enqueued_at_s)
        return packet

    @property
    def occupancy(self) -> int:
        return len(self._queue)

    @property
    def occupancy_bytes(self) -> int:
        return self._bytes

    # -- the control law -------------------------------------------------

    def _should_drop(self, now_s: float) -> bool:
        """RFC 8289 ``ok_to_drop``: has the minimum sojourn stayed above
        target for a full interval?  Called after sojourn bookkeeping."""
        if self.stats.last_sojourn_s < self.target_s or self._bytes <= _MTU_BYTES:
            # Below target (or queue too small to matter): reset the clock.
            self._first_above_time_s = 0.0
            return False
        if self._first_above_time_s == 0.0:
            self._first_above_time_s = now_s + self.interval_s
            return False
        return now_s >= self._first_above_time_s

    def _recount(self) -> tuple[int, int]:
        return len(self._queue), sum(p.size_bytes for p, _ in self._queue)

    def dequeue(self, now_s: float) -> Packet | None:
        packet = self._pop_head(now_s)
        if packet is None:
            self._dropping = False
            return None
        ok_to_drop = self._should_drop(now_s)

        if self._dropping:
            if not ok_to_drop:
                self._dropping = False
            else:
                while now_s >= self._drop_next_s and self._dropping:
                    self._discard(packet)
                    self._count += 1
                    packet = self._pop_head(now_s)
                    if packet is None:
                        self._dropping = False
                        return None
                    if not self._should_drop(now_s):
                        self._dropping = False
                    else:
                        self._drop_next_s = self._control_law(self._drop_next_s)
        elif ok_to_drop:
            self._discard(packet)
            self._count += 1
            packet = self._pop_head(now_s)
            if packet is None:
                self._dropping = False
                return None
            self._dropping = True
            # Re-entering drop state soon after leaving it: resume from a
            # higher count so the drop rate ramps instead of restarting.
            delta = self._count - self._lastcount
            if delta > 1 and now_s - self._drop_next_s < 16.0 * self.interval_s:
                self._count = delta
            else:
                self._count = 1
            self._lastcount = self._count
            self._drop_next_s = self._control_law(now_s)
        return packet

    def _control_law(self, t_s: float) -> float:
        return t_s + self.interval_s / (self._count**0.5)
