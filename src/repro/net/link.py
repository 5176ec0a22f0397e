"""Links with finite buffers, and bursty cross-traffic modulation.

A :class:`Link` models one forwarding hop: a queue discipline
(:mod:`repro.qdisc`) feeding a serializer of some rate, followed by a
propagation delay.  The deployed buffer is a finite drop-tail FIFO, and
its overflow is the only loss mechanism in the wired network — exactly
the bottleneck the paper identifies (Sec. 4.2): core-Internet router
buffers sized for 4G-era flows overflow in bursts under 5G-scale
workloads.  The remedies (CoDel, FQ-CoDel, CAKE) take the FIFO's place
through the same contract.

Cross traffic is modelled as an ON/OFF modulation of the link's available
rate rather than as individual packets, which keeps event counts
manageable while preserving the bursty-overflow dynamics that produce the
paper's Fig. 11 loss pattern.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import TYPE_CHECKING

import numpy as np

from repro import instruments
from repro.metrics.core import fold_metric_name
from repro.net.packet import Packet
from repro.net.sim import Entry, Key, Simulator
from repro.qdisc.droptail import DropTailQueue

if TYPE_CHECKING:
    from repro.qdisc.base import Qdisc

__all__ = ["Link", "CrossTraffic", "DelayProcess"]


class CrossTraffic:
    """ON/OFF background load stealing capacity from a link.

    During ON bursts the background occupies ``burst_fraction`` of the
    link; OFF periods leave the link free.  Durations are exponentially
    distributed.  The long-run mean load is
    ``burst_fraction * on_s / (on_s + off_s)``.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        burst_fraction: float = 0.85,
        mean_on_s: float = 0.012,
        mean_off_s: float = 0.012,
    ) -> None:
        if not 0.0 < burst_fraction < 1.0:
            raise ValueError(f"burst_fraction must be in (0, 1), got {burst_fraction}")
        if mean_on_s <= 0 or mean_off_s <= 0:
            raise ValueError("burst durations must be positive")
        self._rng = rng
        self.burst_fraction = burst_fraction
        self.mean_on_s = mean_on_s
        self.mean_off_s = mean_off_s
        self._on = False
        self._phase_ends_at = 0.0

    def load_at(self, now: float) -> float:
        """Fraction of the link consumed by cross traffic at ``now``.

        Time must be queried monotonically (as the simulator does).
        """
        while now >= self._phase_ends_at:
            self._on = not self._on
            mean = self.mean_on_s if self._on else self.mean_off_s
            self._phase_ends_at += float(self._rng.exponential(mean))
        return self.burst_fraction if self._on else 0.0

    @property
    def mean_load(self) -> float:
        """Long-run average load fraction."""
        return self.burst_fraction * self.mean_on_s / (self.mean_on_s + self.mean_off_s)


class DelayProcess:
    """Slowly-varying extra latency on a link.

    Cellular access delay wanders over tens-of-milliseconds timescales
    (scheduling grants, HARQ round trips, DRX alignment) independent of
    congestion.  The wandering floor makes any minimum-tracking RTT
    estimator (Vegas's baseRTT, Veno's backlog estimate) systematically
    optimistic, which is the classic reason delay-based congestion
    control underperforms on cellular links.
    """

    def __init__(
        self,
        rng: np.random.Generator,
        max_extra_s: float = 0.008,
        redraw_interval_s: float = 0.3,
    ) -> None:
        if max_extra_s < 0 or redraw_interval_s <= 0:
            raise ValueError("invalid delay-process parameters")
        self._rng = rng
        self.max_extra_s = max_extra_s
        self.redraw_interval_s = redraw_interval_s
        self._current = float(rng.uniform(0.0, max_extra_s))
        self._redraw_at = redraw_interval_s

    def extra_delay_s(self, now: float) -> float:
        """Extra one-way delay at time ``now`` (monotonic queries)."""
        while now >= self._redraw_at:
            self._current = float(self._rng.uniform(0.0, self.max_extra_s))
            self._redraw_at += self.redraw_interval_s
        return self._current


class Link:
    """One hop: queue discipline -> serializer -> propagation delay.

    A transmission claims the serializer's event key (the end of the
    packet's serialization) and pushes the packet's delivery at once, at
    the float the serialization end would have scheduled it for.  The
    serializer event itself is pushed only when bytes remain queued, so a
    packet that finds the hop idle costs one event, not two.  Until then
    the key stays claimed: an arrival, ``pause`` or shaper wake that comes
    before the key pushes the event after all, and one that comes after
    it first replays what the event would have done (a ``dequeue`` at the
    key's time on the then-empty queue, which resets CoDel's drop state
    and retires FQ-CoDel's and CAKE's empty flows).  A paused link holds
    no claimed key, so ``resume`` finds none.
    The delivery is pushed with :meth:`Simulator.push_held`, so a claim
    of its instant before the serialization ends returns it to the
    serializer event.  Every event that runs, runs in the order the
    two-event hop gave it.

    Args:
        sim: Shared simulator.
        rate_bps: Serialization rate.
        delay_s: One-way propagation delay.
        queue_capacity_packets: Depth of the drop-tail FIFO built when no
            ``qdisc`` is given.
        name: Label for diagnostics.
        cross_traffic: Optional background-load modulation.
        qdisc: Optional queue discipline (see :mod:`repro.qdisc`); the
            default is a drop-tail FIFO of ``queue_capacity_packets``.

    ``queue`` is the one buffer: every discipline is enqueued, dequeued,
    audited and read through the :class:`~repro.qdisc.base.Qdisc` contract.
    """

    def __init__(
        self,
        sim: Simulator,
        rate_bps: float,
        delay_s: float,
        queue_capacity_packets: int = 1000,
        name: str = "link",
        cross_traffic: CrossTraffic | None = None,
        delay_process: "DelayProcess | None" = None,
        qdisc: "Qdisc | None" = None,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"link rate must be positive, got {rate_bps}")
        if delay_s < 0:
            raise ValueError(f"propagation delay must be >= 0, got {delay_s}")
        self.sim = sim
        self.rate_bps = rate_bps
        self.delay_s = delay_s
        queue = qdisc
        if queue is None:
            queue = DropTailQueue(queue_capacity_packets)
        queue.on_drop = self._record_drop
        self.queue = queue
        self.name = name
        self.cross_traffic = cross_traffic
        self.sink: Callable[[Packet], None] | None = None
        self.delay_process = delay_process
        self.delivered = 0
        self.delivered_bytes = 0
        self.dropped_packets: list[int] = []
        self._busy = False
        self._paused = False
        self._wake_pending = False
        self._last_delivery_at = 0.0
        self._in_transit = 0
        self._in_transit_bytes = 0
        # The packet on the wire: its serializer key while no event holds
        # it, and its delivery (arrival, packet, provisional heap entry).
        self._claim: Key | None = None
        self._delivery: tuple[float, Packet, Entry | None] | None = None
        # Bound once: every transmission passes both to push_held().
        self._deliver_cb = self._deliver
        self._on_tie_cb = self._on_tie
        # Like Simulator: with no tracer installed this is the null
        # tracer and the depth counters compile down to one bool check.
        active = instruments.current()
        self._tracer = active.tracer
        # Named once, not per traced packet.
        self._depth_counters = (f"link.{name}.depth_pkts", f"link.{name}.depth_bytes")
        self._auditor = active.auditor
        self._audit_idle_name = ""
        if self._auditor.enabled:
            self._register_audit()

    def _register_audit(self) -> None:
        """Register this hop's conservation ledgers with the active auditor.

        Each watch is a closure re-evaluated at audit checkpoints; a
        nonzero residual means a packet or byte was created or destroyed
        outside the enqueue/dequeue/drop bookkeeping.  The discipline
        watches its own books; the hop adds capacity and transit.
        """
        auditor = self._auditor
        n = fold_metric_name(self.name)
        self._audit_idle_name = f"audit.link.{n}.idle_occupancy_pkts"
        queue = self.queue
        queue.register_audit(auditor, n)
        # Capacity is read per checkpoint: experiments resize buffers after construction.
        auditor.watch(
            f"audit.link.{n}.occupancy_bounds_pkts",
            lambda: max(0, -queue.occupancy) + max(0, queue.occupancy - queue.capacity_packets),
        )
        stats = queue.stats
        auditor.watch(
            f"audit.link.{n}.transit_residual_pkts",
            lambda: stats.dequeued - self.delivered - self._in_transit,
        )
        auditor.watch(
            f"audit.link.{n}.transit_residual_bytes",
            lambda: stats.dequeued_bytes - self.delivered_bytes - self._in_transit_bytes,
        )

    def connect(self, sink: Callable[[Packet], None]) -> None:
        """Set where serialized packets get delivered."""
        self.sink = sink

    def send(self, packet: Packet) -> None:
        """Offer a packet to this hop; drops silently on overflow."""
        if self.sink is None:
            raise RuntimeError(f"link {self.name!r} has no sink connected")
        key = self._claim
        if key is not None:
            # _settle(), inlined: nearly every packet settles the previous one's key.
            self._claim = None
            if self.sim.reached(key):
                self._busy = False
                self.queue.dequeue(key[0])
            else:
                self.sim.push(key, self._serialized)
        if not self.queue.enqueue(packet, self.sim.now):
            self.dropped_packets.append(packet.packet_id)
            return
        if self._tracer.enabled:
            depth_pkts, depth_bytes = self._depth_counters
            self._tracer.counter(depth_pkts, self.sim.now, float(self.queue.occupancy))
            self._tracer.counter(depth_bytes, self.sim.now, float(self.queue.occupancy_bytes))
        if not self._busy and not self._paused:
            self._transmit_next()

    def _record_drop(self, packet: Packet) -> None:
        """Qdisc callback: an already-queued packet was AQM-dropped."""
        self.dropped_packets.append(packet.packet_id)

    def pause(self) -> None:
        """Stop serving the queue (hand-off outage); packets keep queueing."""
        if self._claim is not None:
            self._settle()  # so a paused link holds no claimed key
        self._paused = True

    def resume(self) -> None:
        """Resume service after a pause."""
        if not self._paused:
            return
        self._paused = False
        if not self._busy:
            self._transmit_next()

    def _transmit_next(self) -> None:
        queue = self.queue
        sim = self.sim
        packet = queue.dequeue(sim.now)
        if packet is None:
            self._busy = False
            # Links go idle about once per packet, so one byte-book read
            # decides.  Bytes left mean a shaped discipline holds packets
            # back (wake when the next becomes eligible) or, with no wake
            # pending, a book that leaked.
            if queue.occupancy_bytes:
                self._schedule_wake()
                if self._auditor.enabled and not self._wake_pending:
                    self._audit_idle_probe()
            return
        size = packet.size_bytes
        stats = queue.stats
        stats.dequeued += 1
        stats.dequeued_bytes += size
        self._in_transit += 1
        self._in_transit_bytes += size
        self._busy = True
        # The rate left to foreground traffic; conditionals rather than
        # max() calls, on the one per-packet path.
        rate = self.rate_bps
        if self.cross_traffic is not None:
            rate *= 1.0 - self.cross_traffic.load_at(sim.now)
        key = sim.claim(size * 8 / (rate if rate >= 1.0 else 1.0))
        end = key[0]
        delay = self.delay_s
        if self.delay_process is not None:
            delay += self.delay_process.extra_delay_s(end)
        # FIFO discipline: a falling delay process must not reorder.
        arrival = end + delay
        fifo = self._last_delivery_at + 1e-9
        if fifo > arrival:
            arrival = fifo
        self._last_delivery_at = arrival
        # At the float schedule_at(arrival) gives at the serialization end.
        entry = sim.push_held(key, end + (arrival - end), self._on_tie_cb, self._deliver_cb, packet)
        self._delivery = (arrival, packet, entry)
        if entry is None or queue.occupancy_bytes:
            sim.push(key, self._serialized)
        else:
            self._claim = key

    def _serialized(self) -> None:
        arrival, packet, entry = self._delivery
        if entry is None:
            self.sim.schedule_at(arrival, self._deliver, packet)
        if self._paused:
            self._busy = False
        else:
            self._transmit_next()

    def _on_tie(self) -> None:
        """Something claimed the delivery's instant before the serialization
        ended: schedule the delivery from the serializer event instead."""
        arrival, packet, _ = self._delivery
        self._delivery = (arrival, packet, None)
        if self._claim is not None:
            self.sim.push(self._claim, self._serialized)
            self._claim = None

    def _settle(self) -> None:
        """Bring the claimed serializer key up to date before a state change.

        Not yet reached: push its event, which now has work to do (or a
        pause to honour).  Already reached: the event found the queue empty
        (an earlier arrival would have pushed it) and the link unpaused
        (``pause`` settles first), so replay its empty dequeue at the key's
        time.
        """
        key = self._claim
        self._claim = None
        if not self.sim.reached(key):
            self.sim.push(key, self._serialized)
            return
        self._busy = False
        self.queue.dequeue(key[0])

    def _schedule_wake(self) -> None:
        ready_s = self.queue.next_ready_s(self.sim.now)
        if ready_s is None or self._wake_pending:
            return
        self._wake_pending = True
        self.sim.schedule_at(max(ready_s, self.sim.now), self._wake)

    def _wake(self) -> None:
        self._wake_pending = False
        if self._claim is not None:
            self._settle()
        if not self._busy and not self._paused:
            self._transmit_next()

    def _audit_idle_probe(self) -> None:
        """Going idle must mean an empty book: dequeue() said "no packet"
        with no shaped hold-back pending, so a nonzero byte book is an
        accounting leak (the structure is empty, the counter is not).
        Callers inline the occupancy test, so reaching here *is* the
        violation."""
        self._auditor.flag(
            self._audit_idle_name,
            self.sim.now,
            occupancy=self.queue.occupancy,
            occupancy_bytes=self.queue.occupancy_bytes,
            link=self.name,
        )

    def _deliver(self, packet: Packet) -> None:
        self.delivered += 1
        self.delivered_bytes += packet.size_bytes
        self._in_transit -= 1
        self._in_transit_bytes -= packet.size_bytes
        assert self.sink is not None
        self.sink(packet)
