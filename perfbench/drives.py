"""Isolated layer drives for the traced run.

Each drive feeds one layer fixed inputs through its public API — a bare
``Simulator``, one drop-tail ``Link`` hop, one queue discipline — and
checks the layer's own contract on the way out.  A drive returns the
amount of work it did; the caller times it, so the rate is work / time.
The drives run after the workload's operations, never inside ``wall_s``.
"""

from __future__ import annotations

from collections.abc import Callable

from repro.net.link import Link
from repro.net.packet import Packet
from repro.net.sim import Simulator
from repro.qdisc import CakeQueue, CoDelQueue, FqCodelQueue
from repro.qdisc.base import Qdisc

__all__ = ["DRIVES", "DriveError"]

#: Work per drive at each benchmark size.
DRIVE_SIZES = {
    "full": {"events": 100_000, "timers": 40_000, "packets": 20_000, "pairs": 30_000},
    "small": {"events": 3_000, "timers": 1_000, "packets": 1_000, "pairs": 1_000},
}

_PACKET_BYTES = 1500
_LINK_RATE_BPS = 100e6
_RTO_S = 0.2
_ACK_GAP_S = 0.001
#: Qdisc drive: one enqueue+dequeue pair every 100 us over a standing
#: backlog of 100 packets, so sojourn (~10 ms) sits above CoDel's target
#: and the control law drops; 16 flows make FQ-CoDel/CAKE hash and DRR.
_PAIR_GAP_S = 1e-4
_BACKLOG_PKTS = 100
_FLOWS = 16
_PACKET_SIZES = (1500, 1500, 1500, 64, 576)


class DriveError(AssertionError):
    """A layer broke its contract under a drive's fixed inputs."""


def _check(condition: bool, message: str) -> None:
    if not condition:
        raise DriveError(message)


def drain_events(size: str) -> int:
    """Bare ``Simulator``: N no-op events at permuted times, drained.

    Check: every event fires exactly once, in time order.
    """
    n = DRIVE_SIZES[size]["events"]
    sim = Simulator()
    fired: list[int] = []
    # 7919 is prime and coprime to n, so the times are a permutation of
    # 0..n-1 us: the heap sees out-of-order inserts, and no two collide.
    times = [((i * 7919) % n) * 1e-6 for i in range(n)]
    for i, t in enumerate(times):
        sim.schedule(t, fired.append, i)
    sim.run()
    _check(len(fired) == n, f"{len(fired)} of {n} events fired")
    order = [times[i] for i in fired]
    _check(all(a < b for a, b in zip(order, order[1:])), "events fired out of time order")
    return n


def timer_churn(size: str) -> int:
    """Schedule-then-cancel churn: each ACK re-arms the RTO timer.

    Check: every ACK fires, every superseded timer is cancelled and only
    the last timer (after the final ACK) expires.
    """
    n = DRIVE_SIZES[size]["timers"]
    sim = Simulator()
    expired = [0]
    acked = [0]

    def on_rto() -> None:
        expired[0] += 1

    timer = [sim.schedule(_RTO_S, on_rto)]

    def on_ack(i: int) -> None:
        acked[0] += 1
        timer[0].cancel()
        timer[0] = sim.schedule(_RTO_S, on_rto)
        if i + 1 < n:
            sim.schedule(_ACK_GAP_S, on_ack, i + 1)

    sim.schedule(_ACK_GAP_S, on_ack, 0)
    sim.run()
    counters = sim.counters()
    _check(acked[0] == n, f"{acked[0]} of {n} ACKs fired")
    _check(expired[0] == 1, f"{expired[0]} RTO timers expired, expected 1")
    _check(counters.cancelled == n, f"{counters.cancelled} timers cancelled, expected {n}")
    return counters.scheduled


def link_hop(size: str) -> int:
    """One drop-tail ``Link`` hop fed back-to-back at its line rate.

    Check: all N packets arrive, in the order they were sent.
    """
    n = DRIVE_SIZES[size]["packets"]
    sim = Simulator()
    link = Link(sim, _LINK_RATE_BPS, delay_s=0.005, queue_capacity_packets=64, name="drive")
    received: list[Packet] = []
    link.connect(received.append)
    gap_s = _PACKET_BYTES * 8 / _LINK_RATE_BPS

    def source(seq: int) -> None:
        link.send(Packet(flow_id=1, kind="data", size_bytes=_PACKET_BYTES, seq=seq))
        if seq + 1 < n:
            sim.schedule(gap_s, source, seq + 1)

    sim.schedule(0.0, source, 0)
    sim.run()
    _check(len(received) == n, f"link delivered {len(received)} of {n} packets")
    _check(
        all(p.seq == i for i, p in enumerate(received)), "link reordered packets (not FIFO)"
    )
    return n


def _qdisc_pairs(qdisc: Qdisc, size: str) -> int:
    """Enqueue+dequeue pairs over a multi-flow stream, then drain.

    Check: packets are conserved — every offered packet was rejected,
    dequeued or dropped by the AQM, and the drained queue is empty with
    matching books.
    """
    n = DRIVE_SIZES[size]["pairs"]
    now_s = 0.0
    dequeued = 0
    for i in range(n):
        packet = Packet(
            flow_id=i % _FLOWS,
            kind="data",
            size_bytes=_PACKET_SIZES[i % len(_PACKET_SIZES)],
            seq=i,
        )
        qdisc.enqueue(packet, now_s)
        if i >= _BACKLOG_PKTS and qdisc.dequeue(now_s) is not None:
            dequeued += 1
        now_s += _PAIR_GAP_S
    while qdisc.occupancy:
        if qdisc.dequeue(now_s) is not None:
            dequeued += 1
        now_s += _PAIR_GAP_S
    stats = qdisc.stats
    _check(
        stats.enqueued + stats.drops == n,
        f"{qdisc.name}: {stats.enqueued} accepted + {stats.drops} rejected != {n} offered",
    )
    _check(
        stats.enqueued == dequeued + stats.aqm_drops,
        f"{qdisc.name}: {stats.enqueued} accepted != {dequeued} dequeued"
        f" + {stats.aqm_drops} AQM drops",
    )
    _check(qdisc.occupancy_residual() == (0, 0), f"{qdisc.name}: occupancy books drifted")
    return n


#: name -> (per-layer metric it feeds, drive).  Each metric is work / time.
DRIVES: dict[str, tuple[str, Callable[[str], int]]] = {
    "sim-drain": ("net.sim.drain_events_per_s", drain_events),
    "sim-timers": ("net.sim.timer_events_per_s", timer_churn),
    "link-hop": ("net.link.packets_per_s", link_hop),
    "codel": ("qdisc.codel.pairs_per_s", lambda size: _qdisc_pairs(CoDelQueue(), size)),
    "fq-codel": ("qdisc.fq_codel.pairs_per_s", lambda size: _qdisc_pairs(FqCodelQueue(), size)),
    "cake": (
        "qdisc.cake.pairs_per_s",
        # A 1 Gbit/s shaper outpaces the ~80 Mbit/s stream, so CAKE never
        # holds a packet back and every pair exercises classify + DRR.
        lambda size: _qdisc_pairs(CakeQueue(shaper_rate_bps=1e9), size),
    ),
}
