"""Deferred events keep the two-event hop's exact dispatch order.

``Link`` pushes a packet's delivery when it starts serializing and pushes
the serializer event only when a backlog needs it; ``TcpSender`` keeps one
live RTO entry that re-pushes itself when it fires early.  Both rest on
claimed keys (:meth:`Simulator.claim`, :meth:`Simulator.push`,
:meth:`Simulator.reached`, :meth:`Simulator.push_held`).  The classes
below keep the straightforward versions, a serializer event and a
delivery scheduled from it for every packet and a cancel-and-reschedule
RTO, as the reference each run is compared against.

Rates, and most delays, are binary fractions, so serialization ends,
arrivals, pauses and timer expiries land on the same float instant all
the time, and only ``(time, seq)`` order can tell the two sides apart.
A run matches when every delivery (link, ``float.hex`` time, packet),
every queue statistic, every audit ledger and every TCP trace is
identical.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import instruments
from repro.audit import Auditor
from repro.core import NR_PROFILE
from repro.net import Link, Packet, PathConfig, Simulator
from repro.net.link import DelayProcess
from repro.net.packet import DATA
from repro.net.path import NetworkPath
from repro.qdisc import CakeQueue, CoDelQueue, DropTailQueue, FqCodelQueue
from repro.transport.base import TcpReceiver, TcpSender
from repro.transport.iperf import make_cc


class ReferenceLink(Link):
    """The two-event hop: a serializer event per packet schedules its delivery."""

    def send(self, packet: Packet) -> None:
        if self.sink is None:
            raise RuntimeError(f"link {self.name!r} has no sink connected")
        if not self.queue.enqueue(packet, self.sim.now):
            self.dropped_packets.append(packet.packet_id)
            return
        if not self._busy and not self._paused:
            self._transmit_next()

    def pause(self) -> None:
        self._paused = True

    def resume(self) -> None:
        if not self._paused:
            return
        self._paused = False
        if not self._busy:
            self._transmit_next()

    def _transmit_next(self) -> None:
        queue = self.queue
        packet = queue.dequeue(self.sim.now)
        if packet is None:
            self._busy = False
            if queue.occupancy_bytes:
                self._schedule_wake()
                if self._auditor.enabled and not self._wake_pending:
                    self._audit_idle_probe()
            return
        stats = queue.stats
        stats.dequeued += 1
        stats.dequeued_bytes += packet.size_bytes
        self._in_transit += 1
        self._in_transit_bytes += packet.size_bytes
        self._busy = True
        rate = self.rate_bps
        if self.cross_traffic is not None:
            rate *= 1.0 - self.cross_traffic.load_at(self.sim.now)
        serialization = packet.size_bytes * 8 / max(rate, 1.0)
        self.sim.schedule(serialization, self._serialized_reference, packet)

    def _serialized_reference(self, packet: Packet) -> None:
        delay = self.delay_s
        if self.delay_process is not None:
            delay += self.delay_process.extra_delay_s(self.sim.now)
        arrival = max(self.sim.now + delay, self._last_delivery_at + 1e-9)
        self._last_delivery_at = arrival
        self.sim.schedule_at(arrival, self._deliver, packet)
        if self._paused:
            self._busy = False
        else:
            self._transmit_next()

    def _wake(self) -> None:
        self._wake_pending = False
        if not self._busy and not self._paused:
            self._transmit_next()


class ReferenceSender(TcpSender):
    """Cancel-and-reschedule RTO: every re-arm leaves a cancelled entry."""

    _rto_timer = None  # the Event handle of the one scheduled timeout

    def _arm_rto(self) -> None:
        self._cancel_rto()
        if self.in_flight_bytes > 0:
            self._rto_timer = self.sim.schedule(self.rto_s, self._reference_timeout)

    def _cancel_rto(self) -> None:
        if self._rto_timer is not None:
            self._rto_timer.cancel()
            self._rto_timer = None

    def _reference_timeout(self) -> None:
        self._rto_timer = None
        self._on_timeout()


#: Delays are multiples of this; serialization times are size * 2**-rate_exp.
DELAY_UNIT_S = 2.0**-12
#: Decimal delays like the real path's, for rounding near t = 0.
DECIMAL_DELAYS_S = (0.0011, 0.001, 0.0015, 0.0023)
MSS = 1000
DATA_BYTES = MSS + 52
CBR_BYTES = 500


@dataclass(frozen=True)
class Hop:
    rate_exp: int  # rate = 8 * 2**rate_exp bit/s
    delay_s: float
    qdisc: str
    capacity: int
    delay_process: bool = False

    @property
    def rate_bps(self) -> float:
        return 8.0 * 2.0**self.rate_exp


@dataclass(frozen=True)
class Scenario:
    forward: tuple[Hop, ...]
    reverse: tuple[Hop, ...]
    cca: str = "cubic"
    segments: int = 50
    tcp_start_s: float = 0.0
    cbr_start_s: float = 0.0
    cbr_packets: int = 0
    cbr_gap_exp: int = 19  # one CBR packet every CBR_BYTES * 2**-gap_exp s
    cbr_hop: int = 0
    outages: tuple[tuple[int, int, int], ...] = ()  # (hop, start, length) in data serializations
    horizon_s: float = 2.0


def _qdisc(hop: Hop):
    if hop.qdisc == "codel":
        return CoDelQueue(hop.capacity, target_s=2.0**-8, interval_s=2.0**-5)
    if hop.qdisc == "fq-codel":
        return FqCodelQueue(hop.capacity, target_s=2.0**-8, interval_s=2.0**-5, flows_count=4)
    if hop.qdisc == "cake":
        return CakeQueue(
            hop.rate_bps / 2, hop.capacity, target_s=2.0**-8, interval_s=2.0**-5
        )
    return DropTailQueue(hop.capacity)


def _link(cls, sim: Simulator, hop: Hop, name: str, seed: int) -> Link:
    process = None
    if hop.delay_process:
        process = DelayProcess(
            np.random.default_rng(seed), max_extra_s=0.004, redraw_interval_s=2.0**-4
        )
    return cls(
        sim, hop.rate_bps, hop.delay_s, name=name, delay_process=process, qdisc=_qdisc(hop)
    )


def observe(scenario: Scenario, reference: bool) -> dict:
    """Run ``scenario`` on one side and collect everything observable."""
    link_cls = ReferenceLink if reference else Link
    sender_cls = ReferenceSender if reference else TcpSender
    base_id = Packet(0, DATA, 1).packet_id
    log: list[tuple[str, str, int]] = []
    auditor = Auditor()
    with instruments.using(auditor=auditor):
        sim = Simulator()
        forward = [
            _link(link_cls, sim, hop, f"f{i}", 11 + i) for i, hop in enumerate(scenario.forward)
        ]
        reverse = [
            _link(link_cls, sim, hop, f"r{i}", 23 + i) for i, hop in enumerate(scenario.reverse)
        ]
        config = PathConfig(profile=NR_PROFILE, mss_bytes=MSS, rwnd_bytes=2**20)
        path = NetworkPath(sim, config, forward, reverse, forward[-1], forward[0])
        for link in forward + reverse:
            sink = link.sink

            def logged(packet, name=link.name, sink=sink):
                log.append((name, sim.now.hex(), packet.packet_id - base_id))
                sink(packet)

            link.connect(logged)
        receiver = TcpReceiver(sim, path, flow_id=1)
        sender = sender_cls(
            sim, path, make_cc(scenario.cca, MSS), flow_id=1,
            transfer_bytes=scenario.segments * MSS,
        )
        sim.schedule_at(scenario.tcp_start_s, sender.start)

        cbr_link = forward[min(scenario.cbr_hop, len(forward) - 1)]
        gap = CBR_BYTES * 2.0**-scenario.cbr_gap_exp
        sent = [0]

        def cbr() -> None:
            if sent[0] >= scenario.cbr_packets:
                return
            sent[0] += 1
            cbr_link.send(Packet(2, DATA, CBR_BYTES, seq=sent[0], created_at=sim.now))
            sim.schedule(gap, cbr)

        if scenario.cbr_packets:
            sim.schedule_at(scenario.cbr_start_s, cbr)
        for hop_index, start, length in scenario.outages:
            link = forward[min(hop_index, len(forward) - 1)]
            unit = DATA_BYTES * 8 / link.rate_bps
            sim.schedule_at(start * unit, link.pause)
            sim.schedule_at((start + length) * unit, link.resume)
        sim.run(until=scenario.horizon_s)
        ledgers = auditor.checkpoint("end")
    stats = sender.stats
    return {
        "log": log,
        "now": sim.now.hex(),
        "queues": {
            link.name: {
                "stats": {slot: getattr(link.queue.stats, slot) for slot in type(link.queue.stats).__slots__},
                "occupancy": (link.queue.occupancy, link.queue.occupancy_bytes),
                "delivered": (link.delivered, link.delivered_bytes),
                "dropped": [pid - base_id for pid in link.dropped_packets],
            }
            for link in forward + reverse
        },
        "ledgers": ledgers,
        "violations": auditor.violation_count,
        "tcp": {
            "cum_ack": sender.cum_ack,
            "received": receiver.bytes_received,
            "rto_s": sender.rto_s,
            "retransmissions": stats.retransmissions,
            "timeouts": stats.timeouts,
            "fast_retransmits": stats.fast_retransmits,
            "cwnd": stats.cwnd_trace,
            "rtt": stats.rtt_samples,
            "delivered": stats.delivered_trace,
        },
    }


def assert_same_as_reference(scenario: Scenario) -> dict:
    got = observe(scenario, reference=False)
    want = observe(scenario, reference=True)
    assert got["violations"] == 0
    for key in want:
        assert got[key] == want[key], key
    return got


# -- hypothesis: random binary-fraction networks -------------------------------

def _hops(qdiscs: tuple[str, ...], max_size: int) -> st.SearchStrategy[tuple[Hop, ...]]:
    delay = st.one_of(
        st.integers(0, 24).map(lambda units: units * DELAY_UNIT_S),
        st.sampled_from(DECIMAL_DELAYS_S),
    )
    hop = st.builds(
        Hop,
        rate_exp=st.integers(17, 21),
        delay_s=delay,
        qdisc=st.sampled_from(qdiscs),
        capacity=st.integers(3, 40),
        delay_process=st.booleans(),
    )
    return st.lists(hop, min_size=1, max_size=max_size).map(tuple)


scenarios = st.builds(
    Scenario,
    forward=_hops(("droptail", "codel", "fq-codel", "cake"), 3),
    reverse=_hops(("droptail",), 2),
    cca=st.sampled_from(("cubic", "reno")),
    segments=st.integers(1, 150),
    tcp_start_s=st.integers(0, 16).map(lambda units: units * 2.0**-10),
    cbr_start_s=st.integers(0, 64).map(lambda units: units * 2.0**-10),
    cbr_packets=st.integers(0, 250),
    cbr_gap_exp=st.integers(17, 21),
    cbr_hop=st.integers(0, 2),
    outages=st.lists(
        st.tuples(st.integers(0, 2), st.integers(0, 300), st.integers(0, 400)), max_size=3
    ).map(tuple),
    horizon_s=st.sampled_from((1.0, 2.0, 3.0)),
)


class TestAgainstReference:
    @given(scenarios)
    @settings(max_examples=150, deadline=None)
    def test_random_networks_dispatch_identically(self, scenario):
        assert_same_as_reference(scenario)


# -- the cases the random search must not miss ----------------------------------

FAST = Hop(rate_exp=21, delay_s=4 * DELAY_UNIT_S, qdisc="droptail", capacity=200)
ACKS = (Hop(rate_exp=21, delay_s=8 * DELAY_UNIT_S, qdisc="droptail", capacity=200),)


def _bottleneck(qdisc: str, **kw) -> Hop:
    return Hop(rate_exp=18, delay_s=2 * DELAY_UNIT_S, qdisc=qdisc, capacity=kw.pop("capacity", 60), **kw)


class TestNamedCases:
    def test_pause_and_resume_on_serialization_ends(self):
        # Outages start and end on multiples of the bottleneck's data
        # serialization time, so they tie with serialization ends.
        got = assert_same_as_reference(Scenario(
            forward=(FAST, _bottleneck("droptail")), reverse=ACKS, segments=120,
            outages=((1, 7, 5), (1, 40, 1), (1, 41, 3), (0, 60, 2)),
        ))
        assert got["tcp"]["cum_ack"] == 120 * MSS

    @pytest.mark.parametrize("qdisc", ["codel", "fq-codel"])
    def test_aqm_in_drop_state(self, qdisc):
        # CBR at twice the bottleneck rate keeps the sojourn above target
        # for whole intervals, and the queue drains between bursts.
        got = assert_same_as_reference(Scenario(
            forward=(FAST, _bottleneck(qdisc, capacity=200)), reverse=ACKS, segments=150,
            cbr_packets=400, cbr_gap_exp=20, cbr_hop=1, outages=((1, 100, 30),),
        ))
        assert got["queues"]["f1"]["stats"]["aqm_drops"] > 0

    def test_fq_codel_flow_lists_replay_the_empty_dequeue(self):
        # The FQ-CoDel hop drains between packets: its serialization end
        # passes unpushed, and only the replayed empty dequeue retires the
        # drained flow before the next packet of that flow arrives.
        def hop(rate_exp, qdisc="droptail", delay_process=False):
            return Hop(rate_exp, 0.0, qdisc, capacity=3, delay_process=delay_process)

        assert_same_as_reference(Scenario(
            forward=(hop(19), hop(19, delay_process=True), hop(20, "fq-codel")),
            reverse=(hop(17),), segments=40, cbr_packets=32, cbr_gap_exp=17,
            horizon_s=1.0,
        ))

    def test_cake_shaper_wakes(self):
        got = assert_same_as_reference(Scenario(
            forward=(FAST, _bottleneck("cake")), reverse=ACKS, segments=100,
            cbr_packets=100, cbr_gap_exp=19, cbr_hop=1,
        ))
        assert got["queues"]["f1"]["stats"]["dequeued"] > 0

    def test_delay_process(self):
        hop = Hop(rate_exp=19, delay_s=0.0011, qdisc="codel", capacity=30, delay_process=True)
        assert_same_as_reference(Scenario(
            forward=(FAST, hop), reverse=ACKS, segments=120, cbr_packets=150, cbr_hop=1,
        ))

    def test_transfer_near_zero_with_decimal_delays(self):
        # Near t = 0 the delay dwarfs the serialization end, so the
        # delivery's float is end + (arrival - end), as schedule_at(arrival)
        # computed it at the serialization end, not arrival itself.
        hop = Hop(rate_exp=21, delay_s=0.0011, qdisc="droptail", capacity=50)
        assert_same_as_reference(Scenario(
            forward=(hop, _bottleneck("droptail")), reverse=(hop,), segments=40,
        ))

    def test_rto_backoff_across_an_outage(self):
        got = assert_same_as_reference(Scenario(
            forward=(FAST, _bottleneck("droptail")), reverse=ACKS, segments=150,
            outages=((1, 20, 600),), horizon_s=4.0,
        ))
        assert got["tcp"]["timeouts"] >= 2

    def test_delivery_tied_before_its_serialization_ends(self):
        # Two hops with equal delays and rates: the CBR packet's delivery
        # and a TCP packet's serialization end share instants, and a
        # claim of the delivery instant lands before the serialization
        # has ended, so the delivery falls back to the serializer event.
        same = Hop(rate_exp=20, delay_s=4 * DELAY_UNIT_S, qdisc="droptail", capacity=50)
        slow = Hop(rate_exp=18, delay_s=4 * DELAY_UNIT_S, qdisc="fq-codel", capacity=50)
        fallbacks = []
        original = Link._on_tie

        def counting(self):
            fallbacks.append(self.name)
            original(self)

        Link._on_tie = counting
        try:
            assert_same_as_reference(Scenario(
                forward=(same, slow, same), reverse=(same,), segments=100,
                cbr_packets=200, cbr_gap_exp=20, cbr_hop=1,
            ))
        finally:
            Link._on_tie = original
        assert fallbacks


# -- the simulator's claimed keys ------------------------------------------------

class TestClaimedKeys:
    def test_claim_takes_the_seq_schedule_would(self):
        sim = Simulator()
        fired = []
        key = sim.claim(1.0)
        sim.schedule(1.0, fired.append, "later claim")
        sim.schedule(0.5, lambda: sim.push(key, fired.append, "claimed first"))
        sim.run()
        assert fired == ["claimed first", "later claim"]
        assert sim.counters() == (3, 3, 0)

    def test_reached_compares_seq_at_the_same_instant(self):
        sim = Simulator()
        seen = []
        early = sim.claim(1.0)
        sim.schedule(1.0, lambda: seen.append((sim.reached(early), sim.reached(late))))
        late = sim.claim(1.0)
        assert not sim.reached(early)
        sim.run()
        assert seen == [(True, False)]
        # Between runs every key claimed so far at or before now has run.
        assert sim.reached(late)
        assert not sim.reached(sim.claim(0.0))

    def test_a_tie_hands_a_held_event_back(self):
        sim = Simulator()
        ties, fired = [], []
        anchor = sim.claim(1.0)
        held = sim.push_held(anchor, 2.0, lambda: ties.append("tie"), fired.append, "held")
        assert held is not None
        sim.schedule(0.5, lambda: sim.schedule(1.5, lambda: None))  # claims 2.0 at t=0.5
        sim.run(until=0.6)
        assert ties == ["tie"] and sim.events_cancelled == 1
        sim.run()
        assert fired == []  # the held entry was disarmed, never dispatched

    def test_a_claim_after_the_anchor_leaves_the_hold_alone(self):
        sim = Simulator()
        ties, fired = [], []
        anchor = sim.claim(1.0)
        sim.push(anchor, lambda: None)
        sim.push_held(anchor, 2.0, lambda: ties.append("tie"), fired.append, "held")
        sim.schedule(1.5, lambda: sim.schedule(0.5, lambda: None))
        sim.run()
        assert ties == [] and fired == ["held"] and sim.events_cancelled == 0

    def test_two_held_events_at_one_instant_both_fall_back(self):
        sim = Simulator()
        ties, fired = [], []
        sim.push_held(sim.claim(1.0), 2.0, lambda: ties.append(1), fired.append, 1)
        second = sim.push_held(sim.claim(1.0), 2.0, lambda: ties.append(2), fired.append, 2)
        assert second is None and ties == [1] and sim.events_cancelled == 1
        sim.run()
        assert fired == []
