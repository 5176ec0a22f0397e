"""Property-based tests over the simulation core.

These pin down the invariants everything else relies on: event ordering,
FIFO delivery, packet conservation, TCP reassembly correctness, and the
monotonicity of the radio chain.  The hot-path data structures (the
self-compacting event heap, the incremental SACK scoreboard and BBR's
monotone bandwidth filter) are checked against plain reference models.
"""

import bisect
import heapq
from collections import deque

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import instruments
from repro.audit import Auditor
from repro.core import LTE_PROFILE, NR_PROFILE
from repro.net import Link, Packet, PathConfig, Simulator, build_cellular_path
from repro.net.link import DelayProcess
from repro.net.packet import DATA
from repro.qdisc import QDISC_NAMES, DropTailQueue, RemedySection, make_qdisc
from repro.radio.linkadapt import spectral_efficiency_from_sinr
from repro.radio.propagation import uma_los_path_loss_db, uma_nlos_path_loss_db
from repro.transport.base import TcpConnection, TcpReceiver
from repro.transport.bbr import _BW_WINDOW_ROUNDS, Bbr
from repro.transport.iperf import make_cc


class TestSimulatorProperties:
    @given(st.lists(st.floats(min_value=0.0, max_value=100.0), min_size=1, max_size=40))
    @settings(max_examples=50, deadline=None)
    def test_events_fire_in_time_order(self, delays):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(sim.now))
        sim.run()
        assert fired == sorted(fired)
        assert len(fired) == len(delays)

    @given(
        st.lists(st.floats(min_value=0.0, max_value=10.0), min_size=1, max_size=30),
        st.floats(min_value=0.0, max_value=10.0),
    )
    @settings(max_examples=30, deadline=None)
    def test_run_until_never_fires_late_events(self, delays, horizon):
        sim = Simulator()
        fired = []
        for d in delays:
            sim.schedule(d, lambda d=d: fired.append(d))
        sim.run(until=horizon)
        assert all(d <= horizon for d in fired)
        assert sorted(fired) == sorted(d for d in delays if d <= horizon)


class _ReferenceSim:
    """The schedule as a sorted list of (time, schedule order), no heap."""

    def __init__(self):
        self.now = 0.0
        self.queue = []  # sorted (time, index) of every event not yet fired
        self.live = set()  # indices neither fired nor cancelled
        self.scheduled = self.executed = self.cancelled = 0

    def schedule(self, delay):
        bisect.insort(self.queue, (self.now + delay, self.scheduled))
        self.live.add(self.scheduled)
        self.scheduled += 1

    def cancel(self, index):
        if index in self.live:
            self.live.remove(index)
            self.cancelled += 1

    def pop(self, until=None):
        """The index of the next event to fire (now fired), or None."""
        queue = self.queue
        while queue and queue[0][1] not in self.live:
            queue.pop(0)
        if not queue or (until is not None and queue[0][0] > until):
            return None
        self.now, index = queue.pop(0)
        self.live.remove(index)
        self.executed += 1
        return index


#: Few distinct delays, so many events share a time and fire by schedule order.
_DELAYS = (0.0, 0.5, 1.0, 1.5, 2.0, 3.0)


def _sim_script(rng, count):
    """Initial delays, pre-run cancels, and one action per fired event.

    Up to every initial event is cancelled before the run, so more than
    half the heap is often dead.  An action schedules children and cancels
    events by schedule index (modulo the number scheduled so far), so
    cancels made inside callbacks hit pending, fired and already cancelled
    events alike.
    """
    initial = [float(d) for d in rng.choice(_DELAYS, size=count)]
    cancels = [int(i) for i in rng.permutation(count)[: rng.integers(0, count + 1)]]
    actions = [
        (
            [float(d) for d in rng.choice(_DELAYS, size=rng.integers(0, 4))],
            [int(i) for i in rng.integers(0, 10_000, size=rng.integers(0, 7))],
        )
        for _ in range(rng.integers(0, 201))
    ]
    return initial, cancels, actions


class TestCompactingHeapProperties:
    @given(
        st.integers(min_value=0, max_value=2**31 - 1),
        st.integers(min_value=0, max_value=300),
        st.sampled_from([None, 0.5, 1.0, 2.5, 4.0]),
    )
    @settings(max_examples=150, deadline=None)
    def test_fire_order_and_counters_match_reference(self, seed, count, until):
        initial, cancels, actions = _sim_script(np.random.default_rng(seed), count)
        sim, ref = Simulator(), _ReferenceSim()
        handles, fired = [], []

        def fire(index):
            fired.append(index)
            if len(fired) > len(actions):
                return
            delays, picks = actions[len(fired) - 1]
            for d in delays:
                handles.append(sim.schedule(d, fire, len(handles)))
            for pick in picks:
                handles[pick % len(handles)].cancel()

        for d in initial:
            handles.append(sim.schedule(d, fire, len(handles)))
            ref.schedule(d)
        for index in cancels:
            handles[index].cancel()
            ref.cancel(index)

        expected = []
        for horizon in (until, None):
            sim.run(until=horizon)
            while (index := ref.pop(horizon)) is not None:
                expected.append(index)
                if len(expected) > len(actions):
                    continue
                delays, picks = actions[len(expected) - 1]
                for d in delays:
                    ref.schedule(d)
                for pick in picks:
                    ref.cancel(pick % ref.scheduled)
            assert fired == expected
            assert sim.counters() == (ref.scheduled, ref.executed, ref.cancelled)
            assert sim.pending_events() == len(ref.live)
            assert sim._dead == sum(entry[2] is None for entry in sim._heap)

    def test_cancel_heavy_heap_is_compacted(self):
        sim = Simulator()
        fired = []
        events = [sim.schedule(float(i), fired.append, i) for i in range(200)]
        for event in events[:150]:
            event.cancel()
        # The 101st cancel outnumbers the live entries and rebuilds the heap.
        assert len(sim._heap) == 200 - 101
        assert sim.pending_events() == 50
        sim.run()
        assert fired == list(range(150, 200))
        assert sim.counters() == (200, 50, 150)
        assert sim._dead == 0

    def test_time_regression_probe_flags_once(self):
        auditor = Auditor()
        with instruments.using(auditor=auditor):
            sim = Simulator()
        fired = []

        def push_behind_now():
            # Rewrite a fresh entry's key behind ``now``, bypassing schedule().
            entry = sim.push(sim.claim(1.0), fired.append, "behind")
            entry[0] = sim.now - 0.25
            heapq.heapify(sim._heap)

        sim.schedule(1.0, push_behind_now)
        sim.schedule(2.0, fired.append, "after")
        sim.run()
        assert fired == ["behind", "after"]
        violations = auditor.violations()
        assert auditor.violation_count == 1
        assert [v.name for v in violations] == ["audit.sim.time_regression_s"]
        assert violations[0].time_s == 0.75
        assert dict(violations[0].args) == {"regression_s": 0.25}


class TestLinkProperties:
    @given(
        st.integers(min_value=1, max_value=60),
        st.integers(min_value=1, max_value=40),
    )
    @settings(max_examples=30, deadline=None)
    def test_packet_conservation(self, num_packets, capacity):
        """sent == delivered + dropped + queued, and every ledger balances,
        for every discipline a link can hold."""
        for name in QDISC_NAMES:
            auditor = Auditor()
            with instruments.using(auditor=auditor):
                sim = Simulator()
                qdisc = make_qdisc(RemedySection(qdisc=name), capacity, 8e5)
                link = Link(sim, rate_bps=8e5, delay_s=0.001, qdisc=qdisc)
            delivered = []
            link.connect(delivered.append)
            for i in range(num_packets):
                link.send(Packet(1, "data", 100, seq=i))
            sim.run()
            assert len(delivered) + link.queue.drops + link.queue.occupancy == num_packets
            totals = auditor.checkpoint("drained")
            assert any(ledger.startswith("audit.link.") for ledger in totals)
            assert all(residual == 0 for residual in totals.values()), (name, totals)

    @given(st.integers(min_value=0, max_value=2**31 - 1))
    @settings(max_examples=20, deadline=None)
    def test_fifo_under_random_delay_process(self, seed):
        sim = Simulator()
        dp = DelayProcess(np.random.default_rng(seed), max_extra_s=0.05, redraw_interval_s=0.02)
        link = Link(sim, rate_bps=8e6, delay_s=0.001, delay_process=dp)
        seqs = []
        link.connect(lambda p: seqs.append(p.seq))
        for i in range(100):
            sim.schedule(i * 0.003, lambda i=i: link.send(Packet(1, "data", 500, seq=i)))
        sim.run()
        assert seqs == sorted(seqs)

    @given(st.integers(min_value=1, max_value=100))
    @settings(max_examples=20, deadline=None)
    def test_droptail_never_exceeds_capacity(self, capacity):
        q = DropTailQueue(capacity)
        for i in range(capacity * 3):
            q.enqueue(Packet(1, "data", 100, seq=i), 0.0)
        assert q.occupancy == capacity
        assert q.drops == capacity * 2


class TestTcpProperties:
    @given(
        st.integers(min_value=1_000, max_value=300_000),
        st.sampled_from(["reno", "cubic", "vegas", "veno", "bbr"]),
        st.integers(min_value=0, max_value=10_000),
    )
    @settings(max_examples=12, deadline=None)
    def test_transfer_always_completes_and_reassembles(self, size, algorithm, seed):
        """Any transfer over a lossy path completes with exact reassembly."""
        config = PathConfig(profile=NR_PROFILE, scale=0.02)
        sim = Simulator()
        path = build_cellular_path(sim, config, np.random.default_rng(seed))
        cc = make_cc(algorithm, config.mss_bytes, rate_scale=0.02)
        conn = TcpConnection.establish(sim, path, cc, transfer_bytes=size)
        conn.start()
        sim.run(until=240.0)
        assert conn.sender.done
        assert conn.receiver.rcv_next == size

    @given(st.integers(min_value=0, max_value=10_000))
    @settings(max_examples=10, deadline=None)
    def test_delivered_bytes_monotone(self, seed):
        config = PathConfig(profile=LTE_PROFILE, scale=0.02)
        sim = Simulator()
        path = build_cellular_path(sim, config, np.random.default_rng(seed))
        conn = TcpConnection.establish(
            sim, path, make_cc("cubic", config.mss_bytes, 0.02)
        )
        conn.start()
        sim.run(until=10.0)
        trace = conn.sender.stats.delivered_trace
        values = [d for _, d in trace]
        assert values == sorted(values)
        times = [t for t, _ in trace]
        assert times == sorted(times)


class _ReversePath:
    """Just enough of a ``NetworkPath`` for a receiver: keeps the ACKs."""

    def __init__(self):
        self.acks = []

    def on_forward_delivery(self, handler):
        self.handler = handler

    def send_reverse(self, packet):
        self.acks.append(packet)


def _reference_ack(state, seq, payload, limit=16):
    """The receiver's ACK fields from a plain sorted walk over the buffer."""
    if seq == state["rcv_next"]:
        state["rcv_next"] += payload
        while state["rcv_next"] in state["ooo"]:
            state["rcv_next"] += state["ooo"].pop(state["rcv_next"])
    elif seq > state["rcv_next"]:
        state["ooo"][seq] = payload
    ooo = state["ooo"]
    holes, cursor = [], state["rcv_next"]
    for start in sorted(ooo):
        if start > cursor:
            holes.append((cursor, start))
            if len(holes) >= limit:
                break
        cursor = max(cursor, start + ooo[start])
    return state["rcv_next"], sum(ooo.values()), tuple(holes)


@st.composite
def _arrivals(draw):
    """Arrival order of segments, each ``seq`` with ``min(mss, total - seq)``.

    Aligned segments (the last one short unless ``mss`` divides ``total``)
    arrive reordered with duplicates, interleaved with segments starting at
    arbitrary offsets, which overlap their aligned neighbours.
    """
    mss = draw(st.integers(1, 16))
    total = draw(st.integers(1, 400))
    aligned = list(range(0, total, mss))
    duplicates = draw(st.lists(st.sampled_from(aligned), max_size=40))
    misaligned = draw(st.lists(st.integers(0, total - 1), max_size=40))
    order = draw(st.permutations(aligned + duplicates + misaligned))
    return [(seq, min(mss, total - seq)) for seq in order]


class TestSackScoreboardProperties:
    @given(_arrivals())
    @settings(max_examples=300, deadline=None)
    def test_every_ack_matches_sorted_walk(self, arrivals):
        path = _ReversePath()
        receiver = TcpReceiver(Simulator(), path, flow_id=1)
        state = {"rcv_next": 0, "ooo": {}}
        for seq, payload in arrivals:
            path.handler(Packet(1, DATA, payload + 52, seq=seq, payload=payload))
            ack = path.acks[-1]
            assert (ack.ack, ack.sacked, ack.holes) == _reference_ack(state, seq, payload)


class TestBbrFilterProperties:
    @given(st.lists(
        st.tuples(
            st.integers(0, 40_000),
            st.floats(0.0, 0.2),
            st.one_of(st.none(), st.just(0.0), st.sampled_from([1e5, 2e6]),
                      st.floats(1e3, 1e7)),
        ),
        max_size=300,
    ))
    @settings(max_examples=100, deadline=None)
    def test_bottleneck_bw_is_max_of_window(self, acks):
        cc = Bbr(mss_bytes=1000)
        window = deque()  # every in-window sample, expired as the filter does
        bootstrap = cc.bottleneck_bw_bps
        for step, (acked, rtt, rate) in enumerate(acks):
            cc.on_ack(acked, rtt, 0.01 * step, delivery_rate_bps=rate)
            if rate is not None and rate > 0:
                window.append((cc._round, rate))
                while window[0][0] < cc._round - _BW_WINDOW_ROUNDS:
                    window.popleft()
            expected = max(bw for _, bw in window) if window else bootstrap
            assert cc.bottleneck_bw_bps == expected


class TestRadioProperties:
    @given(st.floats(min_value=-20.0, max_value=45.0), st.floats(min_value=0.1, max_value=10.0))
    @settings(max_examples=50)
    def test_spectral_efficiency_monotone(self, sinr, delta):
        assert spectral_efficiency_from_sinr(sinr + delta) >= spectral_efficiency_from_sinr(sinr)

    @given(
        st.floats(min_value=1.0, max_value=900.0),
        st.floats(min_value=1.01, max_value=3.0),
        st.sampled_from([1840.0, 3500.0]),
    )
    @settings(max_examples=50)
    def test_path_loss_monotone_both_classes(self, d, factor, carrier):
        assert uma_los_path_loss_db(d * factor, carrier) > uma_los_path_loss_db(d, carrier)
        assert uma_nlos_path_loss_db(d * factor, carrier) > uma_nlos_path_loss_db(d, carrier)

    @given(st.floats(min_value=1.0, max_value=900.0))
    @settings(max_examples=50)
    def test_5g_attenuates_at_least_as_much(self, d):
        assert uma_nlos_path_loss_db(d, 3500.0) >= uma_nlos_path_loss_db(d, 1840.0)
