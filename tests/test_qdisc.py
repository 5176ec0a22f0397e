"""Tests for the remedy subsystem: qdiscs, autorate, link integration.

The qdisc contract (``repro.qdisc.base``) runs on virtual time and draws
no randomness, so every test here is exact — no tolerances, no seeds
except where a path's own stochastic processes are exercised.
"""

import pytest

from repro.net import Link, Packet, Simulator
from repro.qdisc import (
    QDISC_NAMES,
    AutorateController,
    CakeQueue,
    CoDelQueue,
    DropTailQueue,
    FqCodelQueue,
    QdiscStats,
    RemedySection,
    ShaperState,
    flow_hash,
    make_qdisc,
)

#: Each discipline's constructor, keyed by its scenario name.
BUILDERS = {
    "droptail": DropTailQueue,
    "codel": CoDelQueue,
    "fq-codel": FqCodelQueue,
    "cake": lambda capacity_packets: CakeQueue(
        shaper_rate_bps=1e9, capacity_packets=capacity_packets
    ),
}


def pkt(size_bytes=1448, flow_id=1, host_id=None):
    return Packet(flow_id, "data", size_bytes, host_id=host_id)


@pytest.mark.parametrize("name", QDISC_NAMES)
def test_every_discipline_rejects_an_empty_buffer(name):
    # A zero-capacity buffer would construct and silently drop every packet.
    with pytest.raises(ValueError, match="capacity"):
        BUILDERS[name](capacity_packets=0)


class TestQdiscStats:
    def test_mean_sojourn_accumulates_and_resets(self):
        stats = QdiscStats()
        stats.note_sojourn(0.010)
        stats.note_sojourn(0.030)
        assert stats.take_mean_sojourn_s() == pytest.approx(0.020)
        # The accumulator reset: an idle interval reads as zero delay.
        assert stats.take_mean_sojourn_s() == 0.0

    def test_peak_sojourn_resets(self):
        stats = QdiscStats()
        stats.note_sojourn(0.002)
        stats.note_sojourn(0.008)
        stats.note_sojourn(0.004)
        assert stats.take_peak_sojourn_s() == pytest.approx(0.008)
        assert stats.take_peak_sojourn_s() == 0.0


class TestCoDel:
    def test_fifo_below_target(self):
        q = CoDelQueue(capacity_packets=10)
        first, second = pkt(), pkt()
        assert q.enqueue(first, 0.0)
        assert q.enqueue(second, 0.0)
        # Sojourns below target: pure FIFO, no control-law drops.
        assert q.dequeue(0.001) is first
        assert q.dequeue(0.002) is second
        assert q.drops == 0

    def test_tail_drop_at_capacity(self):
        q = CoDelQueue(capacity_packets=2)
        assert q.enqueue(pkt(), 0.0)
        assert q.enqueue(pkt(), 0.0)
        assert not q.enqueue(pkt(), 0.0)
        assert q.stats.drops == 1
        assert q.occupancy == 2

    def test_byte_occupancy_tracks_queue(self):
        q = CoDelQueue(capacity_packets=10)
        q.enqueue(pkt(size_bytes=1000), 0.0)
        q.enqueue(pkt(size_bytes=500), 0.0)
        assert q.occupancy_bytes == 1500
        q.dequeue(0.0)
        assert q.occupancy_bytes == 500

    def test_control_law_head_drops_standing_queue(self):
        q = CoDelQueue(capacity_packets=100, target_s=0.005, interval_s=0.1)
        dropped = []
        q.on_drop = dropped.append
        for _ in range(50):
            q.enqueue(pkt(), 0.0)
        # Drain slowly: every packet's sojourn is far above target, so
        # once the first interval expires CoDel starts dropping at the
        # head and ramps the drop rate.
        now, delivered = 0.0, 0
        while q.occupancy:
            if q.dequeue(now) is not None:
                delivered += 1
            now += 0.05
        assert q.stats.aqm_drops > 0
        assert len(dropped) == q.stats.aqm_drops
        assert delivered + q.stats.aqm_drops == 50

    def test_drop_rate_ramps(self):
        q = CoDelQueue(capacity_packets=200, target_s=0.001, interval_s=0.02)
        for _ in range(150):
            q.enqueue(pkt(), 0.0)
        # Count dequeue steps (integers: immune to float accumulation)
        # between successive control-law drops.
        drop_steps = []
        before = q.stats.aqm_drops
        step = 0
        while q.occupancy:
            q.dequeue(step * 0.002)
            if q.stats.aqm_drops > before:
                drop_steps.append(step)
                before = q.stats.aqm_drops
            step += 1
        gaps = [b - a for a, b in zip(drop_steps, drop_steps[1:])]
        # interval/sqrt(count): the first gap is the widest and the drop
        # rate at least doubles by the end of the standing queue.
        assert len(gaps) >= 5
        assert gaps[0] == max(gaps)
        assert gaps[-1] <= gaps[0] // 2

    def test_validation(self):
        with pytest.raises(ValueError):
            CoDelQueue(capacity_packets=0)
        with pytest.raises(ValueError):
            CoDelQueue(target_s=-1.0)


class TestFqCodel:
    def test_flow_hash_deterministic(self):
        assert flow_hash(7, 1024) == flow_hash(7, 1024)
        assert 0 <= flow_hash(123456, 64) < 64

    def test_drr_interleaves_backlogged_flows(self):
        q = FqCodelQueue(capacity_packets=100, quantum_bytes=1448)
        for _ in range(3):
            q.enqueue(pkt(flow_id=1), 0.0)
            q.enqueue(pkt(flow_id=2), 0.0)
        order = [q.dequeue(0.0).flow_id for _ in range(6)]
        # One quantum per turn: neither flow is served twice in a row
        # beyond its quantum while the other is backlogged.
        assert sorted(order[:2]) == [1, 2]
        assert sorted(order) == [1, 1, 1, 2, 2, 2]

    def test_sparse_flow_served_first(self):
        q = FqCodelQueue(capacity_packets=100, quantum_bytes=1448)
        for _ in range(10):
            q.enqueue(pkt(flow_id=1), 0.0)
        q.dequeue(0.0)  # flow 1 exhausts its new-flow credit, moves to old
        q.enqueue(pkt(flow_id=2, size_bytes=100), 0.0)
        # The thin newcomer jumps the 9-packet backlog.
        assert q.dequeue(0.0).flow_id == 2

    def test_shared_capacity_tail_drop(self):
        q = FqCodelQueue(capacity_packets=4)
        for _ in range(4):
            assert q.enqueue(pkt(flow_id=1), 0.0)
        assert not q.enqueue(pkt(flow_id=2), 0.0)
        assert q.stats.drops == 1

    def test_occupancy_coherent_after_aqm_drops(self):
        q = FqCodelQueue(capacity_packets=100, target_s=0.001, interval_s=0.01)
        for _ in range(40):
            q.enqueue(pkt(flow_id=1), 0.0)
        now, delivered = 0.0, 0
        while q.occupancy:
            if q.dequeue(now) is not None:
                delivered += 1
            now += 0.02
        assert q.stats.aqm_drops > 0
        assert delivered + q.stats.aqm_drops == 40
        assert q.occupancy == 0 and q.occupancy_bytes == 0


class TestCake:
    def test_shaper_withholds_until_eligible(self):
        # 1000 B at 1 Mbps shaped rate: 8 ms per packet.
        q = CakeQueue(shaper_rate_bps=1e6)
        q.enqueue(pkt(size_bytes=1000), 0.0)
        q.enqueue(pkt(size_bytes=1000), 0.0)
        assert q.dequeue(0.0) is not None
        assert q.next_ready_s(0.0) == pytest.approx(0.008)
        assert q.dequeue(0.004) is None  # shaped: not yet eligible
        assert q.dequeue(0.008) is not None
        assert q.next_ready_s(0.016) is None  # empty: nothing to wake for

    def test_host_isolation(self):
        q = CakeQueue(shaper_rate_bps=1e9, quantum_bytes=1000)
        # Host A runs four flows, host B one; DRR over hosts first means
        # B still gets every other service turn.
        for flow in range(4):
            q.enqueue(pkt(size_bytes=1000, flow_id=10 + flow, host_id=1), 0.0)
        q.enqueue(pkt(size_bytes=1000, flow_id=99, host_id=2), 0.0)
        # Dequeue at the shaper's eligibility times, not back-to-back.
        first = q.dequeue(0.0)
        second = q.dequeue(q.next_ready_s(0.0))
        hosts = {p.host_id for p in (first, second)}
        assert hosts == {1, 2}

    def test_shaper_rate_is_retunable(self):
        q = CakeQueue(shaper_rate_bps=1e6)
        q.enqueue(pkt(size_bytes=1000), 0.0)
        q.dequeue(0.0)
        q.shaper_rate_bps = 2e6  # what the autorate controller does
        q.enqueue(pkt(size_bytes=1000), 0.009)
        q.enqueue(pkt(size_bytes=1000), 0.009)
        assert q.dequeue(0.009) is not None
        # The withheld second packet becomes eligible one serialization
        # (at the NEW rate: 4 ms, not 8 ms) after the first.
        assert q.next_ready_s(0.009) == pytest.approx(0.013)

    def test_validation(self):
        with pytest.raises(ValueError):
            CakeQueue(shaper_rate_bps=0.0)
        with pytest.raises(ValueError):
            CakeQueue(shaper_rate_bps=1e6, hosts_count=0)
        # A quantum below one byte would rotate the DRR rings forever.
        for quantum_bytes in (0, -1514):
            with pytest.raises(ValueError, match="quantum"):
                CakeQueue(shaper_rate_bps=1e9, quantum_bytes=quantum_bytes)


class TestMakeQdisc:
    def test_droptail_keeps_the_deployed_depth(self):
        # Drop-tail is the measured deployment, not a remedy: the AQM
        # buffer ratio does not deepen it.
        q = make_qdisc(RemedySection(aqm_buffer_ratio=8.0), 25, 1e9)
        assert isinstance(q, DropTailQueue)
        assert q.capacity_packets == 25

    @pytest.mark.parametrize(
        "name,cls",
        [("codel", CoDelQueue), ("fq-codel", FqCodelQueue), ("cake", CakeQueue)],
    )
    def test_builds_each_discipline(self, name, cls):
        q = make_qdisc(RemedySection(qdisc=name), 25, 1e9)
        assert isinstance(q, cls)

    def test_aqm_buffer_ratio_scales_capacity(self):
        remedy = RemedySection(qdisc="codel", aqm_buffer_ratio=8.0)
        q = make_qdisc(remedy, 25, 1e9)
        assert q.capacity_packets == 200

    def test_cake_shaper_rate_from_ratio(self):
        remedy = RemedySection(qdisc="cake", shaper_ratio=0.9)
        q = make_qdisc(remedy, 25, 1e6)
        assert q.shaper_rate_bps == pytest.approx(0.9e6)


class TestAutorate:
    def _controller(self, interval_s=0.5):
        sim = Simulator()
        cake = CakeQueue(shaper_rate_bps=1e6)
        link = Link(sim, rate_bps=1e6, delay_s=0.0, qdisc=cake)
        link.connect(lambda p: None)
        ctl = AutorateController(
            sim, link, cake, target_s=0.003, interval_s=interval_s, floor_ratio=0.5, horizon_s=5.0
        )
        return sim, cake, ctl

    def test_classify_thresholds(self):
        _, _, ctl = self._controller()
        assert ctl.classify(0.0) is ShaperState.GREEN
        assert ctl.classify(0.003) is ShaperState.GREEN
        assert ctl.classify(0.005) is ShaperState.YELLOW
        assert ctl.classify(0.010) is ShaperState.SOFT_RED
        assert ctl.classify(0.050) is ShaperState.RED

    def test_red_cuts_toward_floor_green_recovers(self):
        sim, cake, ctl = self._controller(interval_s=0.5)
        # Fake a congested interval: the tick reads the mean sojourn.
        cake.stats.note_sojourn(0.050)
        sim.run(until=0.6)  # one tick
        assert ctl.state is ShaperState.RED
        assert cake.shaper_rate_bps == pytest.approx(0.85e6)
        # Queue drained: GREEN probes back up, clamped at the ceiling.
        sim.run(until=4.9)
        assert ctl.state is ShaperState.GREEN
        assert cake.shaper_rate_bps == ctl.ceiling_bps

    def test_rate_never_leaves_floor_ceiling_band(self):
        sim, cake, ctl = self._controller(interval_s=0.1)
        for tick in range(40):
            cake.stats.note_sojourn(0.500)  # permanently red
        sim.run(until=4.9)
        assert cake.shaper_rate_bps >= ctl.floor_bps - 1e-9

    def test_dwell_accounting_covers_horizon(self):
        sim, cake, ctl = self._controller(interval_s=0.5)
        sim.run()  # controller self-terminates at its 5 s horizon
        total = sum(ctl.dwell_s.values())
        assert total == pytest.approx(5.0)
        assert ctl.ticks == 10

    def test_validation(self):
        sim = Simulator()
        cake = CakeQueue(shaper_rate_bps=1e6)
        link = Link(sim, rate_bps=1e6, delay_s=0.0, qdisc=cake)
        with pytest.raises(ValueError):
            AutorateController(sim, link, cake, target_s=0.0)
        with pytest.raises(ValueError):
            AutorateController(sim, link, cake, target_s=0.003, floor_ratio=1.5)


class TestLinkPauseResume:
    """Regression tests: pause()/resume() vs in-flight serialization."""

    def _link(self, sim, capacity=10, qdisc=None):
        # 125-byte packets at 1 Mbps: exactly 1 ms serialization each.
        link = Link(
            sim, rate_bps=1e6, delay_s=0.0, queue_capacity_packets=capacity, qdisc=qdisc
        )
        delivered = []
        link.connect(delivered.append)
        return link, delivered

    def test_pause_mid_serialization_finishes_in_flight_packet(self):
        sim = Simulator()
        link, delivered = self._link(sim)
        for _ in range(3):
            link.send(pkt(size_bytes=125))
        sim.schedule(0.0005, link.pause)  # mid first serialization
        sim.run(until=0.01)
        # The in-flight packet completes (a paused radio does not
        # un-serialize), but the queue stops being served.
        assert len(delivered) == 1
        assert link.queue.occupancy == 2
        link.resume()
        sim.run()
        assert len(delivered) == 3
        assert link.queue.occupancy == 0

    def test_sends_while_paused_queue_and_overflow(self):
        sim = Simulator()
        link, delivered = self._link(sim, capacity=2)
        link.pause()
        for _ in range(5):
            link.send(pkt(size_bytes=125))
        sim.run(until=0.1)
        assert delivered == []
        assert link.queue.occupancy == 2
        assert len(link.dropped_packets) == 3
        link.resume()
        sim.run()
        assert len(delivered) == 2

    def test_resume_without_pause_is_noop(self):
        sim = Simulator()
        link, delivered = self._link(sim)
        link.resume()  # must not start a phantom transmission
        link.send(pkt(size_bytes=125))
        sim.run()
        assert len(delivered) == 1

    def test_pause_resume_with_codel_qdisc(self):
        sim = Simulator()
        link, delivered = self._link(sim, qdisc=CoDelQueue(capacity_packets=10))
        for _ in range(4):
            link.send(pkt(size_bytes=125))
        sim.schedule(0.0015, link.pause)
        sim.schedule(0.050, link.resume)
        sim.run()
        assert len(delivered) == 4
        assert link.queue.occupancy == 0

    def test_shaper_wake_respects_pause(self):
        sim = Simulator()
        # Shaped far below the serializer: the link goes idle between
        # releases and relies on _schedule_wake.
        cake = CakeQueue(shaper_rate_bps=1e5)
        link, delivered = self._link(sim, qdisc=cake)
        for _ in range(3):
            link.send(pkt(size_bytes=125))
        sim.schedule(0.0015, link.pause)  # pause while a wake is pending
        sim.run(until=0.5)
        assert len(delivered) < 3
        link.resume()
        sim.run()
        assert len(delivered) == 3

    def test_double_pause_single_resume(self):
        sim = Simulator()
        link, delivered = self._link(sim)
        link.pause()
        link.pause()
        link.send(pkt(size_bytes=125))
        link.resume()
        sim.run()
        assert len(delivered) == 1
