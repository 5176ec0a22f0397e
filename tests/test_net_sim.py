"""Tests for the discrete-event simulator, queues, links and paths."""

import numpy as np
import pytest

from repro import instruments
from repro.core import LTE_PROFILE, NR_PROFILE
from repro.net import (
    CrossTraffic,
    Link,
    Packet,
    PathConfig,
    Simulator,
    build_cellular_path,
)
from repro.net.link import DelayProcess
from repro.qdisc import CakeQueue, DropTailQueue
from repro.transport.udp import UdpSender


class TestSimulator:
    def test_events_run_in_order(self):
        sim = Simulator()
        order = []
        sim.schedule(2.0, order.append, "b")
        sim.schedule(1.0, order.append, "a")
        sim.schedule(3.0, order.append, "c")
        sim.run()
        assert order == ["a", "b", "c"]

    def test_ties_fifo(self):
        sim = Simulator()
        order = []
        sim.schedule(1.0, order.append, 1)
        sim.schedule(1.0, order.append, 2)
        sim.run()
        assert order == [1, 2]

    def test_cancel(self):
        sim = Simulator()
        fired = []
        event = sim.schedule(1.0, fired.append, "x")
        event.cancel()
        sim.run()
        assert fired == []

    def test_run_until(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "early")
        sim.schedule(5.0, fired.append, "late")
        sim.run(until=2.0)
        assert fired == ["early"]
        assert sim.now == 2.0
        sim.run()
        assert fired == ["early", "late"]

    @pytest.mark.parametrize("delay", [-1.0, float("nan")])
    def test_negative_delay_rejected(self, delay):
        # NaN compares false both ways, so only ``not delay >= 0`` catches
        # it; accepted, it would fire first and set ``now`` to NaN.
        with pytest.raises(ValueError):
            Simulator().schedule(delay, lambda: None)

    def test_schedule_at(self):
        sim = Simulator()
        times = []
        sim.schedule_at(3.5, lambda: times.append(sim.now))
        sim.run()
        assert times == [3.5]

    def test_nested_scheduling(self):
        sim = Simulator()
        times = []

        def outer():
            times.append(sim.now)
            sim.schedule(1.0, inner)

        def inner():
            times.append(sim.now)

        sim.schedule(1.0, outer)
        sim.run()
        assert times == [1.0, 2.0]

    def test_run_until_advances_time_when_idle(self):
        sim = Simulator()
        sim.run(until=10.0)
        assert sim.now == 10.0

    def test_schedule_at_exactly_now_fires(self):
        sim = Simulator()
        fired = []
        sim.schedule(1.0, lambda: sim.schedule_at(sim.now, fired.append, "x"))
        sim.run()
        assert fired == ["x"]
        assert sim.now == 1.0

    def test_schedule_at_float_rounded_past_clamped(self):
        # now + dt computed elsewhere can land a few ULPs below now; that
        # must fire immediately instead of crashing mid-simulation.
        sim = Simulator()
        fired = []

        def at_t():
            sim.schedule_at(sim.now - 1e-12, fired.append, "x")

        sim.schedule(0.3, at_t)
        sim.run()
        assert fired == ["x"]

    @pytest.mark.parametrize("time", [0.5, float("nan")])
    def test_schedule_at_genuinely_past_rejected(self, time):
        sim = Simulator()
        sim.schedule(1.0, lambda: None)
        sim.run()
        with pytest.raises(ValueError):
            sim.schedule_at(time, lambda: None)

    def test_event_counters(self):
        sim = Simulator()
        keep = sim.schedule(1.0, lambda: None)
        drop = sim.schedule(2.0, lambda: None)
        drop.cancel()
        sim.run()
        assert sim.events_scheduled == 2
        assert sim.events_executed == 1
        assert sim.events_cancelled == 1
        assert sim.counters() == (2, 1, 1)
        assert not keep.cancelled

    def test_pending_events_tracks_schedule_cancel_and_run(self):
        sim = Simulator()
        events = [sim.schedule(float(i + 1), lambda: None) for i in range(5)]
        assert sim.pending_events() == 5
        events[0].cancel()
        events[0].cancel()  # double-cancel must not double-count
        assert sim.pending_events() == 4
        assert sim.events_cancelled == 1
        sim.run(until=3.0)
        assert sim.pending_events() == 2
        sim.run()
        assert sim.pending_events() == 0

    def test_cancel_after_fire_does_not_skew_counters(self):
        sim = Simulator()
        event = sim.schedule(1.0, lambda: None)
        sim.run()
        event.cancel()
        assert sim.pending_events() == 0
        assert sim.events_cancelled == 0

    def test_global_counters_aggregate_across_simulators(self):
        from repro.net.sim import global_counters

        before = global_counters()
        for _ in range(3):
            sim = Simulator()
            sim.schedule(1.0, lambda: None)
            sim.schedule(2.0, lambda: None).cancel()
            sim.run()
        after = global_counters()
        assert after.scheduled - before.scheduled == 6
        assert after.executed - before.executed == 3
        assert after.cancelled - before.cancelled == 3

    def test_cancel_during_dispatch_skips_pending_event(self):
        # A callback may cancel an event that is still in the heap; the
        # loop must drop it without executing and keep counters honest.
        sim = Simulator()
        fired = []
        victim = sim.schedule(2.0, fired.append, "victim")
        sim.schedule(1.0, victim.cancel)
        sim.run()
        assert fired == []
        assert sim.counters() == (2, 1, 1)
        assert sim.pending_events() == 0

    def test_cancel_during_dispatch_same_timestamp(self):
        # FIFO ties mean the canceller runs first even at equal times,
        # exercising the popped-but-cancelled continue path.
        sim = Simulator()
        fired = []
        canceller_holder = []
        sim.schedule(1.0, lambda: canceller_holder[0].cancel())
        canceller_holder.append(sim.schedule(1.0, fired.append, "x"))
        sim.run()
        assert fired == []
        assert sim.counters() == (2, 1, 1)
        assert sim.now == 1.0

    def test_event_exactly_at_until_fires(self):
        # run(until=t) is inclusive: an event at exactly t executes and
        # the clock rests at t with nothing left over.
        sim = Simulator()
        fired = []
        sim.schedule(2.0, fired.append, "edge")
        sim.schedule(2.0 + 1e-9, fired.append, "past")
        sim.run(until=2.0)
        assert fired == ["edge"]
        assert sim.now == 2.0
        assert sim.pending_events() == 1
        sim.run()
        assert fired == ["edge", "past"]

    def test_counters_consistent_after_early_heap_drain(self):
        # The heap empties long before `until`; the clock must still
        # jump to `until` and the simulator stays usable afterwards.
        sim = Simulator()
        fired = []
        sim.schedule(1.0, fired.append, "only")
        sim.run(until=10.0)
        assert fired == ["only"]
        assert sim.now == 10.0
        assert sim.pending_events() == 0
        assert sim.counters() == (1, 1, 0)
        sim.schedule(5.0, fired.append, "later")
        sim.run()
        assert fired == ["only", "later"]
        assert sim.now == 15.0
        assert sim.counters() == (2, 2, 0)


class TestSimulatorTracing:
    def test_default_tracer_is_null(self):
        from repro.trace import NULL_TRACER

        assert Simulator().tracer is NULL_TRACER
        assert not Simulator().tracer.enabled

    def test_traced_run_records_dispatch_spans_and_queue_depth(self):
        from repro.trace import Tracer

        tracer = Tracer()
        with instruments.using(tracer=tracer):
            sim = Simulator()
            order = []
            sim.schedule(1.0, order.append, "a")
            sim.schedule(2.0, order.append, "b")
            sim.run()
        assert order == ["a", "b"]
        spans = tracer.spans(name="sim.dispatch")
        assert [s.begin_s for s in spans] == [1.0, 2.0]
        assert all(dict(s.args)["callback"] == "list.append" for s in spans)
        depths = tracer.counter_series("sim.queue_depth")
        assert depths == [(1.0, 1.0), (2.0, 0.0)]

    def test_traced_and_untraced_runs_agree(self):
        from repro.trace import Tracer

        def drive(sim):
            out = []
            sim.schedule(1.0, out.append, "x")
            sim.schedule(2.0, out.append, "y")
            sim.schedule(3.0, out.append, "z")
            sim.schedule(1.5, out.append, "w")
            sim.run(until=2.5)
            sim.run()
            return out, sim.now, sim.counters()

        plain = drive(Simulator())
        with instruments.using(tracer=Tracer()):
            traced = drive(Simulator())
        assert plain == traced


class TestDropTailQueue:
    def test_fifo(self):
        q = DropTailQueue(10)
        p1 = Packet(1, "data", 100)
        p2 = Packet(1, "data", 300)
        q.enqueue(p1, 0.0)
        q.enqueue(p2, 0.0)
        assert (q.occupancy, q.occupancy_bytes) == (2, 400)
        assert q.dequeue(0.1) is p1
        assert q.dequeue(0.2) is p2
        assert q.dequeue(0.3) is None
        assert (q.occupancy, q.occupancy_bytes) == (0, 0)
        assert q.next_ready_s(0.3) is None  # work-conserving: never withholds

    def test_overflow_drops(self):
        q = DropTailQueue(2)
        assert q.enqueue(Packet(1, "data", 100), 0.0)
        assert q.enqueue(Packet(1, "data", 100), 0.0)
        assert not q.enqueue(Packet(1, "data", 100), 0.0)
        assert (q.stats.drops, q.drops, q.stats.aqm_drops) == (1, 1, 0)
        assert (q.stats.enqueued, q.stats.enqueued_bytes) == (2, 200)
        assert q.occupancy == 2

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            DropTailQueue(0)


class TestLink:
    def test_delivery_latency(self):
        sim = Simulator()
        link = Link(sim, rate_bps=8000.0, delay_s=0.5)
        arrivals = []
        link.connect(lambda p: arrivals.append(sim.now))
        link.send(Packet(1, "data", 100))  # 100 B at 1 kB/s = 0.1 s + 0.5 s
        sim.run()
        assert arrivals == [pytest.approx(0.6)]

    def test_serialization_queueing(self):
        sim = Simulator()
        link = Link(sim, rate_bps=8000.0, delay_s=0.0)
        arrivals = []
        link.connect(lambda p: arrivals.append(sim.now))
        link.send(Packet(1, "data", 100))
        link.send(Packet(1, "data", 100))
        sim.run()
        assert arrivals == [pytest.approx(0.1), pytest.approx(0.2)]

    def test_pause_resume(self):
        sim = Simulator()
        link = Link(sim, rate_bps=8e6, delay_s=0.0)
        arrivals = []
        link.connect(lambda p: arrivals.append(sim.now))
        link.pause()
        link.send(Packet(1, "data", 1000))
        sim.run(until=1.0)
        assert arrivals == []
        link.resume()
        sim.run(until=2.0)
        assert len(arrivals) == 1

    def test_queue_overflow_records_drop(self):
        sim = Simulator()
        link = Link(sim, rate_bps=800.0, delay_s=0.0, queue_capacity_packets=1)
        link.connect(lambda p: None)
        for _ in range(5):
            link.send(Packet(1, "data", 100))
        assert link.queue.drops >= 3
        assert len(link.dropped_packets) == link.queue.drops

    def test_enlarged_queue_audits_against_the_new_capacity(self):
        from repro.audit import Auditor

        auditor = Auditor()
        with instruments.using(auditor=auditor):
            link = Link(Simulator(), rate_bps=800.0, delay_s=0.0,
                        queue_capacity_packets=2, name="hop")
        link.connect(lambda p: None)
        link.queue.capacity_packets = 8  # resized after the ledgers registered
        for _ in range(6):
            link.send(Packet(1, "data", 100))
        assert link.queue.occupancy > 2  # more than the construction-time capacity
        totals = auditor.checkpoint("resized")
        assert totals["audit.link.hop.occupancy_bounds_pkts"] == 0
        assert auditor.violation_count == 0

    def test_idle_with_bytes_on_the_book_is_one_violation(self):
        from repro.audit import Auditor

        class ForgetfulDropTail(DropTailQueue):
            def dequeue(self, now_s):
                # Pops the packet but leaves its bytes on the book.
                return self._queue.popleft() if self._queue else None

        auditor = Auditor()
        with instruments.using(auditor=auditor):
            sim = Simulator()
            link = Link(sim, rate_bps=8e5, delay_s=0.0, qdisc=ForgetfulDropTail(4), name="hop")
        link.connect(lambda p: None)
        link.send(Packet(1, "data", 100))
        sim.run()
        violations = auditor.violations()
        assert [v.name for v in violations] == ["audit.link.hop.idle_occupancy_pkts"]
        assert dict(violations[0].args)["occupancy_bytes"] == 100

    def test_shaper_holding_packets_back_is_not_an_idle_leak(self):
        from repro.audit import Auditor

        auditor = Auditor()
        with instruments.using(auditor=auditor):
            sim = Simulator()
            # 125 B take 1 ms on the wire but 10 ms at the shaped rate.
            cake = CakeQueue(shaper_rate_bps=1e5)
            link = Link(sim, rate_bps=1e6, delay_s=0.0, qdisc=cake, name="hop")
        delivered = []
        link.connect(delivered.append)
        for _ in range(3):
            link.send(Packet(1, "data", 125))
        sim.run(until=0.005)
        assert (len(delivered), cake.occupancy) == (1, 2)  # idle, holding two
        sim.run()
        assert len(delivered) == 3
        totals = auditor.checkpoint("drained")
        assert all(residual == 0 for residual in totals.values())
        assert auditor.violation_count == 0

    def test_unconnected_link_raises(self):
        sim = Simulator()
        link = Link(sim, rate_bps=1e6, delay_s=0.0)
        with pytest.raises(RuntimeError):
            link.send(Packet(1, "data", 100))

    def test_invalid_rate(self):
        with pytest.raises(ValueError):
            Link(Simulator(), rate_bps=0.0, delay_s=0.0)

    def test_fifo_preserved_under_delay_process(self):
        sim = Simulator()
        dp = DelayProcess(np.random.default_rng(0), max_extra_s=0.05, redraw_interval_s=0.01)
        link = Link(sim, rate_bps=8e6, delay_s=0.001, delay_process=dp)
        seqs = []
        link.connect(lambda p: seqs.append(p.seq))

        def send(i):
            link.send(Packet(1, "data", 1000, seq=i))

        for i in range(200):
            sim.schedule(i * 0.002, send, i)
        sim.run()
        assert seqs == sorted(seqs)


class TestCrossTraffic:
    def test_mean_load(self):
        ct = CrossTraffic(np.random.default_rng(0), 0.8, 0.01, 0.03)
        assert ct.mean_load == pytest.approx(0.2)

    def test_load_alternates(self):
        ct = CrossTraffic(np.random.default_rng(1), 0.9, 0.01, 0.01)
        loads = {ct.load_at(t / 100.0) for t in range(200)}
        assert loads == {0.0, 0.9}

    def test_invalid_fraction(self):
        with pytest.raises(ValueError):
            CrossTraffic(np.random.default_rng(0), 1.5)


class TestPathConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            PathConfig(profile=NR_PROFILE, direction="sideways")
        with pytest.raises(ValueError):
            PathConfig(profile=NR_PROFILE, scale=0.0)
        with pytest.raises(ValueError):
            PathConfig(profile=NR_PROFILE, time_of_day="noon")

    def test_access_rate_matches_baselines(self):
        # Daytime 5G ~900 Mbps; 4G day ~125 Mbps (Sec. 4.1).
        rate5 = PathConfig(profile=NR_PROFILE, with_scheduling_stalls=False).access_rate_bps()
        rate4 = PathConfig(profile=LTE_PROFILE, with_scheduling_stalls=False).access_rate_bps()
        assert rate5 / 1e6 == pytest.approx(864, rel=0.05)
        assert rate4 / 1e6 == pytest.approx(125, rel=0.05)
        assert 4.0 <= rate5 / rate4 <= 8.0

    def test_night_4g_recovers(self):
        day = PathConfig(profile=LTE_PROFILE, time_of_day="day").access_rate_bps()
        night = PathConfig(profile=LTE_PROFILE, time_of_day="night").access_rate_bps()
        assert night > 1.4 * day


class TestBuiltPath:
    def test_base_rtt_5g_lower_than_4g(self):
        cfg5 = PathConfig(profile=NR_PROFILE, scale=0.05)
        cfg4 = PathConfig(profile=LTE_PROFILE, scale=0.05)
        p5 = build_cellular_path(Simulator(), cfg5, np.random.default_rng(0))
        p4 = build_cellular_path(Simulator(), cfg4, np.random.default_rng(0))
        # The 4G EPC detour adds ~20 ms RTT (Fig. 14).
        assert p4.base_rtt_s - p5.base_rtt_s == pytest.approx(0.020, abs=0.004)

    def test_rtt_grows_with_distance(self):
        near = build_cellular_path(
            Simulator(), PathConfig(profile=NR_PROFILE, server_distance_km=10),
            np.random.default_rng(0),
        )
        far = build_cellular_path(
            Simulator(), PathConfig(profile=NR_PROFILE, server_distance_km=2500),
            np.random.default_rng(0),
        )
        assert far.base_rtt_s > near.base_rtt_s + 0.030

    def test_forward_delivery(self):
        sim = Simulator()
        path = build_cellular_path(sim, PathConfig(profile=NR_PROFILE, scale=0.05), np.random.default_rng(0))
        got = []
        path.on_forward_delivery(got.append)
        path.send_forward(Packet(1, "data", 1500))
        sim.run(until=1.0)
        assert len(got) == 1

    def test_reverse_delivery(self):
        sim = Simulator()
        path = build_cellular_path(sim, PathConfig(profile=NR_PROFILE, scale=0.05), np.random.default_rng(0))
        got = []
        path.on_reverse_delivery(got.append)
        path.send_reverse(Packet(1, "ack", 60))
        sim.run(until=1.0)
        assert len(got) == 1

    def test_outage_blocks_access(self):
        sim = Simulator()
        path = build_cellular_path(
            sim,
            PathConfig(profile=NR_PROFILE, scale=0.05, with_scheduling_stalls=False),
            np.random.default_rng(0),
        )
        arrivals = []
        path.on_forward_delivery(lambda p: arrivals.append(sim.now))
        path.schedule_access_outage(0.0, 0.5)
        path.send_forward(Packet(1, "data", 1500))
        sim.run(until=0.4)
        assert arrivals == []
        sim.run(until=1.0)
        assert len(arrivals) == 1
        assert arrivals[0] >= 0.5

    def test_outage_holds_through_scheduling_stalls(self):
        # Stalls pause and resume the radio link every ~50 ms; one ending
        # inside a hand-off outage must not resume the link mid-outage.
        sim = Simulator()
        config = PathConfig(profile=NR_PROFILE, scale=0.05, with_cross_traffic=False)
        assert config.with_scheduling_stalls
        path = build_cellular_path(sim, config, np.random.default_rng(0))
        access = path.access_link
        UdpSender(sim, path, 0.5 * config.access_rate_bps() * config.scale).start()
        delivered = {}
        # In-flight packets land within the RAN delay; from 0.45 s on, the
        # paused link delivers nothing until the outage ends at 1.0 s.
        for t in (0.45, 0.99, 1.5):
            sim.schedule_at(t, lambda t=t: delivered.__setitem__(t, access.delivered))
        path.schedule_access_outage(0.4, 0.6)
        sim.run(until=1.5)
        assert delivered[0.45] > 0
        assert delivered[0.99] == delivered[0.45]
        assert delivered[1.5] > delivered[0.99]

    def test_stall_and_outage_pause_for_their_union(self):
        sim = Simulator()
        config = PathConfig(profile=NR_PROFILE, scale=0.05, with_scheduling_stalls=False)
        path = build_cellular_path(sim, config, np.random.default_rng(0))
        gate = path._access_gate
        paused = {}
        sim.schedule_at(0.10, gate.hold)  # a stall from 0.10 s to 0.30 s
        sim.schedule_at(0.30, gate.release)
        path.schedule_access_outage(0.20, 0.20)  # an outage from 0.20 s to 0.40 s
        for t in (0.05, 0.15, 0.25, 0.35, 0.45):
            sim.schedule_at(t, lambda t=t: paused.__setitem__(t, path.access_link._paused))
        sim.run(until=0.5)
        assert paused == {0.05: False, 0.15: True, 0.25: True, 0.35: True, 0.45: False}

    def test_hop_rtts_monotone(self):
        path = build_cellular_path(
            Simulator(), PathConfig(profile=NR_PROFILE), np.random.default_rng(0)
        )
        rtts = path.hop_rtts_s(np.random.default_rng(0))
        assert len(rtts) == 3
        assert rtts == sorted(rtts)

    def test_wired_buffer_ratio_matches_tab3(self):
        # 5G paths hold ~2.5x the wired buffer of 4G paths (Tab. 3).
        p5 = build_cellular_path(
            Simulator(), PathConfig(profile=NR_PROFILE), np.random.default_rng(0)
        )
        p4 = build_cellular_path(
            Simulator(), PathConfig(profile=LTE_PROFILE), np.random.default_rng(0)
        )
        ratio = p5.wired_link.queue.capacity_packets / p4.wired_link.queue.capacity_packets
        assert 2.0 <= ratio <= 3.0
