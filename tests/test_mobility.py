"""Tests for mobility: walker, measurement events, hand-off machinery."""

import numpy as np
import pytest

from repro.core import LTE_PROFILE, NR_PROFILE, RngFactory
from repro.geometry import build_campus
from repro.mobility import (
    EventThresholds,
    EventType,
    HandoffEngine,
    HandoffKind,
    HandoffProcedure,
    RouteWalker,
    classify_events,
    rsrq_gain_cdf_fraction,
)
from repro.mobility.handoff import HandoffEvent
from repro.radio import Environment, RadioNetwork


@pytest.fixture(scope="module")
def campus():
    return build_campus()


@pytest.fixture(scope="module")
def networks(campus):
    rngf = RngFactory(99)
    env = Environment(campus.buildings, rngf)
    nr = RadioNetwork.from_world(campus, NR_PROFILE, env)
    lte = RadioNetwork.from_world(campus, LTE_PROFILE, env)
    return nr, lte


class TestWalker:
    def test_speed_bounds_enforced(self, campus):
        with pytest.raises(ValueError):
            RouteWalker(campus, np.random.default_rng(0), speed_kmh=20.0)
        with pytest.raises(ValueError):
            RouteWalker(campus, np.random.default_rng(0), speed_kmh=1.0)

    def test_trajectory_timestamps(self, campus):
        walker = RouteWalker(campus, np.random.default_rng(0))
        traj = list(walker.trajectory(2.0, dt_s=0.5))
        times = [p.time_s for p in traj]
        assert times == pytest.approx([0.0, 0.5, 1.0, 1.5, 2.0])

    def test_positions_stay_on_campus(self, campus):
        walker = RouteWalker(campus, np.random.default_rng(1))
        for p in walker.trajectory(120.0, dt_s=1.0):
            assert -1 <= p.location.x <= campus.width_m + 1
            assert -1 <= p.location.y <= campus.height_m + 1

    def test_walker_moves(self, campus):
        walker = RouteWalker(campus, np.random.default_rng(2), speed_kmh=5.0)
        traj = list(walker.trajectory(60.0, dt_s=1.0))
        total = sum(
            a.location.distance_to(b.location) for a, b in zip(traj, traj[1:])
        )
        # ~5 km/h for 60 s is ~83 m of walking.
        assert 50 <= total <= 120

    def test_deterministic_given_rng(self, campus):
        t1 = list(RouteWalker(campus, np.random.default_rng(3)).trajectory(10.0, 1.0))
        t2 = list(RouteWalker(campus, np.random.default_rng(3)).trajectory(10.0, 1.0))
        assert [p.location for p in t1] == [p.location for p in t2]

    def test_invalid_duration(self, campus):
        walker = RouteWalker(campus, np.random.default_rng(0))
        with pytest.raises(ValueError):
            list(walker.trajectory(0.0))


class TestMeasurementEvents:
    def test_a1_on_strong_serving(self):
        events = classify_events(0.0, -7.0, -30.0)
        assert EventType.A1 in {e.event_type for e in events}

    def test_a2_on_weak_serving(self):
        events = classify_events(0.0, -22.0, -30.0)
        assert EventType.A2 in {e.event_type for e in events}

    def test_a3_neighbor_better(self):
        events = classify_events(0.0, -15.0, -10.0)
        assert EventType.A3 in {e.event_type for e in events}

    def test_a3_needs_offset(self):
        # 2 dB better is below the 3 dB offset: no A3.
        events = classify_events(0.0, -15.0, -13.5)
        assert EventType.A3 not in {e.event_type for e in events}

    def test_a5_dual_threshold(self):
        events = classify_events(0.0, -18.0, -12.0)
        assert EventType.A5 in {e.event_type for e in events}

    def test_b_events_need_inter_rat(self):
        without = classify_events(0.0, -18.0, -30.0)
        assert EventType.B1 not in {e.event_type for e in without}
        with_rat = classify_events(0.0, -18.0, -30.0, inter_rat_db=-4.0)
        kinds = {e.event_type for e in with_rat}
        assert EventType.B1 in kinds
        assert EventType.B2 in kinds

    def test_custom_thresholds(self):
        th = EventThresholds(a3_offset_db=10.0)
        events = classify_events(0.0, -15.0, -10.0, thresholds=th)
        assert EventType.A3 not in {e.event_type for e in events}


class TestHandoffProcedure:
    def test_mean_latencies_match_paper(self):
        # Sec. 3.4: 30.10 ms (4G-4G), 108.40 ms (5G-5G), 80.23 ms (4G-5G).
        assert HandoffProcedure.mean_latency_s(HandoffKind.LTE_TO_LTE) == pytest.approx(
            0.0301, abs=0.002
        )
        assert HandoffProcedure.mean_latency_s(HandoffKind.NR_TO_NR) == pytest.approx(
            0.1084, abs=0.002
        )
        assert HandoffProcedure.mean_latency_s(HandoffKind.LTE_TO_NR) == pytest.approx(
            0.0802, abs=0.002
        )

    def test_nsa_5g_handoff_3x_slower_than_4g(self):
        ratio = HandoffProcedure.mean_latency_s(
            HandoffKind.NR_TO_NR
        ) / HandoffProcedure.mean_latency_s(HandoffKind.LTE_TO_LTE)
        assert 3.0 <= ratio <= 4.0

    def test_5g5g_includes_nr_release_and_readd(self):
        proc = HandoffProcedure.draw(HandoffKind.NR_TO_NR, np.random.default_rng(0))
        names = [name for name, _ in proc.step_latencies_s]
        assert any("release" in n for n in names)
        assert any("T-gNB" in n for n in names)

    def test_draw_total_near_mean(self):
        rng = np.random.default_rng(0)
        totals = [
            HandoffProcedure.draw(HandoffKind.NR_TO_NR, rng).total_latency_s
            for _ in range(300)
        ]
        assert np.mean(totals) == pytest.approx(0.1084, rel=0.05)

    def test_draw_has_spread(self):
        rng = np.random.default_rng(0)
        totals = [
            HandoffProcedure.draw(HandoffKind.LTE_TO_LTE, rng).total_latency_s
            for _ in range(100)
        ]
        assert np.std(totals) > 0.001

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            HandoffProcedure.draw("6G-7G", np.random.default_rng(0))

    def test_latencies_positive(self):
        rng = np.random.default_rng(1)
        for kind in HandoffKind.ALL:
            proc = HandoffProcedure.draw(kind, rng)
            assert all(latency > 0 for _, latency in proc.step_latencies_s)


class TestHandoffEngine:
    @pytest.fixture(scope="class")
    def campaign(self, campus, networks):
        nr, lte = networks
        rngf = RngFactory(42)
        walker = RouteWalker(campus, rngf.stream("walk"), speed_kmh=6.0)
        engine = HandoffEngine(nr, lte, rngf.stream("ho"), measurement_noise_db=2.5)
        return engine.run(walker.trajectory(900.0, dt_s=0.108))

    def test_produces_handoffs(self, campaign):
        assert len(campaign.events) >= 5

    def test_trace_covers_walk(self, campaign):
        assert campaign.trace[0].time_s == 0.0
        assert campaign.trace[-1].time_s == pytest.approx(900.0, abs=1.0)

    def test_5g5g_slower_than_4g4g(self, campaign):
        nr_events = campaign.events_of_kind(HandoffKind.NR_TO_NR)
        lte_events = campaign.events_of_kind(HandoffKind.LTE_TO_LTE)
        if nr_events and lte_events:
            nr_lat = np.mean([e.latency_s for e in nr_events])
            lte_lat = np.mean([e.latency_s for e in lte_events])
            assert nr_lat > 2.5 * lte_lat

    def test_outages_match_events(self, campaign):
        assert len(campaign.outages) == len(campaign.events)
        for (start, end), event in zip(campaign.outages, campaign.events):
            assert start == event.time_s
            assert end - start == pytest.approx(event.latency_s)

    def test_handoff_changes_cell(self, campaign):
        for e in campaign.events:
            if e.kind in (HandoffKind.NR_TO_NR, HandoffKind.LTE_TO_LTE):
                assert e.source_pci != e.target_pci

    def test_most_handoffs_gain_quality(self, campaign):
        # Fig. 5: most, but not all, hand-offs improve RSRQ by >3 dB.
        frac = rsrq_gain_cdf_fraction(campaign.events)
        assert 0.5 <= frac < 1.0

    def test_horizontal_dominate(self, campaign):
        assert campaign.horizontal_count > campaign.vertical_count

    def test_single_anchor_cell_while_riding_nr(self, campus, networks):
        """Regression: the anchor A3 check ran ``max`` over no neighbours."""
        nr, lte = networks
        anchor = RadioNetwork(
            lte.cells[:1],
            lte.profile,
            lte.environment,
            interference_activity=lte.interference_activity,
            interference_floor_dbm=lte.interference_floor_dbm,
        )
        rngf = RngFactory(42)
        walker = RouteWalker(campus, rngf.stream("walk"), speed_kmh=6.0)
        engine = HandoffEngine(nr, anchor, rngf.stream("ho"), measurement_noise_db=2.5)
        campaign = engine.run(walker.trajectory(30.0, dt_s=0.108))
        assert any(sample.rat == "5G" for sample in campaign.trace)
        assert len(campaign.trace) == 278
        assert not campaign.events_of_kind(HandoffKind.LTE_TO_LTE)


class TestGainFraction:
    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rsrq_gain_cdf_fraction([])

    def test_simple_fraction(self):
        events = [
            HandoffEvent(0.0, "4G-4G", 1, 2, 0.03, -15.0, -10.0),  # +5 dB
            HandoffEvent(1.0, "4G-4G", 2, 3, 0.03, -10.0, -12.0),  # -2 dB
        ]
        assert rsrq_gain_cdf_fraction(events) == 0.5
        assert events[0].rsrq_gain_db == pytest.approx(5.0)
