"""Tests for the web browsing application model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import instruments
from repro.apps.web import WEB_PAGE_CATALOG, WebPage, image_page, measure_plt
from repro.audit.core import Auditor
from repro.core import LTE_PROFILE, NR_PROFILE
from repro.core.rng import default_rng
from repro.core.units import MB
from repro.net import sim as sim_module
from repro.net.path import PathConfig, build_cellular_path
from repro.net.sim import Simulator
from repro.trace import Tracer
from repro.transport.base import TcpConnection
from repro.transport.iperf import make_cc


class TestWebPage:
    def test_catalog_has_five_categories(self):
        categories = [p.category for p in WEB_PAGE_CATALOG]
        assert categories == ["search", "image", "shopping", "map", "video"]

    def test_render_time_grows_with_size(self):
        small = WebPage("t", int(1 * MB), 0.2, 0.1, 4)
        large = WebPage("t", int(8 * MB), 0.2, 0.1, 4)
        assert large.render_time_s > small.render_time_s

    def test_image_page_sizes(self):
        assert image_page(4.0).size_bytes == 4 * MB

    def test_image_page_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            image_page(0.0)

    @given(st.floats(min_value=0.5, max_value=32.0))
    @settings(max_examples=20)
    def test_render_time_positive(self, size_mb):
        assert image_page(size_mb).render_time_s > 0


class TestMeasurePlt:
    def test_download_plus_render(self):
        plt = measure_plt(WEB_PAGE_CATALOG[0], NR_PROFILE, seed=3)
        assert plt.total_s == pytest.approx(plt.download_s + plt.render_s)
        assert plt.download_s > 0
        assert plt.render_s > 0

    def test_5g_downloads_faster(self):
        page = image_page(16.0)
        p5 = measure_plt(page, NR_PROFILE, seed=3)
        p4 = measure_plt(page, LTE_PROFILE, seed=3)
        assert p5.download_s < p4.download_s

    def test_render_is_network_independent(self):
        page = WEB_PAGE_CATALOG[2]
        p5 = measure_plt(page, NR_PROFILE, seed=3)
        p4 = measure_plt(page, LTE_PROFILE, seed=3)
        assert p5.render_s == p4.render_s

    def test_bigger_page_longer_plt(self):
        small = measure_plt(image_page(1.0), NR_PROFILE, seed=3)
        big = measure_plt(image_page(16.0), NR_PROFILE, seed=3)
        assert big.total_s > small.total_s

    def test_5g_gain_far_below_capacity_ratio(self):
        # The headline: 5x the bandwidth, nowhere near 5x faster pages.
        page = WEB_PAGE_CATALOG[0]
        p5 = measure_plt(page, NR_PROFILE, seed=3)
        p4 = measure_plt(page, LTE_PROFILE, seed=3)
        assert p4.total_s / p5.total_s < 2.0

    def test_deterministic_given_seed(self):
        page = WEB_PAGE_CATALOG[1]
        a = measure_plt(page, NR_PROFILE, seed=5)
        b = measure_plt(page, NR_PROFILE, seed=5)
        assert a.download_s == b.download_s


class TestPageLoadStops:
    """A page load ends at the ACK that completes its download."""

    PAGE = WEB_PAGE_CATALOG[0]
    SEED = 3

    def _connection(self):
        """The connection ``measure_plt(PAGE, NR_PROFILE, seed=SEED)`` builds."""
        config = PathConfig(profile=NR_PROFILE, scale=0.1)
        sim = Simulator()
        path = build_cellular_path(sim, config, default_rng(self.SEED))
        cc = make_cc("bbr", config.mss_bytes, rate_scale=0.1)
        transfer = max(int(self.PAGE.size_bytes * 0.1), config.mss_bytes)
        return sim, TcpConnection.establish(sim, path, cc, transfer_bytes=transfer)

    def test_no_event_runs_after_the_completing_ack(self):
        # The same load run on to the timeout, traced: count the dispatches
        # before the one whose ACK completes the download.
        tracer = Tracer()
        with instruments.using(tracer=tracer):
            sim, conn = self._connection()
            before = []
            conn.sender.on_complete = lambda: before.append(len(tracer.spans("sim.dispatch")))
            conn.start()
            sim.run(until=120.0)
        completed_s = conn.sender.completed_at
        assert len(tracer.spans("sim.dispatch")) > before[0] + 1  # the radio stalls ran on

        sim, conn = self._connection()
        assert conn.run_to_completion(timeout_s=120.0) == completed_s
        assert sim.now == completed_s
        assert sim.counters().executed == before[0] + 1

        executed_before = sim_module.global_counters().executed
        plt = measure_plt(self.PAGE, NR_PROFILE, seed=self.SEED)
        assert sim_module.global_counters().executed - executed_before == before[0] + 1
        assert plt.download_s > completed_s  # plus the request round trips

    def test_a_load_past_an_rto_ends_with_balanced_books(self):
        # This load takes one RTO; its go-back-N rollback leaves next_seq
        # behind bytes that the completing ACK covers, and the run ends there.
        auditor = Auditor()
        with instruments.using(auditor=auditor):
            measure_plt(image_page(16.0), LTE_PROFILE, seed=4)
            auditor.checkpoint("run-end")
        auditor.assert_clean("16 MB image page over 4G")

    def test_timeout_still_raises(self):
        with pytest.raises(RuntimeError, match="did not complete within 0.05s"):
            measure_plt(self.PAGE, NR_PROFILE, seed=self.SEED, timeout_s=0.05)
