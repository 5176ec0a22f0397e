"""Tests for the drive-test workflow and the dataset release builder."""


import pytest

from repro.analysis import DatasetRelease, DriveTester
from repro.analysis.dataset import read_csv, read_json
from repro.core import NR_PROFILE
from repro.energy import WEB_CAPACITIES, simulate_lte, web_browsing_trace
from repro.experiments import testbed as make_testbed
from repro.mobility import RouteWalker
from repro.net import PathConfig
from repro.radio.coverage import road_locations, survey_at_locations
from repro.transport import run_tcp, run_udp


@pytest.fixture(scope="module")
def drive_result():
    bed = make_testbed(seed=13)
    walker = RouteWalker(bed.world, bed.rng_factory.stream("dt-walk"))
    tester = DriveTester(bed.nr, bed.lte, walker, bed.rng_factory.stream("dt"))
    return tester.run(duration_s=30.0, report_interval_s=0.5)


class TestDriveTester:
    def test_both_networks_logged(self, drive_result):
        assert drive_result.kpi_count("5G") == drive_result.kpi_count("4G")
        assert drive_result.kpi_count() == drive_result.kpi_count("5G") * 2

    def test_sample_rate(self, drive_result):
        # 30 s at 0.5 s intervals: 61 reports per network.
        assert drive_result.kpi_count("5G") == 61

    def test_kpis_plausible(self, drive_result):
        for sample in drive_result.kpis.samples("5G"):
            assert -140.0 <= sample.rsrp_dbm <= -30.0
            assert 0 <= sample.cqi <= 15
            assert sample.prb_granted <= NR_PROFILE.num_prb
            assert sample.bit_rate_bps >= 0

    def test_handoff_log_attached(self, drive_result):
        assert drive_result.handoffs is not None

    def test_validation(self):
        bed = make_testbed(seed=13)
        walker = RouteWalker(bed.world, bed.rng_factory.stream("dt2"))
        tester = DriveTester(bed.nr, bed.lte, walker, bed.rng_factory.stream("dt2r"))
        with pytest.raises(ValueError):
            tester.run(duration_s=0.0)


class TestDatasetRelease:
    def test_full_release_roundtrip(self, tmp_path, drive_result):
        bed = make_testbed(seed=13)
        release = DatasetRelease("unit_test_release")
        locations = road_locations(bed.world, 30, bed.rng_factory.stream("rel"))
        points = survey_at_locations(bed.nr, locations)
        release.add_coverage_survey("survey", points)
        release.add_drive_test("walk", drive_result)

        config = PathConfig(profile=NR_PROFILE, scale=0.02)
        capacity = config.access_rate_bps() * config.scale
        release.add_tcp_run("tcp", run_tcp(config, "cubic", duration_s=3.0, seed=1,
                                           baseline_bps=capacity))
        release.add_udp_run("udp", run_udp(config, capacity * 0.5, duration_s=2.0, seed=1))
        release.add_energy_timeline("web", simulate_lte(web_browsing_trace(num_pages=2, rng=bed.rng_factory.stream("web")),
                                                        WEB_CAPACITIES))

        root = release.write(tmp_path)
        manifest = read_json(root / "MANIFEST.json")
        assert manifest["name"] == "unit_test_release"
        for filename, meta in manifest["files"].items():
            if meta.get("rows") == 0:
                continue  # empty traces are manifest-only
            assert (root / filename).exists()
            if meta["kind"] == "csv":
                assert len(read_csv(root / filename)) == meta.get("rows")

        survey_rows = read_csv(root / "coverage_survey.csv")
        assert len(survey_rows) == 30
        assert {"x_m", "y_m", "pci", "rsrp_dbm"} <= set(survey_rows[0])

    def test_empty_release_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            DatasetRelease("empty").write(tmp_path)

    def test_unnamed_release_rejected(self):
        with pytest.raises(ValueError):
            DatasetRelease("")

    def test_tcp_json_fields(self, tmp_path):
        config = PathConfig(profile=NR_PROFILE, scale=0.02)
        capacity = config.access_rate_bps() * config.scale
        release = DatasetRelease("tcp_only")
        release.add_tcp_run("x", run_tcp(config, "bbr", duration_s=2.0, seed=1,
                                         baseline_bps=capacity))
        root = release.write(tmp_path)
        payload = read_json(root / "tcp_x.json")
        assert payload["algorithm"] == "bbr"
        assert payload["throughput_bps"] > 0
