"""Build and publish a measurement dataset, like the paper's GitHub release.

Runs a compact measurement campaign (coverage survey, KPI drive test with
hand-offs, a TCP/UDP session, an energy timeline) and writes everything as
CSV/JSON with a manifest.

Run:
    python examples/build_dataset.py [output_dir]
"""

import sys

from repro.analysis.drive_test import DriveTester
from repro.analysis.release import DatasetRelease
from repro.core import NR_PROFILE
from repro.energy import WEB_CAPACITIES, simulate_nr_nsa, web_browsing_trace
from repro.experiments import testbed
from repro.mobility import RouteWalker
from repro.net import PathConfig
from repro.radio.coverage import road_locations, survey_at_locations
from repro.transport import run_tcp, run_udp


def main(output_dir: str = "dataset") -> None:
    bed = testbed(seed=7)
    release = DatasetRelease("operational_5g_repro")

    print("1/4 coverage survey...")
    locations = road_locations(bed.world, 400, bed.rng_factory.stream("release"))
    release.add_coverage_survey("campus_5g", survey_at_locations(bed.nr, locations))
    release.add_coverage_survey("campus_4g", survey_at_locations(bed.lte, locations))

    print("2/4 KPI drive test (3 min walk)...")
    walker = RouteWalker(bed.world, bed.rng_factory.stream("release-walk"))
    tester = DriveTester(bed.nr, bed.lte, walker, bed.rng_factory.stream("release-ho"))
    release.add_drive_test("walk1", tester.run(duration_s=180.0))

    print("3/4 transport sessions...")
    config = PathConfig(profile=NR_PROFILE, scale=0.05)
    capacity = config.access_rate_bps() * config.scale
    release.add_tcp_run("5g_cubic", run_tcp(config, "cubic", duration_s=15.0, seed=7,
                                            baseline_bps=capacity))
    release.add_udp_run("5g_halfload", run_udp(config, capacity * 0.5, duration_s=10.0, seed=7))

    print("4/4 energy timeline...")
    release.add_energy_timeline("web_nsa", simulate_nr_nsa(
        web_browsing_trace(rng=bed.rng_factory.stream("web")), WEB_CAPACITIES
    ))

    root = release.write(output_dir)
    print(f"\nDataset written to {root}/")
    for path in sorted(root.iterdir()):
        print(f"  {path.name:35s} {path.stat().st_size:>9} bytes")


if __name__ == "__main__":
    main(sys.argv[1] if len(sys.argv) > 1 else "dataset")
