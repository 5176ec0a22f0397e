"""Coverage survey: walk the campus and map both networks (Sec. 3).

Reproduces the paper's blanket road survey: RSRP distributions, coverage
holes, the single-cell service radius and the indoor/outdoor gap.

Run:
    python examples/coverage_survey.py [num_points]
"""

import sys

from repro.core import ResultTable, percent, summarize
from repro.experiments import testbed
from repro.radio import coverage_radius_m, indoor_outdoor_gap
from repro.radio.coverage import (
    coverage_hole_fraction,
    road_locations,
    rsrp_distribution,
    survey_at_locations,
)


def main(num_points: int = 800) -> None:
    bed = testbed(seed=7)
    locations = road_locations(bed.world, num_points, bed.rng_factory.stream("example"))

    table = ResultTable(
        f"Blanket survey over {num_points} road locations",
        ["metric", "4G", "5G"],
    )
    nr_points = survey_at_locations(bed.nr, locations)
    lte_points = survey_at_locations(bed.lte, locations)
    table.add_row(
        [
            "RSRP mean ± std (dBm)",
            str(summarize(p.rsrp_dbm for p in lte_points)),
            str(summarize(p.rsrp_dbm for p in nr_points)),
        ]
    )
    table.add_row(
        [
            "coverage holes (< -105 dBm)",
            percent(coverage_hole_fraction(lte_points)),
            percent(coverage_hole_fraction(nr_points)),
        ]
    )
    table.add_row(
        [
            "LoS service radius (m)",
            f"{coverage_radius_m(bed.lte, 200):.0f}",
            f"{coverage_radius_m(bed.nr, 72):.0f}",
        ]
    )
    print(table.render())

    print("\nRSRP histogram (5G):")
    for (lo, hi), count, frac in reversed(rsrp_distribution(nr_points)):
        bar = "#" * int(frac * 60)
        print(f"  [{lo:5.0f}, {hi:5.0f})  {percent(frac):>7s}  {bar}")

    gap = indoor_outdoor_gap(bed.nr, bed.world, 72, 40, bed.rng_factory.stream("io"))
    print(
        f"\nIndoor/outdoor near cell 72: outdoor {gap.mean_outdoor_bps / 1e6:.0f} Mbps"
        f" -> indoor {gap.mean_indoor_bps / 1e6:.0f} Mbps"
        f" ({percent(gap.drop_fraction)} drop; paper: 50.59%)"
    )


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 800)
