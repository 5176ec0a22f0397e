"""Hand-off deep dive: walk the campus and dissect NSA mobility (Sec. 3.4).

Renders the campus RSRP heatmap, runs a hand-off campaign, plots the
latency CDFs per hand-off kind, and compares against the projected SA
architecture — all in the terminal.

Run:
    python examples/handoff_explorer.py [walk_minutes]
"""

import sys
from collections import Counter

import numpy as np

from repro.analysis.plots import bar_chart, cdf_plot, heatmap
from repro.experiments import testbed
from repro.mobility import (
    HandoffEngine,
    HandoffKind,
    RouteWalker,
    rsrq_gain_cdf_fraction,
    sa_handoff_mean_latency_s,
)
from repro.radio.coverage import road_locations, survey_at_locations


def coverage_map(bed) -> None:
    print("Campus 5G RSRP map (paper Fig. 2a; darker = stronger):\n")
    locations = road_locations(bed.world, 1500, bed.rng_factory.stream("map"))
    points = survey_at_locations(bed.nr, locations)
    samples = [(p.location.x, p.location.y, p.rsrp_dbm) for p in points]
    print(heatmap(samples, bed.world.width_m, bed.world.height_m, cols=46, rows=20))


def handoff_campaign(bed, minutes: float):
    print(f"\nWalking the campus for {minutes:.0f} minutes collecting hand-offs...")
    walker = RouteWalker(bed.world, bed.rng_factory.stream("hx-walk"), speed_kmh=6.0)
    engine = HandoffEngine(bed.nr, bed.lte, bed.rng_factory.stream("hx-ho"),
                           measurement_noise_db=2.5)
    campaign = engine.run(walker.trajectory(minutes * 60.0, dt_s=0.108))
    counts = Counter(e.kind for e in campaign.events)
    print(f"collected {len(campaign.events)} hand-offs: {dict(counts)}")
    return campaign


def latency_cdfs(campaign) -> None:
    series = {}
    for kind in HandoffKind.ALL:
        events = campaign.events_of_kind(kind)
        if len(events) >= 3:
            series[kind] = [e.latency_s * 1000 for e in events]
    if series:
        print()
        print(cdf_plot(series, title="Hand-off latency CDFs (paper Fig. 6)", unit="ms"))
    if campaign.events:
        frac = rsrq_gain_cdf_fraction(campaign.events)
        print(f"\nHand-offs gaining >3 dB RSRQ: {frac:.0%} (paper: ~75%)")


def sa_comparison(campaign) -> None:
    nr_events = campaign.events_of_kind(HandoffKind.NR_TO_NR)
    if not nr_events:
        return
    nsa_ms = float(np.mean([e.latency_s for e in nr_events])) * 1000
    print()
    print(
        bar_chart(
            {
                "NSA 5G-5G (measured)": nsa_ms,
                "SA 5G-5G (projected)": sa_handoff_mean_latency_s() * 1000,
            },
            title="NSA vs SA hand-off latency",
            unit="ms",
        )
    )
    print(
        "\nThe NSA detour (release NR -> 4G anchor hand-off -> re-add NR)"
        " costs ~3.6x; SA's direct Xn hand-off erases it."
    )


def main(minutes: float = 15.0) -> None:
    bed = testbed(seed=7)
    coverage_map(bed)
    campaign = handoff_campaign(bed, minutes)
    latency_cdfs(campaign)
    sa_comparison(campaign)


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 15.0)
