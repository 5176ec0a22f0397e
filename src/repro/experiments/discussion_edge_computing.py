"""Discussion experiment: how much does mobile edge computing buy? (Sec. 8)

MEC moves the server behind the base station, eliminating the wireline
path — the component Fig. 15 shows dominating end-to-end latency.  This
experiment compares cloud-server paths at several distances against an
edge deployment, for both raw RTT and web page-load time.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import RadioProfile
from repro.core.results import ResultTable
from repro.core.rng import default_rng, derive
from repro.scenario import Scenario, resolve_scenario
from repro.apps.web import WEB_PAGE_CATALOG
from repro.experiments.common import DEFAULT_SEED
from repro.net.path import PathConfig, build_cellular_path
from repro.net.sim import Simulator

__all__ = ["EdgeComputingResult", "run"]

#: An edge server sits just behind the gNB: one short wired hop, no fiber.
_EDGE_DISTANCE_KM = 0.5
_CLOUD_DISTANCES_KM = (30.0, 500.0, 2000.0)


@dataclass(frozen=True)
class EdgeComputingResult:
    """RTT and PLT, edge vs cloud."""

    edge_rtt_ms: float
    cloud_rtt_ms: dict[float, float]
    edge_plt_s: float
    cloud_plt_s: float

    @property
    def rtt_saving_at(self) -> dict[float, float]:
        """Relative RTT saving of edge vs each cloud distance."""
        return {
            d: 1.0 - self.edge_rtt_ms / rtt for d, rtt in self.cloud_rtt_ms.items()
        }

    @property
    def meets_urllc_budget(self) -> bool:
        """Does the edge path meet the 10 ms interactive budget the NSA
        wide-area paths miss (Sec. 4.4)?"""
        return self.edge_rtt_ms / 2.0 <= 10.0

    def table(self) -> ResultTable:
        """Render the comparison as a text table."""
        table = ResultTable(
            "Sec. 8 — mobile edge computing",
            ["deployment", "RTT (ms)", "one-way (ms)"],
        )
        table.add_row(
            ["edge (behind gNB)", f"{self.edge_rtt_ms:.1f}", f"{self.edge_rtt_ms / 2:.1f}"]
        )
        for distance, rtt in self.cloud_rtt_ms.items():
            table.add_row([f"cloud @ {distance:.0f} km", f"{rtt:.1f}", f"{rtt / 2:.1f}"])
        return table


def _path_rtt_ms(
    profile: RadioProfile,
    distance_km: float,
    wired_hops: int,
    rng: np.random.Generator,
) -> float:
    config = PathConfig(
        profile=profile,
        server_distance_km=distance_km,
        wired_hops=wired_hops,
        with_scheduling_stalls=False,
    )
    path = build_cellular_path(Simulator(), config, rng)
    return path.base_rtt_s * 1000


def run(
    seed: int = DEFAULT_SEED, scenario: Scenario | str | None = None
) -> EdgeComputingResult:
    """Compare the edge deployment against cloud servers."""
    nr = resolve_scenario(scenario).radio.nr
    rng = default_rng(seed)
    edge_rtt = _path_rtt_ms(nr, _EDGE_DISTANCE_KM, wired_hops=1, rng=derive(rng))
    cloud_rtt = {
        d: _path_rtt_ms(nr, d, wired_hops=int(6 + min(10, d / 350.0)), rng=derive(rng))
        for d in _CLOUD_DISTANCES_KM
    }
    page = WEB_PAGE_CATALOG[0]
    edge_page_plt = _plt_at_distance(page, nr, _EDGE_DISTANCE_KM, 1, seed)
    cloud_page_plt = _plt_at_distance(page, nr, 2000.0, 12, seed)
    return EdgeComputingResult(
        edge_rtt_ms=edge_rtt,
        cloud_rtt_ms=cloud_rtt,
        edge_plt_s=edge_page_plt,
        cloud_plt_s=cloud_page_plt,
    )


def _plt_at_distance(
    page, profile: RadioProfile, distance_km: float, hops: int, seed: int
) -> float:
    from repro.transport.base import TcpConnection
    from repro.transport.iperf import make_cc

    scale = 0.1
    config = PathConfig(
        profile=profile,
        server_distance_km=distance_km,
        wired_hops=hops,
        scale=scale,
    )
    sim = Simulator()
    path = build_cellular_path(sim, config, default_rng(seed))
    cc = make_cc("bbr", config.mss_bytes, rate_scale=scale)
    transfer = max(int(page.size_bytes * scale), config.mss_bytes)
    conn = TcpConnection.establish(sim, path, cc, transfer_bytes=transfer)
    return conn.run_to_completion(timeout_s=120.0) + page.render_time_s
