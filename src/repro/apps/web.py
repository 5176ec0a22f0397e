"""Mobile web browsing: page-load-time measurement (Sec. 5.1).

PLT decomposes into content download and page rendering.  Download runs
as a real (simulated) TCP transfer, so TCP's transient behaviour — the
seconds-long ramp toward a multi-hundred-Mbps bandwidth — is what limits
it, exactly the paper's finding: most pages finish before TCP converges,
so 5G's 5x capacity only buys ~20% faster downloads (Fig. 16/17).
Rendering is a device-side cost independent of the network.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.config import RadioProfile
from repro.core.units import MB
from repro.core.rng import default_rng
from repro.net.path import PathConfig, build_cellular_path
from repro.net.sim import Simulator
from repro.transport.base import TcpConnection
from repro.transport.iperf import make_cc

__all__ = ["WebPage", "PltBreakdown", "WEB_PAGE_CATALOG", "measure_plt", "image_page"]


@dataclass(frozen=True)
class WebPage:
    """A page model: transfer size plus a rendering-cost profile.

    Attributes:
        category: Paper's page category (search/image/shopping/map/video).
        size_bytes: Total content bytes fetched.
        base_render_s: Fixed parse/layout cost on the test device.
        render_s_per_mb: Incremental raster/layout cost per content MB.
        num_objects: Distinct resources on the page; each fetch chain costs
            a request round-trip plus server think time, amortized over
            HTTP/2's six concurrent streams.
    """

    category: str
    size_bytes: int
    base_render_s: float
    render_s_per_mb: float
    num_objects: int = 1

    @property
    def render_time_s(self) -> float:
        """Device-side rendering time — network-independent."""
        return self.base_render_s + self.render_s_per_mb * self.size_bytes / MB


#: The five site categories of Fig. 16 with representative page weights.
WEB_PAGE_CATALOG: tuple[WebPage, ...] = (
    WebPage("search", int(0.6 * MB), 0.30, 0.10, num_objects=24),
    WebPage("image", int(3.0 * MB), 0.35, 0.12, num_objects=16),
    WebPage("shopping", int(4.5 * MB), 0.80, 0.14, num_objects=64),
    WebPage("map", int(6.0 * MB), 1.10, 0.16, num_objects=48),
    WebPage("video", int(8.0 * MB), 0.70, 0.12, num_objects=30),
)

#: Server think time per object fetch chain.
_SERVER_THINK_S = 0.030
#: Concurrent HTTP/2 streams.
_PARALLEL_FETCHES = 6


def image_page(size_mb: float) -> WebPage:
    """An image page of ``size_mb`` MB (the Fig. 17 sweep)."""
    if size_mb <= 0:
        raise ValueError(f"page size must be positive, got {size_mb}")
    return WebPage("image", int(size_mb * MB), 0.15, 0.09, num_objects=8)


@dataclass(frozen=True)
class PltBreakdown:
    """Page load time split into its two phases (Fig. 16/17 bars)."""

    download_s: float
    render_s: float

    @property
    def total_s(self) -> float:
        """Total page load time: download plus render."""
        return self.download_s + self.render_s


def measure_plt(
    page: WebPage,
    profile: RadioProfile,
    algorithm: str = "bbr",
    scale: float = 0.1,
    seed: int = 1,
    timeout_s: float = 120.0,
) -> PltBreakdown:
    """Load ``page`` over a fresh TCP connection and measure the PLT.

    The transfer size is scaled together with the link rates so the
    download *time* is scale-invariant; caches and cookies are implicitly
    cold because every call builds a fresh connection (the paper clears
    them before each trial).  The simulation ends at the ACK that
    completes the download.

    Raises:
        RuntimeError: if the download is not complete at ``timeout_s``.
    """
    config = PathConfig(profile=profile, scale=scale)
    sim = Simulator()
    path = build_cellular_path(sim, config, default_rng(seed))
    cc = make_cc(algorithm, config.mss_bytes, rate_scale=scale)
    transfer = max(int(page.size_bytes * scale), config.mss_bytes)
    conn = TcpConnection.establish(sim, path, cc, transfer_bytes=transfer)
    completed_s = conn.run_to_completion(timeout_s)
    chains = -(-page.num_objects // _PARALLEL_FETCHES)
    request_overhead = chains * (path.base_rtt_s + _SERVER_THINK_S)
    return PltBreakdown(
        download_s=completed_s + request_overhead,
        render_s=page.render_time_s,
    )
