"""End-to-end path construction: UE - RAN - core - wireline - server.

The path model encodes the paper's delay breakdown (Sec. 4.4):

* the radio hop contributes ~1.1 ms each way on 5G vs ~1.3 ms on 4G —
  a negligible difference (Fig. 14, hop 1);
* the gNB-to-core segment is where 5G wins: the flattened core and
  dedicated 25 Gbps fronthaul/backhaul cut ~10 ms each way vs the 4G EPC
  path (Fig. 14, hop 2);
* the wireline Internet dominates: per-hop router latency plus fiber
  propagation grows with geographical distance and swamps 5G's edge
  advantage at long range (Fig. 15);
* router buffers in the wireline segment are the loss bottleneck
  (Tab. 3): the 5G-era paths have only ~2.5x the buffer of 4G paths
  against a 5x capacity jump.

Rates can be scaled down uniformly (``scale``) to keep packet-level
simulation tractable; buffers scale along so queueing dynamics
(buffer/BDP ratios, loss patterns, utilization) are preserved.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.config import RadioProfile
from repro.core.rng import derive
from repro.net.link import CrossTraffic, DelayProcess, Link
from repro.net.packet import Packet
from repro.net.sim import Simulator
from repro.qdisc import AutorateController, CakeQueue, RemedySection, make_qdisc
from repro.radio.phy import TRANSPORT_EFFICIENCY, max_phy_bit_rate

__all__ = [
    "PathConfig",
    "NetworkPath",
    "build_cellular_path",
    "build_split_paths",
    "segment_delays_s",
]

#: One-way radio-access latency (Sec. 4.4: RTT 2.19 ms on 5G, 2.6 ms on 4G).
_RAN_DELAY_S = {5: 0.0011, 4: 0.0013}

#: One-way RAN-to-core latency: 5G's flat architecture + 25 Gbps fiber
#: vs the legacy 4G EPC detour (Fig. 14 hop-2 reduction of ~20 ms RTT).
_CORE_DELAY_S = {5: 0.0010, 4: 0.0110}

#: Wireline router hop latency (processing + queueing headroom), one way.
_WIRED_HOP_DELAY_S = 0.0015

#: Effective fiber propagation including route stretch, s/km one way.
_FIBER_S_PER_KM = 8.0e-6

#: Wireline bottleneck capacity of the provisioned core path.
_WIRED_RATE_BPS = 1.1e9

#: Router buffers along the path, in 1500 B packets at scale 1.0 (Tab. 3:
#: the 5G path holds ~2.5x the 4G path's buffer while carrying 5x the
#: capacity — the structural mismatch behind the TCP anomaly).
_WIRED_BUFFER_PKTS = {5: 500, 4: 200}
_RAN_BUFFER_PKTS = {5: 2000, 4: 1200}

#: Radio scheduling stalls: the TDD frame structure, HARQ round trips and
#: scheduler queueing delay the access link in bursts of a few
#: milliseconds, inflating RTT samples independent of congestion — the
#: cellular property that defeats delay-based congestion control.
_STALL_MEAN_INTERVAL_S = 0.050
_STALL_MIN_S = 0.002
_STALL_MAX_S = 0.010

#: Background load on the shared wireline segment.  The measured paths
#: cross the public Internet, so the bottleneck router sees heavy bursty
#: aggregates unrelated to the probe flow.
_CROSS_BURST_FRACTION = 0.98
_CROSS_MEAN_ON_S = 0.012
_CROSS_MEAN_OFF_S = 0.108


@dataclass(frozen=True)
class PathConfig:
    """Parameters of one end-to-end measurement path."""

    profile: RadioProfile
    direction: str = "dl"
    time_of_day: str = "day"
    server_distance_km: float = 30.0
    wired_hops: int = 4
    scale: float = 1.0
    with_cross_traffic: bool = True
    with_scheduling_stalls: bool = True
    rwnd_bytes: int = 25 * 1024 * 1024  # paper sets a 25 MB receive buffer
    mss_bytes: int = 1448
    remedy: RemedySection = RemedySection()

    def __post_init__(self) -> None:
        if self.direction not in ("dl", "ul"):
            raise ValueError(f"direction must be 'dl' or 'ul', got {self.direction!r}")
        if self.time_of_day not in ("day", "night"):
            raise ValueError(f"time_of_day must be 'day'/'night', got {self.time_of_day!r}")
        if not 0.0 < self.scale <= 1.0:
            raise ValueError(f"scale must be in (0, 1], got {self.scale}")
        if self.wired_hops < 1:
            raise ValueError(f"need at least one wired hop, got {self.wired_hops}")

    def access_rate_bps(self) -> float:
        """UDP-visible radio capacity for this direction and time of day.

        When scheduling stalls are enabled the serializer rate is raised to
        compensate for the stalled airtime, so the *delivered* capacity
        stays at the calibrated UDP baseline.
        """
        phy = max_phy_bit_rate(self.profile, self.direction)
        rate = phy * TRANSPORT_EFFICIENCY * self._mean_prb_fraction()
        if self.with_scheduling_stalls:
            stall_mean = (_STALL_MIN_S + _STALL_MAX_S) / 2.0
            duty = stall_mean / (_STALL_MEAN_INTERVAL_S + stall_mean)
            rate /= 1.0 - duty
        return rate

    def _mean_prb_fraction(self) -> float:
        from repro.radio.phy import PrbAllocator

        # The mean PRB share is deterministic: no generator needed (the
        # old seed-0 generator here silently froze nothing — but it read
        # as a randomness source and masked real seeding bugs).
        allocator = PrbAllocator(self.profile)
        return allocator.mean_fraction(self.time_of_day)


class NetworkPath:
    """A built path: data links one way, ACK links the other.

    ``forward`` carries the measured flow (direction per config);
    ``reverse`` carries acknowledgements.
    """

    def __init__(
        self,
        sim: Simulator,
        config: PathConfig,
        forward: list[Link],
        reverse: list[Link],
        access_link: Link,
        wired_link: Link,
        access_gate: _PauseGate | None = None,
    ) -> None:
        self.sim = sim
        self.config = config
        self.forward = forward
        self.reverse = reverse
        self.access_link = access_link
        self.wired_link = wired_link
        # Shared with the radio's stall process, when it has one.
        self._access_gate = access_gate if access_gate is not None else _PauseGate(access_link)
        #: Closed-loop shaper controller, when the remedy arms one.
        self.autorate: AutorateController | None = None
        self._forward_sink = None
        self._reverse_sink = None
        # Chain the links; the last link of each direction feeds the sink.
        for upstream, downstream in zip(forward, forward[1:]):
            upstream.connect(downstream.send)
        for upstream, downstream in zip(reverse, reverse[1:]):
            upstream.connect(downstream.send)
        forward[-1].connect(self._deliver_forward)
        reverse[-1].connect(self._deliver_reverse)

    def on_forward_delivery(self, sink) -> None:
        """Register the receiver-side packet handler."""
        self._forward_sink = sink

    def on_reverse_delivery(self, sink) -> None:
        """Register the sender-side (ACK) packet handler."""
        self._reverse_sink = sink

    def send_forward(self, packet: Packet) -> None:
        """Inject a packet at the data-direction head."""
        self.forward[0].send(packet)

    def send_reverse(self, packet: Packet) -> None:
        """Inject a packet at the ACK-direction head."""
        self.reverse[0].send(packet)

    def _deliver_forward(self, packet: Packet) -> None:
        if self._forward_sink is not None:
            self._forward_sink(packet)

    def _deliver_reverse(self, packet: Packet) -> None:
        if self._reverse_sink is not None:
            self._reverse_sink(packet)

    @property
    def bottleneck_rate_bps(self) -> float:
        """Nominal (cross-traffic-free) bottleneck of the data direction."""
        return min(link.rate_bps for link in self.forward)

    @property
    def base_rtt_s(self) -> float:
        """Propagation + per-hop RTT with empty queues."""
        return sum(l.delay_s for l in self.forward) + sum(l.delay_s for l in self.reverse)

    def total_forward_drops(self) -> int:
        """Drops accumulated across the data-direction queues."""
        return sum(link.queue.drops for link in self.forward)

    def schedule_access_outage(self, start_s: float, duration_s: float) -> None:
        """Pause the radio link for a hand-off gap (Sec. 4.3).

        The link stays paused for the whole gap, whatever scheduling
        stalls begin or end inside it.
        """
        if duration_s < 0:
            raise ValueError(f"outage duration must be >= 0, got {duration_s}")
        self.sim.schedule_at(start_s, self._access_gate.hold)
        self.sim.schedule_at(start_s + duration_s, self._access_gate.release)

    def hop_rtts_s(self, rng: np.random.Generator, jitter_s: float = 0.0003) -> list[float]:
        """Per-hop probe RTTs as traceroute would report them (Fig. 14).

        Hop ``i``'s RTT is twice the cumulative one-way delay through the
        first ``i`` forward links, plus per-probe jitter.
        """
        rtts = []
        cumulative = 0.0
        for link in self.forward:
            cumulative += link.delay_s + 60 * 8 / link.rate_bps
            rtts.append(2.0 * cumulative + abs(float(rng.normal(0.0, jitter_s))))
        return rtts


def segment_delays_s(
    generation: int, server_distance_km: float, wired_hops: int = 6
) -> list[float]:
    """One-way delay of each hop along the path, RAN first (Fig. 14 model).

    The RAN and core hops use the per-generation constants; the fiber
    propagation to the server is spread across the wired hops, each of
    which also adds its router latency.
    """
    if wired_hops < 1:
        raise ValueError(f"need at least one wired hop, got {wired_hops}")
    if server_distance_km < 0:
        raise ValueError(f"distance must be >= 0, got {server_distance_km}")
    fiber_per_hop = _FIBER_S_PER_KM * server_distance_km / wired_hops
    delays = [_RAN_DELAY_S[generation], _CORE_DELAY_S[generation]]
    delays.extend(_WIRED_HOP_DELAY_S + fiber_per_hop for _ in range(wired_hops))
    return delays


class _PauseGate:
    """Keeps a link paused while a scheduling stall or a hand-off outage holds it.

    ``Link.pause``/``resume`` are idempotent rather than counted, so a
    stall ending inside an outage would otherwise resume the link early.
    The gate pauses the link at the first hold and resumes it when the
    last one is released.
    """

    def __init__(self, link: Link) -> None:
        self._link = link
        self._holds = 0

    def hold(self) -> None:
        self._holds += 1
        if self._holds == 1:
            self._link.pause()

    def release(self) -> None:
        self._holds -= 1
        if self._holds == 0:
            self._link.resume()


class _StallProcess:
    """Periodically holds a link's pause gate to emulate radio scheduling stalls.

    Self-terminates after ``horizon_s`` so that ``Simulator.run()`` without
    an explicit end time still drains (no experiment runs that long).
    """

    def __init__(
        self,
        sim: Simulator,
        gate: _PauseGate,
        rng: np.random.Generator,
        horizon_s: float = 3600.0,
    ) -> None:
        self._sim = sim
        self._gate = gate
        self._rng = rng
        self._horizon_s = horizon_s
        self._schedule_next()

    def _schedule_next(self) -> None:
        if self._sim.now >= self._horizon_s:
            return
        gap = float(self._rng.exponential(_STALL_MEAN_INTERVAL_S))
        self._sim.schedule(gap, self._stall)

    def _stall(self) -> None:
        duration = float(self._rng.uniform(_STALL_MIN_S, _STALL_MAX_S))
        self._gate.hold()
        self._sim.schedule(duration, self._unstall)

    def _unstall(self) -> None:
        self._gate.release()
        self._schedule_next()


def _build_links(
    sim: Simulator, config: PathConfig, rng: np.random.Generator
) -> tuple[Link, Link, Link, float, _PauseGate]:
    """The wired bottleneck, core and radio-access links, the ACK rate and
    the radio link's pause gate.

    Also starts the radio's scheduling-stall process on that gate.
    Construction order is fixed: it orders the audit watches and the
    ``derive(rng)`` draws.
    """
    generation = config.profile.generation
    scale = config.scale

    access_rate = config.access_rate_bps() * scale
    wired_rate = _WIRED_RATE_BPS * scale

    wired_delay = (
        _WIRED_HOP_DELAY_S * config.wired_hops
        + _FIBER_S_PER_KM * config.server_distance_km
    )
    cross = (
        CrossTraffic(
            rng,
            burst_fraction=_CROSS_BURST_FRACTION,
            mean_on_s=_CROSS_MEAN_ON_S,
            mean_off_s=_CROSS_MEAN_OFF_S,
        )
        if config.with_cross_traffic
        else None
    )

    remedy = config.remedy
    wired_buffer = max(8, int(_WIRED_BUFFER_PKTS[generation] * scale))
    ran_buffer = max(8, int(_RAN_BUFFER_PKTS[generation] * scale))
    if remedy.wired_buffer_ratio != 1.0:
        # cap += int(cap * (ratio - 1)), not int(cap * ratio): the
        # buffer-sizing ablation's results depend on this rounding.  The
        # core buffer follows at 4x, but the core serves at 4x the wired
        # rate right behind it, so its queue never holds over one packet.
        wired_buffer += int(wired_buffer * (remedy.wired_buffer_ratio - 1.0))

    wired_qdisc = (
        make_qdisc(remedy, wired_buffer, wired_rate)
        if remedy.apply_to in ("wired", "both")
        else None
    )
    access_qdisc = (
        make_qdisc(remedy, ran_buffer, access_rate)
        if remedy.apply_to in ("access", "both")
        else None
    )

    wired = Link(
        sim,
        wired_rate,
        wired_delay,
        queue_capacity_packets=wired_buffer,
        name="wired-bottleneck",
        cross_traffic=cross,
        qdisc=wired_qdisc,
    )
    core = Link(
        sim,
        wired_rate * 4,
        _CORE_DELAY_S[generation],
        queue_capacity_packets=wired_buffer * 4,
        name="core",
    )
    access = Link(
        sim,
        access_rate,
        _RAN_DELAY_S[generation],
        queue_capacity_packets=ran_buffer,
        name="radio-access",
        delay_process=DelayProcess(derive(rng))
        if config.with_scheduling_stalls
        else None,
        qdisc=access_qdisc,
    )

    access_gate = _PauseGate(access)
    if config.with_scheduling_stalls:
        _StallProcess(sim, access_gate, derive(rng))
    return wired, core, access, max(access_rate, wired_rate), access_gate


def _ack_links(sim: Simulator, forward: list[Link], ack_rate_bps: float) -> list[Link]:
    """Lightly loaded links carrying ACKs back along ``forward``."""
    return [
        Link(
            sim,
            ack_rate_bps,
            link.delay_s,
            queue_capacity_packets=100_000,
            name=f"ack-{link.name}",
        )
        for link in reversed(forward)
    ]


def build_cellular_path(
    sim: Simulator,
    config: PathConfig,
    rng: np.random.Generator,
) -> NetworkPath:
    """Construct the full UE-to-server path for one measurement flow.

    The data direction runs: wired hops (server side) -> core segment ->
    radio access -> UE for downlink, and the mirror image for uplink.
    Acknowledgements flow the other way over lightly-loaded links.

    ``rng`` drives cross-traffic bursts and radio scheduling stalls; it
    is required (no hidden seed-0 fallback) so every path built in a
    campaign inherits the campaign seed — thread one in from
    :func:`repro.core.rng.default_rng` or an ``RngFactory`` stream.
    """
    wired, core, access, ack_rate, access_gate = _build_links(sim, config, rng)
    forward = [wired, core, access] if config.direction == "dl" else [access, core, wired]
    path = NetworkPath(
        sim, config, forward, _ack_links(sim, forward, ack_rate),
        access_link=access, wired_link=wired, access_gate=access_gate,
    )
    path.autorate = _arm_autorate(sim, config.remedy, wired, access)
    return path


def _arm_autorate(
    sim: Simulator, remedy: RemedySection, wired: Link, access: Link
) -> AutorateController | None:
    """Attach the closed-loop controller to the shaped bottleneck, if any."""
    if not remedy.autorate:
        return None
    for link in (wired, access):
        if isinstance(link.queue, CakeQueue):
            return AutorateController(
                sim,
                link,
                link.queue,
                target_s=remedy.target_ms / 1e3,
                interval_s=remedy.autorate_interval_ms / 1e3,
                floor_ratio=remedy.autorate_floor_ratio,
            )
    return None


def build_split_paths(
    sim: Simulator,
    config: PathConfig,
    rng: np.random.Generator,
) -> tuple[NetworkPath, NetworkPath]:
    """The two halves of a split-connection path: (WAN side, RAN side).

    A performance-enhancing proxy at the RAN edge terminates the UE's
    TCP connection and runs its own on the wireline segment, so the
    anomaly-prone wired bottleneck and the stall-prone radio link are
    congestion-controlled independently.  Both halves reuse the exact
    link parameters of :func:`build_cellular_path` and draw RNG streams
    in the same order, and each half is oriented in the data direction
    (``dl``: WAN carries server->proxy, RAN carries proxy->UE).

    The remedy's qdisc settings still apply to the WAN bottleneck, so a
    PEP can be combined with AQM.
    """
    wired, core, access, ack_rate, access_gate = _build_links(sim, config, rng)
    wan_forward = [wired, core] if config.direction == "dl" else [core, wired]
    wan_path = NetworkPath(
        sim, config, wan_forward, _ack_links(sim, wan_forward, ack_rate),
        access_link=core, wired_link=wired,
    )
    ran_path = NetworkPath(
        sim, config, [access], _ack_links(sim, [access], ack_rate),
        access_link=access, wired_link=access, access_gate=access_gate,
    )
    wan_path.autorate = _arm_autorate(sim, config.remedy, wired, access)
    return wan_path, ran_path
