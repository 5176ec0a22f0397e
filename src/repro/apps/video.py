"""UHD panoramic video telephony (the paper's 360TEL system, Sec. 5.2).

Models the full pipeline of a real-time 360-degree video call:

    camera capture -> patch splice -> H.264 hardware encode -> RTMP
    uplink push -> network -> decode -> render

The processing stages take constants measured by the paper's stopwatch
method (encode ~160 ms, decode ~50 ms, capture+splice+render ~440 ms);
the network stage is a packet-level simulation of the uplink.  The
headline result reproduces: even on 5G the end-to-end frame delay sits
near a second because processing outweighs transmission by ~10x (Fig. 20).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.config import RadioProfile
from repro.core.rng import default_rng
from repro.net.packet import DATA, Packet
from repro.net.path import PathConfig, build_cellular_path
from repro.net.sim import Simulator

__all__ = [
    "VideoProfile",
    "VIDEO_PROFILES",
    "FrameRecord",
    "VideoSessionResult",
    "run_video_session",
]

#: Frame-processing constants measured in Sec. 5.2 (seconds).
ENCODE_S = 0.160
DECODE_S = 0.050
CAPTURE_SPLICE_RENDER_S = 0.440

#: RTMP ingest/remux buffering at the EasyDSS relay plus the pulling leg
#: the receiver reads from; calibrated so the quiescent 5G end-to-end
#: frame delay sits near the measured ~950 ms (Fig. 20).
RTMP_RELAY_S = 0.235

#: A frame is frozen if it is displayed this much later than its slot.
FREEZE_THRESHOLD_S = 0.5

FPS = 30.0

#: Packet ``seq`` numbers of frame ``i`` start at ``i * _FRAME_SEQ_SPAN``,
#: so the receiver reads the frame index back as ``seq // _FRAME_SEQ_SPAN``
#: (a frame would need 140 MB of 1400-byte packets to overflow its span).
_FRAME_SEQ_SPAN = 100_000


@dataclass(frozen=True)
class VideoProfile:
    """Bit-rate profile of one panoramic resolution.

    ``fluctuation_sigma`` is the log-normal sigma of per-frame sizes;
    dynamic scenes (camera constantly moving) fluctuate far more than
    static ones, which is what overwhelms the 5G uplink at 5.7K (Fig. 19).
    """

    name: str
    mean_rate_bps: float
    static_sigma: float
    dynamic_sigma: float

    def sigma(self, dynamic: bool) -> float:
        """Log-normal sigma of per-frame sizes for the scene kind."""
        return self.dynamic_sigma if dynamic else self.static_sigma


#: Resolution ladder of the Insta360 ONE X pipeline (Fig. 18).
VIDEO_PROFILES: dict[str, VideoProfile] = {
    "720P": VideoProfile("720P", 6e6, 0.10, 0.25),
    "1080P": VideoProfile("1080P", 12e6, 0.10, 0.25),
    "4K": VideoProfile("4K", 45e6, 0.12, 0.35),
    "5.7K": VideoProfile("5.7K", 80e6, 0.15, 0.45),
}


@dataclass
class FrameRecord:
    """Life of one video frame through the pipeline."""

    index: int
    capture_time_s: float
    size_bytes: int
    sent_time_s: float | None = None
    network_done_s: float | None = None

    def display_time_s(self) -> float | None:
        """When the frame can appear at the far end."""
        if self.network_done_s is None:
            return None
        return self.network_done_s + DECODE_S

    def end_to_end_delay_s(self) -> float | None:
        """Stopwatch delay: capture wall-clock to remote display.

        ``display - capture`` already covers encode + uplink network +
        decode (all simulated); the camera-side capture/splice/render and
        the RTMP relay stage are fixed pipeline constants.
        """
        display = self.display_time_s()
        if display is None:
            return None
        return display - self.capture_time_s + CAPTURE_SPLICE_RENDER_S + RTMP_RELAY_S


@dataclass
class VideoSessionResult:
    """Everything a telephony session run produced."""

    profile_name: str
    dynamic: bool
    duration_s: float
    frames: list[FrameRecord] = field(default_factory=list)
    throughput_trace: list[tuple[float, float]] = field(default_factory=list)

    @property
    def delivered_frames(self) -> list[FrameRecord]:
        """Frames whose last packet reached the far end."""
        return [f for f in self.frames if f.network_done_s is not None]

    @property
    def mean_throughput_bps(self) -> float:
        """Receiver-side video throughput over the session."""
        delivered = self.delivered_frames
        if not delivered:
            return 0.0
        return sum(f.size_bytes for f in delivered) * 8 / self.duration_s

    def frame_delays_s(self) -> list[float]:
        """End-to-end frame delays (Fig. 20 series)."""
        return [
            delay
            for f in self.delivered_frames
            if (delay := f.end_to_end_delay_s()) is not None
        ]

    def freeze_count(self) -> int:
        """Frames whose network transit exceeds the freeze threshold, plus
        frames that never arrived (Fig. 19's freeze events)."""
        freezes = 0
        for frame in self.frames:
            if frame.network_done_s is None or frame.sent_time_s is None:
                freezes += 1
                continue
            if frame.network_done_s - frame.sent_time_s > FREEZE_THRESHOLD_S:
                freezes += 1
        return freezes


def run_video_session(
    profile: RadioProfile,
    resolution: str,
    dynamic: bool,
    duration_s: float = 30.0,
    scale: float = 0.25,
    seed: int = 1,
) -> VideoSessionResult:
    """Run a 360TEL uplink pushing session and collect frame statistics.

    Args:
        profile: Radio profile carrying the uplink.
        resolution: Key into :data:`VIDEO_PROFILES`.
        dynamic: Whether the camera view is constantly changing.
        duration_s: Session length.
        scale: Simulation bandwidth scale (video bit-rates scale along, so
            capacity ratios are preserved).
        seed: Frame-size and cross-traffic randomness.
    """
    try:
        video = VIDEO_PROFILES[resolution]
    except KeyError:
        raise ValueError(
            f"unknown resolution {resolution!r}; choose from {sorted(VIDEO_PROFILES)}"
        ) from None

    sim = Simulator()
    rng = default_rng(seed)
    config = PathConfig(profile=profile, direction="ul", scale=scale)
    path = build_cellular_path(sim, config, rng)
    result = VideoSessionResult(
        profile_name=resolution, dynamic=dynamic, duration_s=duration_s
    )

    mean_frame_bytes = video.mean_rate_bps * scale / FPS / 8
    sigma = video.sigma(dynamic)
    packet_bytes = 1400
    pending: dict[int, tuple[FrameRecord, int]] = {}  # frame idx -> (rec, packets left)
    window_bytes = [0]
    window_start = [0.0]

    def on_delivery(packet: Packet) -> None:
        idx = packet.seq // _FRAME_SEQ_SPAN
        record, remaining = pending[idx]
        remaining -= 1
        window_bytes[0] += packet.size_bytes
        if remaining == 0:
            record.network_done_s = sim.now
            del pending[idx]
        else:
            pending[idx] = (record, remaining)
        # 1-second receiver throughput buckets (Fig. 19 trace).
        if sim.now - window_start[0] >= 1.0:
            result.throughput_trace.append(
                (window_start[0], window_bytes[0] * 8 / (sim.now - window_start[0]))
            )
            window_start[0] = sim.now
            window_bytes[0] = 0

    path.on_forward_delivery(on_delivery)

    def capture(index: int) -> None:
        t = sim.now
        size = int(mean_frame_bytes * float(rng.lognormal(0.0, sigma)))
        size = max(size, packet_bytes)
        record = FrameRecord(index=index, capture_time_s=t, size_bytes=size)
        result.frames.append(record)
        sim.schedule(ENCODE_S, push_frame, record)
        if t + 1.0 / FPS < duration_s:
            sim.schedule(1.0 / FPS, capture, index + 1)

    def push_frame(record: FrameRecord) -> None:
        record.sent_time_s = sim.now
        packets = max(1, -(-record.size_bytes // packet_bytes))
        pending[record.index] = (record, packets)
        for i in range(packets):
            path.send_forward(
                Packet(
                    flow_id=1,
                    kind=DATA,
                    size_bytes=packet_bytes,
                    seq=record.index * _FRAME_SEQ_SPAN + i,
                    created_at=sim.now,
                )
            )

    capture(0)
    sim.run(until=duration_s + 5.0)  # drain tail frames
    return result
