"""Constant-bit-rate UDP flows and loss accounting.

Used for the paper's baseline capacity probes (Sec. 4.1) and the loss-
versus-load experiment of Fig. 9; the receiver keeps per-packet ids so
the bursty loss pattern of Fig. 11 can be reconstructed.
"""

from __future__ import annotations

from repro.net.packet import DATA, Packet
from repro.net.path import NetworkPath
from repro.net.sim import Simulator

__all__ = ["UdpSender", "UdpSink", "loss_runs"]


class UdpSender:
    """Sends fixed-size datagrams at a constant bit-rate."""

    def __init__(
        self,
        sim: Simulator,
        path: NetworkPath,
        rate_bps: float,
        flow_id: int = 1,
        packet_bytes: int = 1500,
    ) -> None:
        if rate_bps <= 0:
            raise ValueError(f"rate must be positive, got {rate_bps}")
        self.sim = sim
        self.path = path
        self.rate_bps = rate_bps
        self.flow_id = flow_id
        self.packet_bytes = packet_bytes
        self.sent = 0
        self._next_seq = 0
        self._stopped = False

    def start(self) -> None:
        """Begin the CBR packet train."""
        self._tick()

    def stop(self) -> None:
        """Stop generating datagrams."""
        self._stopped = True

    def _tick(self) -> None:
        if self._stopped:
            return
        packet = Packet(
            flow_id=self.flow_id,
            kind=DATA,
            size_bytes=self.packet_bytes,
            seq=self._next_seq,
            created_at=self.sim.now,
            payload=self.packet_bytes,
        )
        self._next_seq += 1
        self.sent += 1
        self.path.send_forward(packet)
        self.sim.schedule(self.packet_bytes * 8 / self.rate_bps, self._tick)


class UdpSink:
    """Counts deliveries and remembers arrival order for loss analysis."""

    def __init__(self, path: NetworkPath, flow_id: int = 1) -> None:
        self.flow_id = flow_id
        self.received = 0
        self.bytes_received = 0
        self.received_seqs: list[int] = []
        path.on_forward_delivery(self._on_packet)

    def _on_packet(self, packet: Packet) -> None:
        if packet.kind != DATA or packet.flow_id != self.flow_id:
            return
        self.received += 1
        self.bytes_received += packet.size_bytes
        self.received_seqs.append(packet.seq)

    def loss_rate(self, sent: int) -> float:
        """Fraction of ``sent`` datagrams that never arrived."""
        if sent <= 0:
            raise ValueError(f"sent must be positive, got {sent}")
        return max(0.0, 1.0 - self.received / sent)

    def lost_seqs(self, sent: int) -> list[int]:
        """Sequence numbers that never arrived (Fig. 11 raw data)."""
        got = set(self.received_seqs)
        return [seq for seq in range(sent) if seq not in got]


def loss_runs(lost_seqs: list[int]) -> list[int]:
    """Lengths of consecutive-loss runs.

    A bursty pattern (Fig. 11) shows up as long runs; independent random
    loss would produce mostly runs of length 1.
    """
    if not lost_seqs:
        return []
    runs = []
    run = 1
    for prev, cur in zip(lost_seqs, lost_seqs[1:]):
        if cur == prev + 1:
            run += 1
        else:
            runs.append(run)
            run = 1
    runs.append(run)
    return runs
