"""Packets exchanged over the simulated network."""

from __future__ import annotations

import itertools

__all__ = ["Packet", "DATA", "ACK", "PROBE"]

DATA = "data"
ACK = "ack"
PROBE = "probe"

_ids = itertools.count(1)


class Packet:
    """One network packet.

    Attributes:
        packet_id: Globally unique id (useful for tracing loss patterns).
        flow_id: Owning flow.
        kind: ``"data"``, ``"ack"`` or ``"probe"``.
        size_bytes: Wire size including headers.
        seq: Transport sequence number (byte offset of first payload byte).
        created_at: Simulation time the packet entered the network.

    Per-protocol fields are slots with a default, keyword-only in the
    constructor.  A data segment carries ``payload`` (bytes),
    ``ts`` (send time) and ``retx`` (retransmission); an ACK carries
    ``ack`` (cumulative), ``ts_echo`` and ``retx_echo`` (the acked
    segment's ``ts`` and ``retx``), ``sacked`` (out-of-order bytes held
    by the receiver) and ``holes`` (missing ``(start, end)`` ranges).
    ``host_id`` is CAKE's host for its per-host isolation (``None``:
    one host per flow).
    """

    __slots__ = (
        "packet_id", "flow_id", "kind", "size_bytes", "seq", "created_at",
        "payload", "ts", "retx", "ack", "ts_echo", "retx_echo", "sacked", "holes", "host_id",
    )

    def __init__(
        self,
        flow_id: int,
        kind: str,
        size_bytes: int,
        seq: int = 0,
        created_at: float = 0.0,
        *,
        payload: int = 0,
        ts: float | None = None,
        retx: bool = False,
        ack: int = 0,
        ts_echo: float | None = None,
        retx_echo: bool = False,
        sacked: int = 0,
        holes: tuple[tuple[int, int], ...] = (),
        host_id: int | None = None,
    ) -> None:
        if size_bytes <= 0:
            raise ValueError(f"packet size must be positive, got {size_bytes}")
        self.packet_id = next(_ids)
        self.flow_id = flow_id
        self.kind = kind
        self.size_bytes = size_bytes
        self.seq = seq
        self.created_at = created_at
        self.payload = payload
        self.ts = ts
        self.retx = retx
        self.ack = ack
        self.ts_echo = ts_echo
        self.retx_echo = retx_echo
        self.sacked = sacked
        self.holes = holes
        self.host_id = host_id

    def __repr__(self) -> str:
        return (
            f"Packet(id={self.packet_id}, flow={self.flow_id}, kind={self.kind}, "
            f"seq={self.seq}, size={self.size_bytes})"
        )
