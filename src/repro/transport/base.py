"""TCP sender/receiver machinery with pluggable congestion control.

Implements the transport behaviour the paper's iperf3 experiments
exercise: NewReno-style loss recovery (fast retransmit on three duplicate
ACKs, partial-ACK retransmission), RFC 6298 RTO estimation, optional
pacing (for BBR) and delivery-rate sampling.  Congestion control is a
strategy object so Reno/Cubic/Vegas/Veno/BBR plug into identical
machinery — matching the paper's methodology of switching kernel modules
while keeping everything else fixed (Sec. 4.1).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from bisect import bisect_left, bisect_right
from collections.abc import Callable
from dataclasses import dataclass, field

from repro import instruments
from repro.net.packet import ACK, DATA, Packet
from repro.net.path import NetworkPath
from repro.net.sim import Entry, Event, Key, Simulator

__all__ = ["CongestionControl", "TcpSender", "TcpReceiver", "TcpConnection", "FlowStats"]

_INITIAL_CWND_SEGMENTS = 10
_DUPACK_THRESHOLD = 3
_MIN_RTO_S = 0.2
_MAX_RTO_S = 60.0
_ACK_SIZE_BYTES = 60
_HEADER_BYTES = 52  # IP + TCP headers on the wire


class CongestionControl(ABC):
    """Strategy interface for congestion-control algorithms."""

    name: str = "abstract"
    #: Whether :meth:`on_ack` reads ``delivery_rate_bps``.  Only then does
    #: the sender keep a send log and sample delivery rates.
    reads_delivery_rate: bool = False

    def __init__(self, mss_bytes: int, rate_scale: float = 1.0) -> None:
        if not 0.0 < rate_scale <= 1.0:
            raise ValueError(f"rate_scale must be in (0, 1], got {rate_scale}")
        self.mss = mss_bytes
        #: Bandwidth scale of the simulated path relative to the real
        #: system.  Additive window increments are multiplied by this so
        #: that AIMD recovery takes the same wall-clock time as at full
        #: scale — the dimensionless ratio (loss-event interval / window
        #: regrowth time) is what determines utilization, and it must
        #: survive the rate down-scaling that keeps packet-level
        #: simulation tractable.
        self.rate_scale = rate_scale
        self.cwnd_bytes: float = _INITIAL_CWND_SEGMENTS * mss_bytes
        self.ssthresh_bytes: float = float("inf")
        self.tracer = instruments.current().tracer

    @property
    def pacing_rate_bps(self) -> float | None:
        """Pacing rate, or None for pure ACK clocking."""
        return None

    @property
    def in_slow_start(self) -> bool:
        """Whether cwnd is still below the slow-start threshold."""
        return self.cwnd_bytes < self.ssthresh_bytes

    @abstractmethod
    def on_ack(
        self,
        acked_bytes: int,
        rtt_s: float,
        now: float,
        delivery_rate_bps: float | None = None,
    ) -> None:
        """New data was cumulatively acknowledged."""

    @abstractmethod
    def on_loss(self, now: float) -> None:
        """Loss detected by fast retransmit."""

    def on_timeout(self, now: float) -> None:
        """Retransmission timeout: collapse to one segment."""
        self.ssthresh_bytes = max(self.cwnd_bytes / 2.0, 2.0 * self.mss)
        self.cwnd_bytes = float(self.mss)


@dataclass
class FlowStats:
    """Counters and traces collected over a TCP flow's lifetime."""

    bytes_acked: int = 0
    packets_sent: int = 0
    retransmissions: int = 0
    timeouts: int = 0
    fast_retransmits: int = 0
    cwnd_trace: list[tuple[float, float]] = field(default_factory=list)
    rtt_samples: list[tuple[float, float]] = field(default_factory=list)
    delivered_trace: list[tuple[float, int]] = field(default_factory=list)

    def throughput_bps(self, duration_s: float, from_s: float = 0.0) -> float:
        """Mean goodput over ``[from_s, duration_s]`` from the ack trace."""
        if duration_s <= from_s:
            raise ValueError("duration must exceed the start offset")
        start_bytes = 0
        for t, delivered in self.delivered_trace:
            if t <= from_s:
                start_bytes = delivered
            else:
                break
        end_bytes = self.delivered_trace[-1][1] if self.delivered_trace else 0
        return (end_bytes - start_bytes) * 8 / (duration_s - from_s)


class TcpReceiver:
    """Receiver half: reassembly cursor plus cumulative ACK generation.

    The SACK scoreboard is kept incrementally, so an ACK costs nothing that
    grows with the out-of-order backlog: a running byte total of the
    buffered segments, and their union as sorted, disjoint ``[start, end)``
    ranges (touching ones merged).  Ranges that end at or below
    ``rcv_next`` cannot bound a hole and are dropped as it advances.  The
    ranges grow but never shrink when a ``seq`` is buffered again, so the
    holes equal a sorted walk over the buffered segments as long as a
    given ``seq`` always carries the same payload.  Every sender here
    sends ``min(mss, transfer_bytes - seq)`` at ``seq``, which holds it,
    even for misaligned, overlapping retransmissions.
    """

    def __init__(self, sim: Simulator, path: NetworkPath, flow_id: int) -> None:
        self.sim = sim
        self.path = path
        self.flow_id = flow_id
        self.rcv_next = 0
        self._out_of_order: dict[int, int] = {}  # seq -> payload length
        self._out_of_order_bytes = 0  # sum(self._out_of_order.values())
        self._sack_starts: list[int] = []
        self._sack_ends: list[int] = []
        self.bytes_received = 0
        path.on_forward_delivery(self._on_data)

    def _on_data(self, packet: Packet) -> None:
        if packet.kind != DATA or packet.flow_id != self.flow_id:
            return
        payload = packet.payload
        self.bytes_received += payload
        if packet.seq == self.rcv_next:
            self._advance(payload)
        elif packet.seq > self.rcv_next:
            self._buffer(packet.seq, payload)
        ack = Packet(
            self.flow_id,
            ACK,
            _ACK_SIZE_BYTES,
            0,
            self.sim.now,
            ack=self.rcv_next,
            ts_echo=packet.ts,
            retx_echo=packet.retx,
            sacked=self._out_of_order_bytes,
            holes=self._holes(),
        )
        self.path.send_reverse(ack)

    def _advance(self, payload: int) -> None:
        """Accept an in-order segment and drain the contiguous buffered ones."""
        out_of_order = self._out_of_order
        rcv_next = self.rcv_next + payload
        while rcv_next in out_of_order:
            drained = out_of_order.pop(rcv_next)
            self._out_of_order_bytes -= drained
            rcv_next += drained
        self.rcv_next = rcv_next
        ends = self._sack_ends
        if ends and ends[0] <= rcv_next:
            below = bisect_right(ends, rcv_next)
            del self._sack_starts[:below], ends[:below]

    def _buffer(self, seq: int, payload: int) -> None:
        """Buffer a segment above ``rcv_next`` and merge it into the ranges."""
        out_of_order = self._out_of_order
        self._out_of_order_bytes += payload - out_of_order.get(seq, 0)
        out_of_order[seq] = payload
        starts, ends = self._sack_starts, self._sack_ends
        end = seq + payload
        first = bisect_left(ends, seq)  # first range ending at or after seq
        last = bisect_right(starts, end, first)  # past the last starting by end
        if first == last:
            starts.insert(first, seq)
            ends.insert(first, end)
        else:
            starts[first:last] = (min(seq, starts[first]),)
            ends[first:last] = (max(end, ends[last - 1]),)

    def _holes(self, limit: int = 16) -> tuple[tuple[int, int], ...]:
        """Missing byte ranges between the cumulative ack and the highest
        out-of-order segment (a bounded SACK scoreboard)."""
        starts = self._sack_starts
        if not starts:
            return ()
        holes: list[tuple[int, int]] = []
        cursor = self.rcv_next
        for start, end in zip(starts, self._sack_ends):
            if start > cursor:
                holes.append((cursor, start))
                if len(holes) >= limit:
                    break
            cursor = end
        return tuple(holes)


class TcpSender:
    """Sender half: windowing, loss recovery, RTO, pacing, rate sampling.

    The retransmission timer is re-armed on every transmission and every
    new ACK.  Each arm claims the key a freshly scheduled timer would get
    (:meth:`Simulator.claim`), but the sender keeps one live heap entry:
    a later deadline leaves it in place, and when it fires early it
    re-pushes itself under the latest key.  A shrinking RTO replaces the
    entry, and disarming cancels it, so the timeout fires at exactly the
    key and instant of the last arm.

    Delivery rates are sampled from a send log only for a congestion
    controller that reads them (``cc.reads_delivery_rate``); every other
    controller gets ``delivery_rate_bps=None`` with the same acked bytes,
    RTT and time.

    ``on_complete``, when set, is called once, from the ACK that
    completes a sized transfer (see :meth:`TcpConnection.run_to_completion`).
    """

    def __init__(
        self,
        sim: Simulator,
        path: NetworkPath,
        cc: CongestionControl,
        flow_id: int,
        transfer_bytes: int | None = None,
    ) -> None:
        self.sim = sim
        self.path = path
        self.cc = cc
        self.flow_id = flow_id
        self.mss = cc.mss
        self.rwnd_bytes = path.config.rwnd_bytes
        self.transfer_bytes = transfer_bytes

        self.next_seq = 0
        self.cum_ack = 0
        self.high_water = 0
        self.dup_acks = 0
        self.recover_seq: int | None = None  # NewReno recovery point
        self.delivered_bytes = 0
        self.completed_at: float | None = None
        self.on_complete: Callable[[], None] | None = None

        self._sacked_bytes = 0
        self._retx_times: dict[int, float] = {}
        self.srtt: float | None = None
        self.rttvar = 0.0
        self.rto_s = 1.0
        self._rto_entry: Entry | None = None  # the one live timer entry
        self._rto_key: Key | None = None  # the key of the latest arm
        self._pace_event: Event | None = None
        # seq -> (time, delivered), for controllers that read delivery rates.
        self._send_log: dict[int, tuple[float, int]] | None = (
            {} if cc.reads_delivery_rate else None
        )

        self.stats = FlowStats()
        active = instruments.current()
        self._tracer = active.tracer
        self._auditor = active.auditor
        if self._auditor.enabled:
            self._register_audit()
        path.on_reverse_delivery(self._on_ack)

    def _register_audit(self) -> None:
        """Register sequence-conservation ledgers with the active auditor.

        ``in_flight_bytes`` clamps its subtraction at zero, so the
        sequence residual is nonzero exactly when the books claim more
        bytes were acknowledged than were ever sent — the clamp engaging
        is the anomaly, not a rounding artifact.
        """
        self._auditor.watch(
            "audit.tcp.sequence_residual_bytes",
            lambda: self.next_seq - self.cum_ack - self._sacked_bytes - self.in_flight_bytes,
        )
        self._auditor.watch(
            "audit.tcp.delivered_residual_bytes",
            lambda: self.delivered_bytes - self.cum_ack,
        )

    # -- public API ----------------------------------------------------

    def start(self) -> None:
        """Begin transmitting."""
        self._try_send()

    @property
    def in_flight_bytes(self) -> int:
        """Unacknowledged, un-SACKed bytes in the network."""
        return max(self.next_seq - self.cum_ack - self._sacked_bytes, 0)

    @property
    def done(self) -> bool:
        """Whether a fixed-size transfer is fully acknowledged."""
        return (
            self.transfer_bytes is not None and self.cum_ack >= self.transfer_bytes
        )

    # -- transmission --------------------------------------------------

    def _window_bytes(self) -> float:
        return min(self.cc.cwnd_bytes, float(self.rwnd_bytes))

    def _has_data(self) -> bool:
        if self.transfer_bytes is None:
            return True
        return self.next_seq < self.transfer_bytes

    def _try_send(self) -> None:
        cc = self.cc
        pacing = cc.pacing_rate_bps
        if pacing is not None:
            self._pace(pacing)
            return
        # Sending changes only next_seq: the window, cum_ack and the SACKed
        # bytes hold through the loop, so _window_bytes() is read once and
        # in_flight_bytes is computed inline per segment.
        window = min(cc.cwnd_bytes, float(self.rwnd_bytes))
        acked = self.cum_ack + self._sacked_bytes
        mss = self.mss
        while self._has_data():
            in_flight = self.next_seq - acked
            if (in_flight if in_flight > 0 else 0) + mss > window:
                return
            self._transmit(self.next_seq, advance=True)

    def _pace(self, pacing_rate: float) -> None:
        if self._pace_event is not None:
            return
        if not self._has_data() or self.in_flight_bytes + self.mss > self._window_bytes():
            return
        self._transmit(self.next_seq, advance=True)
        gap = self.mss * 8 / max(pacing_rate, 1.0)
        self._pace_event = self.sim.schedule(gap, self._pace_tick)

    def _pace_tick(self) -> None:
        self._pace_event = None
        pacing = self.cc.pacing_rate_bps
        if pacing is not None:
            self._pace(pacing)
        else:
            self._try_send()

    def _transmit(self, seq: int, advance: bool, retx: bool = False) -> None:
        payload = self.mss
        if self.transfer_bytes is not None:
            payload = min(payload, self.transfer_bytes - seq)
            if payload <= 0:
                return
        # Anything below the high-water mark is a retransmission even when
        # sent through the regular path (e.g. after an RTO rollback); Karn's
        # rule then suppresses its RTT sample.
        retx = retx or seq < self.high_water
        now = self.sim.now
        packet = Packet(
            self.flow_id, DATA, payload + _HEADER_BYTES, seq, now,
            payload=payload, ts=now, retx=retx,
        )
        self.stats.packets_sent += 1
        if retx:
            self.stats.retransmissions += 1
            self._tracer.bump("tcp.retransmissions", now)
        elif self._send_log is not None:
            # Delivery-rate bookkeeping counts SACKed bytes as delivered
            # (as real BBR does); otherwise a cumulative-ACK jump after
            # hole repair would attribute seconds of deliveries to one
            # short interval and blow up the bandwidth estimate.
            self._send_log[seq] = (now, self.delivered_bytes + self._sacked_bytes)
        if advance:
            self.next_seq = seq + payload
            self.high_water = max(self.high_water, self.next_seq)
        self.path.send_forward(packet)
        self._arm_rto()

    # -- acknowledgement handling ---------------------------------------

    def _on_ack(self, packet: Packet) -> None:
        if packet.kind != ACK or packet.flow_id != self.flow_id:
            return
        ack = packet.ack
        now = self.sim.now
        # Per-ACK hot path: inline comparison, flag only on violation (the
        # simulator's time-monotonicity probe uses the same pattern).  A
        # probe() call per ACK — even a passing one — costs a method call
        # plus kwargs construction, which is measurable at ~100k ACKs/run.
        if ack > self.high_water and self._auditor.enabled:
            self._auditor.flag(
                "audit.tcp.ack_bounds_bytes",
                now,
                ack=ack,
                high_water=self.high_water,
                flow=self.flow_id,
            )

        self._sacked_bytes = packet.sacked
        if ack > self.cum_ack:
            newly_acked = ack - self.cum_ack
            self.cum_ack = ack
            self.delivered_bytes += newly_acked
            self.dup_acks = 0
            # Forward progress clears any RTO backoff (RFC 6298 restart).
            if self.srtt is not None:
                self.rto_s = min(max(self.srtt + 4 * self.rttvar, _MIN_RTO_S), _MAX_RTO_S)
            stats = self.stats
            stats.bytes_acked = self.delivered_bytes
            stats.delivered_trace.append((now, self.delivered_bytes))

            # RTT from the timestamp echo (Karn: none for a retransmission).
            rtt = None
            ts_echo = packet.ts_echo
            if not packet.retx_echo and ts_echo is not None:
                rtt = now - ts_echo
                stats.rtt_samples.append((now, rtt))
                self._update_rto(rtt)
            rate = None if self._send_log is None else self._delivery_rate(ack, now)
            if self.recover_seq is not None:
                if ack >= self.recover_seq:
                    self.recover_seq = None  # full recovery
                else:
                    # Partial ACK: the next hole starts exactly here.
                    self._retransmit_hole(ack)
            cc = self.cc
            rtt_s = rtt if rtt is not None else (self.srtt or 0.0)
            cc.on_ack(newly_acked, rtt_s, now, delivery_rate_bps=rate)
            stats.cwnd_trace.append((now, cc.cwnd_bytes))
            tracer = self._tracer
            if tracer.enabled:  # one branch on the per-ACK hot path
                tracer.counter("tcp.cwnd_bytes", now, cc.cwnd_bytes)
                if rtt is not None:
                    tracer.counter("tcp.rtt_ms", now, rtt * 1e3)
            self._arm_rto()
            if self.transfer_bytes is not None and self.cum_ack >= self.transfer_bytes:
                if self.completed_at is None:
                    self.completed_at = now
                    # Nothing is left to send.  After a go-back-N rollback,
                    # next_seq may lag bytes the receiver had all along;
                    # move it up, as BSD TCP moves snd_nxt up to snd_una,
                    # so the books balance where the transfer ends.
                    self.next_seq = max(self.next_seq, self.cum_ack)
                    if self.on_complete is not None:
                        self.on_complete()
                self._cancel_rto()
                return
        else:
            self.dup_acks += 1
            if self.dup_acks == _DUPACK_THRESHOLD and self.recover_seq is None:
                self.recover_seq = self.high_water
                self.cc.on_loss(now)
                self.stats.fast_retransmits += 1
                self.stats.cwnd_trace.append((now, self.cc.cwnd_bytes))
                self._tracer.bump("tcp.fast_retransmits", now)
                self._retransmit_hole(self.cum_ack)
        # SACK-style repair: refill every hole the receiver reports, at
        # most once per smoothed RTT each (Linux TCP behaviour; NewReno's
        # one-hole-per-RTT would stall for whole seconds under the bursty
        # multi-packet drops of the 5G path).  This runs regardless of the
        # recovery state: holes created above the recovery point would
        # otherwise linger until an RTO whose backoff has spiralled.
        # Nearly every segment fails the hold-off test, so the walk applies
        # it inline; cum_ack, now and the hold-off stay fixed through it.
        holes = packet.holes
        if holes:
            cum_ack = self.cum_ack
            holdoff = self.srtt if self.srtt is not None else self.rto_s
            mss = self.mss
            retx_times = self._retx_times
            for start, end in holes:
                seq = start
                while seq < end:
                    if seq >= cum_ack:
                        recent = retx_times.get(seq)
                        if recent is None or not now - recent < holdoff:
                            self._repair(seq)
                            retx_times = self._retx_times  # rebuilt past 8192
                    seq += mss
        self._try_send()

    def _retransmit_hole(self, seq: int) -> None:
        """Retransmit the segment at ``seq`` unless recently repaired."""
        if seq < self.cum_ack:
            return
        recent = self._retx_times.get(seq)
        holdoff = self.srtt if self.srtt is not None else self.rto_s
        if recent is not None and self.sim.now - recent < holdoff:
            return
        self._repair(seq)

    def _repair(self, seq: int) -> None:
        """Retransmit the segment at ``seq`` and note when."""
        self._retx_times[seq] = self.sim.now
        if len(self._retx_times) > 8192:
            self._retx_times = {
                s2: t2 for s2, t2 in self._retx_times.items() if s2 >= self.cum_ack
            }
        self._transmit(seq, advance=False, retx=True)

    def _delivery_rate(self, ack: int, now: float) -> float | None:
        """Delivery rate since the last acked segment was sent, from the send log."""
        send_log = self._send_log
        assert send_log is not None
        # Find the send record for the last acked segment.
        record = send_log.pop(ack - (ack % self.mss or self.mss), None)
        # Drop stale records below the cumulative ack to bound memory.
        if len(send_log) > 4096:
            self._send_log = {seq: rec for seq, rec in send_log.items() if seq >= self.cum_ack}
        if record is None:
            return None
        sent_at, delivered_at_send = record
        elapsed = now - sent_at
        delivered_now = self.delivered_bytes + self._sacked_bytes
        if elapsed > 0 and delivered_now > delivered_at_send:
            return (delivered_now - delivered_at_send) * 8 / elapsed
        return None

    # -- retransmission timer --------------------------------------------

    def _update_rto(self, rtt: float) -> None:
        if self.srtt is None:
            self.srtt = rtt
            self.rttvar = rtt / 2
        else:
            self.rttvar = 0.75 * self.rttvar + 0.25 * abs(self.srtt - rtt)
            self.srtt = 0.875 * self.srtt + 0.125 * rtt
        self.rto_s = min(max(self.srtt + 4 * self.rttvar, _MIN_RTO_S), _MAX_RTO_S)

    def _arm_rto(self) -> None:
        if self.next_seq - self.cum_ack - self._sacked_bytes <= 0:  # nothing in flight
            self._cancel_rto()
            return
        sim = self.sim
        key = sim.claim(self.rto_s)
        self._rto_key = key
        entry = self._rto_entry
        if entry is not None:
            # The claim's seq is the newest, so the new key sorts first
            # only at an earlier instant.
            if not key[0] < entry[0]:
                return  # the live entry fires first and re-pushes itself
            sim.cancel(entry)
        self._rto_entry = sim.push(key, self._rto_fired)

    def _cancel_rto(self) -> None:
        if self._rto_entry is not None:
            self.sim.cancel(self._rto_entry)
            self._rto_entry = None

    def _rto_fired(self) -> None:
        key = self._rto_key
        if key[1] != self._rto_entry[1]:  # re-armed since: not due yet
            self._rto_entry = self.sim.push(key, self._rto_fired)
            return
        self._rto_entry = None
        self._on_timeout()

    def _on_timeout(self) -> None:
        if self.in_flight_bytes == 0:
            return
        self.stats.timeouts += 1
        self.cc.on_timeout(self.sim.now)
        self.stats.cwnd_trace.append((self.sim.now, self.cc.cwnd_bytes))
        self._tracer.bump("tcp.timeouts", self.sim.now)
        self._tracer.instant("tcp.rto", self.sim.now, rto_s=self.rto_s)
        self.recover_seq = None
        self.dup_acks = 0
        self._retx_times.clear()
        self.rto_s = min(self.rto_s * 2, _MAX_RTO_S)
        # Go-back-N rollback: everything past the cumulative ACK is
        # presumed lost (an RTO means no SACK feedback is flowing) and is
        # resent window-by-window.  Without this, a tail-of-transfer burst
        # loss would crawl out one segment per exponentially-backed-off
        # timeout.
        self.next_seq = self.cum_ack
        self._try_send()


@dataclass
class TcpConnection:
    """A wired-up sender/receiver pair over one path."""

    sender: TcpSender
    receiver: TcpReceiver

    @classmethod
    def establish(
        cls,
        sim: Simulator,
        path: NetworkPath,
        cc: CongestionControl,
        flow_id: int = 1,
        transfer_bytes: int | None = None,
    ) -> "TcpConnection":
        """Wire a receiver and sender onto ``path`` and return the pair."""
        receiver = TcpReceiver(sim, path, flow_id)
        sender = TcpSender(sim, path, cc, flow_id, transfer_bytes=transfer_bytes)
        return cls(sender=sender, receiver=receiver)

    def start(self) -> None:
        """Begin transmitting."""
        self.sender.start()

    def run_to_completion(self, timeout_s: float) -> float:
        """Run a sized transfer until its last byte is acknowledged.

        The completing ACK stops the simulator (:meth:`Simulator.stop`),
        so what keeps running without the transfer, such as the path's
        radio stalls, is not simulated on to ``timeout_s``.  Returns the
        completion time.

        Raises:
            RuntimeError: if the transfer is not complete at ``timeout_s``.
        """
        sender = self.sender
        sim = sender.sim
        sender.on_complete = sim.stop
        sender.start()
        sim.run(until=timeout_s)
        if sender.completed_at is None:
            raise RuntimeError(
                f"transfer did not complete within {timeout_s}s "
                f"({sender.cum_ack}/{sender.transfer_bytes} bytes)"
            )
        return sender.completed_at
