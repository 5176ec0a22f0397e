"""BBR congestion control (Cardwell et al. 2016), simplified.

Model-based control: estimate the bottleneck bandwidth (windowed max of
delivery-rate samples) and the propagation RTT (windowed min), then pace
at the estimated bandwidth with a gain cycle.  Because BBR never reacts
to individual losses, it is the only algorithm in the paper's lineup that
rides out the bursty drops of the under-buffered 5G path, reaching 82.5%
utilization where Cubic manages 31.9% (Fig. 7).
"""

from __future__ import annotations

from collections import deque

from repro.transport.base import CongestionControl

__all__ = ["Bbr"]

_STARTUP_GAIN = 2.885
_DRAIN_GAIN = 1.0 / _STARTUP_GAIN
_PROBE_GAINS = (1.25, 0.75, 1.0, 1.0, 1.0, 1.0, 1.0, 1.0)
_BW_WINDOW_ROUNDS = 10
_MIN_RTT_WINDOW_S = 10.0
_PROBE_RTT_DURATION_S = 0.2
_STARTUP_GROWTH_THRESHOLD = 1.25
_STARTUP_FULL_BW_ROUNDS = 3


class Bbr(CongestionControl):
    """STARTUP -> DRAIN -> PROBE_BW (+ periodic PROBE_RTT)."""

    name = "bbr"
    reads_delivery_rate = True

    def __init__(self, mss_bytes: int, rate_scale: float = 1.0) -> None:
        super().__init__(mss_bytes, rate_scale)
        self.state = "STARTUP"
        # (round, bps), rates strictly decreasing: a sample is dropped once
        # a later one is at least as fast, so the front is the windowed max.
        self._bw_samples: deque[tuple[int, float]] = deque()
        self._round = 0
        self._round_start_delivered = 0
        self._delivered = 0
        self._min_rtt_s = float("inf")
        self._min_rtt_stamp = 0.0
        self._full_bw = 0.0
        self._full_bw_rounds = 0
        self._cycle_index = 0
        self._cycle_stamp = 0.0
        self._probe_rtt_done_at: float | None = None
        self._pacing_gain = _STARTUP_GAIN
        self._cwnd_gain = _STARTUP_GAIN

    # -- estimators -----------------------------------------------------

    @property
    def bottleneck_bw_bps(self) -> float:
        """Windowed-max bottleneck bandwidth estimate."""
        if not self._bw_samples:
            return 8.0 * self.mss / 0.01  # arbitrary small bootstrap rate
        return self._bw_samples[0][1]

    @property
    def min_rtt_s(self) -> float:
        """Windowed-min propagation RTT estimate."""
        return self._min_rtt_s if self._min_rtt_s != float("inf") else 0.1

    @property
    def bdp_bytes(self) -> float:
        """Estimated bandwidth-delay product."""
        return self.bottleneck_bw_bps * self.min_rtt_s / 8.0

    @property
    def pacing_rate_bps(self) -> float | None:
        """Current pacing rate: gain times the bandwidth estimate."""
        return max(self._pacing_gain * self.bottleneck_bw_bps, 8.0 * self.mss / 0.1)

    # -- main hooks -------------------------------------------------------

    def on_ack(self, acked_bytes, rtt_s, now, delivery_rate_bps=None):
        """Update the bandwidth/RTT model and advance the state machine."""
        self._delivered += acked_bytes
        if self._delivered - self._round_start_delivered >= self.cwnd_bytes:
            self._round += 1
            self._round_start_delivered = self._delivered

        if rtt_s > 0 and (
            rtt_s <= self._min_rtt_s or now - self._min_rtt_stamp > _MIN_RTT_WINDOW_S
        ):
            self._min_rtt_s = rtt_s
            self._min_rtt_stamp = now

        if delivery_rate_bps is not None and delivery_rate_bps > 0:
            samples = self._bw_samples
            while samples and samples[-1][1] <= delivery_rate_bps:
                samples.pop()
            samples.append((self._round, delivery_rate_bps))
            while samples[0][0] < self._round - _BW_WINDOW_ROUNDS:
                samples.popleft()

        self._advance_state(now)
        self._set_cwnd()

    def on_loss(self, now):
        """No-op: BBR does not treat loss as a congestion signal."""
        # BBR does not treat loss as a congestion signal; the shrunken
        # delivery-rate samples already reflect any real slowdown.
        pass

    def on_timeout(self, now):
        """Restart from a small window, keeping the bandwidth model."""
        # Conservative on RTO: restart from a small window but keep the
        # bandwidth model.
        self.cwnd_bytes = 4.0 * self.mss

    # -- state machine ----------------------------------------------------

    def _enter_state(self, state: str, now: float) -> None:
        self.state = state
        self.tracer.instant("bbr.state", now, state=state)

    def _advance_state(self, now: float) -> None:
        if self.state == "STARTUP":
            bw = self.bottleneck_bw_bps
            if bw > self._full_bw * _STARTUP_GROWTH_THRESHOLD:
                self._full_bw = bw
                self._full_bw_rounds = 0
            else:
                self._full_bw_rounds += 1
                if self._full_bw_rounds >= _STARTUP_FULL_BW_ROUNDS:
                    self._enter_state("DRAIN", now)
                    self._pacing_gain = _DRAIN_GAIN
                    self._cwnd_gain = _STARTUP_GAIN
        elif self.state == "DRAIN":
            # Drained once in-flight is near one BDP; approximated by time.
            self._enter_state("PROBE_BW", now)
            self._cycle_index = 0
            self._cycle_stamp = now
            self._pacing_gain = _PROBE_GAINS[0]
            self._cwnd_gain = 2.0
        elif self.state == "PROBE_BW":
            if now - self._min_rtt_stamp > _MIN_RTT_WINDOW_S:
                self._enter_state("PROBE_RTT", now)
                self._probe_rtt_done_at = now + _PROBE_RTT_DURATION_S
                self._pacing_gain = 1.0
            elif now - self._cycle_stamp > self.min_rtt_s:
                self._cycle_index = (self._cycle_index + 1) % len(_PROBE_GAINS)
                self._cycle_stamp = now
                self._pacing_gain = _PROBE_GAINS[self._cycle_index]
        elif self.state == "PROBE_RTT":
            assert self._probe_rtt_done_at is not None
            if now >= self._probe_rtt_done_at:
                self._min_rtt_stamp = now
                self._enter_state("PROBE_BW", now)
                self._cycle_stamp = now
                self._pacing_gain = _PROBE_GAINS[self._cycle_index]

    def _set_cwnd(self) -> None:
        if self.state == "PROBE_RTT":
            self.cwnd_bytes = 4.0 * self.mss
        else:
            self.cwnd_bytes = max(self._cwnd_gain * self.bdp_bytes, 4.0 * self.mss)
