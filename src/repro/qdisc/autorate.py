"""wanctl-style closed-loop shaper controller for the CAKE qdisc.

Autorate daemons for cable/LTE uplinks (sqm-autorate, cake-autorate,
wanctl) all share one control structure: sample the *delay added by
queueing* each interval, classify it into a small load state, and steer
the shaper rate between a floor and a ceiling —

* ``GREEN`` — no queueing delay to speak of: probe upward toward the
  ceiling (the link may have capacity the shaper is wasting);
* ``YELLOW`` — delay near the AQM target: hold the current rate;
* ``SOFT_RED`` — delay well above target: back off gently;
* ``RED`` — delay runaway (or the cellular link collapsed under us):
  cut hard toward the floor so the standing queue drains.

Here the delta-RTT signal is the qdisc's own *mean* sojourn time since
the previous tick (:meth:`QdiscStats.take_mean_sojourn_s`), which on
virtual time is exactly the queueing delay — no wall clock, no RNG, so
serial and parallel campaigns stay byte-identical.  The mean (not the
peak) is deliberate: the anomaly's cross traffic arrives in short
exponential bursts, so the per-interval peak is almost always above any
sane threshold and a peak-driven controller ratchets straight to the
floor.  The mean tracks the *standing* queue the shaper can actually
fix, exactly the statistic real autorate daemons smooth their OWD
samples toward.  The controller
self-terminates after ``horizon_s`` like the path's stall process, so
``Simulator.run()`` without an explicit end time still drains.
"""

from __future__ import annotations

from enum import Enum
from typing import TYPE_CHECKING

from repro import instruments
from repro.qdisc.cake import CakeQueue

if TYPE_CHECKING:
    from repro.net.link import Link
    from repro.net.sim import Simulator

__all__ = ["ShaperState", "AutorateController"]


class ShaperState(Enum):
    """Load classification of the bottleneck, greenest first."""

    GREEN = "green"
    YELLOW = "yellow"
    SOFT_RED = "soft_red"
    RED = "red"


#: Multiplicative rate steps per state (GREEN probes up, RED cuts hard).
#: Tuned gentle: on a burst-dominated bottleneck every excursion costs
#: goodput for as long as recovery takes, so cuts are shallow and the
#: GREEN probe climbs back within a couple of ticks.
_STEP = {
    ShaperState.GREEN: 1.1,
    ShaperState.YELLOW: 1.0,
    ShaperState.SOFT_RED: 0.95,
    ShaperState.RED: 0.85,
}


class AutorateController:
    """Retunes a :class:`CakeQueue` shaper from its own sojourn signal.

    Args:
        sim: Shared simulator.
        link: The bottleneck hop (used for diagnostics naming only).
        cake: The shaped qdisc whose ``shaper_rate_bps`` is steered.
        target_s: Delay setpoint; state thresholds are multiples of it.
        interval_s: Control-loop tick period.
        floor_ratio: Lowest allowed rate as a fraction of the ceiling.
        horizon_s: Stop ticking after this virtual time.
    """

    def __init__(
        self,
        sim: Simulator,
        link: Link,
        cake: CakeQueue,
        target_s: float,
        interval_s: float = 0.5,
        floor_ratio: float = 0.5,
        horizon_s: float = 3600.0,
    ) -> None:
        if target_s <= 0 or interval_s <= 0:
            raise ValueError("autorate target/interval must be positive")
        if not 0.0 < floor_ratio <= 1.0:
            raise ValueError(f"autorate floor_ratio out of (0, 1]: {floor_ratio}")
        self._sim = sim
        self._link = link
        self._cake = cake
        self.target_s = target_s
        self.interval_s = interval_s
        self.ceiling_bps = cake.shaper_rate_bps
        self.floor_bps = floor_ratio * self.ceiling_bps
        self._horizon_s = horizon_s
        self.state = ShaperState.GREEN
        self._state_entered_s = sim.now
        #: Virtual seconds spent in each state (closed out on retune()).
        self.dwell_s: dict[ShaperState, float] = {s: 0.0 for s in ShaperState}
        self.transitions = 0
        self.ticks = 0
        self._tracer = instruments.current().tracer
        sim.schedule(self.interval_s, self._tick)

    # -- the control loop ------------------------------------------------

    def classify(self, mean_sojourn_s: float) -> ShaperState:
        """Map one interval's mean queueing delay to a load state."""
        if mean_sojourn_s <= self.target_s:
            return ShaperState.GREEN
        if mean_sojourn_s <= 2.0 * self.target_s:
            return ShaperState.YELLOW
        if mean_sojourn_s <= 4.0 * self.target_s:
            return ShaperState.SOFT_RED
        return ShaperState.RED

    def _tick(self) -> None:
        now = self._sim.now
        self.ticks += 1
        mean = self._cake.stats.take_mean_sojourn_s()
        new_state = self.classify(mean)
        if new_state is not self.state:
            self._close_dwell(now)
            if self._tracer.enabled:
                self._tracer.instant(
                    f"qdisc.autorate.{new_state.value}",
                    now,
                    mean_sojourn_ms=mean * 1e3,
                )
            self.state = new_state
            self.transitions += 1
        rate = self._cake.shaper_rate_bps * _STEP[self.state]
        rate = min(self.ceiling_bps, max(self.floor_bps, rate))
        self._cake.shaper_rate_bps = rate
        if self._tracer.enabled:
            self._tracer.counter("qdisc.autorate.rate_bps", now, rate)
        if now < self._horizon_s:
            self._sim.schedule(self.interval_s, self._tick)
        else:
            self._close_dwell(now)

    def _close_dwell(self, now_s: float) -> None:
        elapsed = now_s - self._state_entered_s
        self.dwell_s[self.state] += elapsed
        if self._tracer.enabled and elapsed > 0.0:
            self._tracer.complete(
                f"qdisc.autorate.dwell.{self.state.value}", self._state_entered_s, now_s
            )
        self._state_entered_s = now_s

    def finish(self, now_s: float) -> None:
        """Close out the open dwell interval (call at campaign end)."""
        self._close_dwell(now_s)
