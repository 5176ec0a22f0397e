"""A minimal discrete-event simulator.

Every network and transport component schedules callbacks on one shared
:class:`Simulator`.  The design favours raw event throughput — packet-level
TCP at hundreds of megabits produces millions of events per simulated
minute — so the heap holds ``(time, seq, event)`` tuples rather than
process objects.  ``seq`` is unique, so every sift compares a float and
an int in C and never reaches the :class:`Event`, which carries only the
callback and a cancellation flag.  Cancellation is lazy: a cancelled
entry stays in the heap until it is popped, unless cancelled entries come
to dominate the heap (every re-armed RTO timer of a TCP transfer leaves
one behind) and it is rebuilt without them.  Pop order depends only on
the ``(time, seq)`` keys, so the rebuild never changes the schedule.

Each simulator keeps lightweight event counters (scheduled / executed /
cancelled), and the module aggregates the same counters across every
instance in the process so campaign instrumentation
(:mod:`repro.runner.instrument`) can report how much simulation work an
experiment performed without wrapping individual simulators.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from typing import Any, NamedTuple

from repro import instruments

__all__ = ["Event", "SimCounters", "Simulator", "global_counters"]

#: Scheduling slightly in the past happens when callers compute an absolute
#: timestamp as ``now + dt`` and float rounding pushes the reconstructed
#: delay a few ULPs negative.  Delays within this tolerance are clamped to
#: "fire immediately" instead of crashing mid-simulation.
PAST_TOLERANCE_S = 1e-9

#: The heap is rebuilt without its cancelled entries once more than this
#: many are in it and they outnumber the live ones, so a rebuild costs
#: O(1) amortised per cancel.
COMPACT_MIN_CANCELLED = 64


class SimCounters(NamedTuple):
    """A snapshot of event counters (per simulator or process-wide)."""

    scheduled: int
    executed: int
    cancelled: int


# Process-wide totals across all Simulator instances, for instrumentation.
_total_scheduled = 0
_total_executed = 0
_total_cancelled = 0


def global_counters() -> SimCounters:
    """Snapshot of event counters summed over every simulator in the process."""
    return SimCounters(_total_scheduled, _total_executed, _total_cancelled)


class Event:
    """A scheduled callback; cancel with :meth:`cancel`.

    Its time and sequence number live only in the heap entry that holds it.
    """

    __slots__ = ("callback", "args", "cancelled", "sim")

    def __init__(self, callback: Callable[..., None], args: tuple[Any, ...]) -> None:
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.sim: "Simulator | None" = None

    def cancel(self) -> None:
        """Prevent the callback from firing (O(1) amortised; removal is lazy)."""
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            global _total_cancelled
            sim._pending -= 1
            sim.events_cancelled += 1
            _total_cancelled += 1
            sim._dead += 1
            if sim._dead > COMPACT_MIN_CANCELLED and 2 * sim._dead > len(sim._heap):
                sim._compact()


class Simulator:
    """Event loop with virtual time.

    Example:
        >>> sim = Simulator()
        >>> fired = []
        >>> _ = sim.schedule(1.5, fired.append, "hello")
        >>> sim.run()
        >>> (sim.now, fired)
        (1.5, ['hello'])
    """

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, Event]] = []
        self._seq = 0
        self._pending = 0
        self._dead = 0  # cancelled entries still in the heap
        self.events_scheduled = 0
        self.events_executed = 0
        self.events_cancelled = 0
        # Captured once at construction: with nothing installed these are
        # the null tracer and auditor, whose hooks run() never calls.
        active = instruments.current()
        self.tracer = active.tracer
        self.auditor = active.auditor

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now."""
        if not delay >= 0.0:  # also rejects NaN, which would poison ``now``
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        global _total_scheduled
        self._seq += 1
        event = Event(callback, args)
        event.sim = self
        heapq.heappush(self._heap, (self.now + delay, self._seq, event))
        self._pending += 1
        self.events_scheduled += 1
        _total_scheduled += 1
        return event

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` at absolute simulation time ``time``.

        ``time`` a few ULPs before ``now`` (|delay| <= ``PAST_TOLERANCE_S``)
        is treated as "now": float rounding in ``time - now`` must not crash
        a simulation that computed the timestamp from ``now`` itself.
        """
        delay = time - self.now
        if -PAST_TOLERANCE_S <= delay < 0.0:
            delay = 0.0
        return self.schedule(delay, callback, *args)

    def run(self, until: float | None = None) -> None:
        """Run events in order until the heap drains or ``until`` is reached.

        With ``until`` set, simulation time always advances exactly to
        ``until`` even if the heap drains earlier.

        Each dispatch probes virtual-time monotonicity with one float
        compare.  ``schedule()`` rejects negative and NaN delays, so a
        dispatch behind ``now`` means an entry pushed onto the heap behind
        ``schedule()``'s back; only then is the auditor called, to flag it.
        Tracing is decided once per call and records a dispatch span and a
        queue-depth sample.
        """
        global _total_executed
        heap = self._heap  # compaction rebuilds this list in place
        tracer = self.tracer
        traced = tracer.enabled
        now = self.now  # local mirror: one compare per event, no attr load
        while heap:
            if until is not None and heap[0][0] > until:
                break
            etime, _, event = heapq.heappop(heap)
            if event.cancelled:
                self._dead -= 1
                continue
            # Detach so a late cancel() on a fired event cannot skew counters.
            event.sim = None
            self._pending -= 1
            self.events_executed += 1
            _total_executed += 1
            if etime < now:
                self.auditor.flag(
                    "audit.sim.time_regression_s",
                    etime,
                    regression_s=now - etime,
                )
            now = self.now = etime
            event.callback(*event.args)
            if traced:
                # __qualname__ keeps the label deterministic; repr() of a bound
                # method or partial would embed a memory address.
                callback = event.callback
                label = getattr(callback, "__qualname__", None) or type(callback).__name__
                tracer.complete("sim.dispatch", etime, self.now, callback=label)
                tracer.counter("sim.queue_depth", self.now, float(self._pending))
        if until is not None and self.now < until:
            self.now = until

    def _compact(self) -> None:
        """Drop every cancelled entry from the heap, in place."""
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._dead = 0

    def counters(self) -> SimCounters:
        """Snapshot of this simulator's event counters."""
        return SimCounters(self.events_scheduled, self.events_executed, self.events_cancelled)

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._pending
