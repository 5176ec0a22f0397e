"""A minimal discrete-event simulator.

Every network and transport component schedules callbacks on one shared
:class:`Simulator`.  The design favours raw event throughput — packet-level
TCP at hundreds of megabits produces millions of events per simulated
minute — so the heap holds plain ``[time, seq, callback, args]`` lists
rather than process or event objects.  ``seq`` is unique, so every sift
compares a float and an int in C and never reaches the callback.
:meth:`Simulator.cancel` disarms an entry in place by clearing its
callback; the entry stays in the heap until it is popped, unless
cancelled entries come to dominate the heap and it is rebuilt without
them.  Pop order depends only on the ``(time, seq)`` keys, so the rebuild
never changes the schedule.  An entry that has fired is recognised by
its key (:meth:`Simulator.reached`), so a late, a repeated or a
post-rebuild cancel leaves the counters alone.  :meth:`Simulator.push`
and :meth:`Simulator.push_held` return the entry itself, for owners on
the packet path that keep it; :meth:`Simulator.schedule` wraps it in an
:class:`Event` handle whose ``cancel()`` is ``Simulator.cancel``.

**Claimed keys.**  An event's ``(time, seq)`` key fixes where it runs,
and ``seq`` is handed out in scheduling order, so among events at one
float instant the key also says which was scheduled first.
:meth:`Simulator.claim` takes the key ``schedule`` would give an event
now without pushing anything; the owner may :meth:`Simulator.push` the
event under it later, before the loop gets there, or never.
:meth:`Simulator.reached` tells whether a key lies at or before the event
being dispatched.  It compares ``(time, seq)``, not time alone: a claimed
key and the event being dispatched often share the float instant, and
only ``seq`` says which runs first.  Claims use up ``seq`` exactly where
``schedule`` would have, so a deferred event sorts among the others as it
did when everything was scheduled eagerly, and the events that do run,
run in the same order: deferring changes how many entries pass through
the heap, never the dispatch order.  ``Link`` claims the serializer key
of each packet and pushes it only when a backlog needs it; ``TcpSender``
claims a key per RTO re-arm and keeps one live timer entry.

**Held instants.**  A deferred event may itself schedule something first
thing when it runs: a serialization end schedules the packet's delivery.
:meth:`Simulator.push_held` pushes that follow-up ahead of time, under a
``seq`` taken now rather than at the anchor.  The two keys sort alike
against every event at the follow-up's instant except one claimed in
between, after the provisional ``seq`` but before the anchor is reached:
it belongs before the real key and after the provisional one.  The
simulator watches each held instant until its anchor is reached; the
first such claim cancels the follow-up and hands it back to its owner,
which pushes the anchor event after all and schedules the follow-up from
it, as the eager schedule did.

**Stopping.**  :meth:`Simulator.stop`, called from a callback, ends
``run()`` right after that callback's event and leaves ``now`` at its
time, even under ``until``.  It pushes a sentinel entry under the
stopping event's own key, which sorts before every entry left in the
heap; the loop pops it next and its callback raises out of the loop.
The loop therefore tests nothing per dispatch, and the sentinel is
neither a scheduled nor an executed event.  The rest of the heap,
every claimed key and every held instant stay as they are, and the
cursor stays on the stopping event, so a later ``run()`` resumes
exactly where an uninterrupted run would have gone on.

Each simulator keeps lightweight event counters (scheduled / executed /
cancelled, where "scheduled" counts heap pushes), and the module
aggregates the same counters across every instance in the process so
campaign instrumentation (:mod:`repro.runner.instrument`) can report how
much simulation work an experiment performed without wrapping individual
simulators.
"""

from __future__ import annotations

from collections.abc import Callable
from heapq import heapify, heappop, heappush
from typing import Any, NamedTuple

from repro import instruments

__all__ = ["Entry", "Event", "Key", "SimCounters", "Simulator", "global_counters"]

#: An event's place in the schedule: ``(time, seq)``.
Key = tuple[float, int]

#: A heap entry, ``[time, seq, callback, args]``; a cancelled entry's
#: callback is ``None``.
Entry = list[Any]

#: Scheduling slightly in the past happens when callers compute an absolute
#: timestamp as ``now + dt`` and float rounding pushes the reconstructed
#: delay a few ULPs negative.  Delays within this tolerance are clamped to
#: "fire immediately" instead of crashing mid-simulation.
PAST_TOLERANCE_S = 1e-9

#: The heap is rebuilt without its cancelled entries once more than this
#: many are in it and they outnumber the live ones, so a rebuild costs
#: O(1) amortised per cancel.
COMPACT_MIN_CANCELLED = 64

#: Held instants are swept for reached anchors once the table holds this
#: many, and again whenever it doubles past what the last sweep kept.
HOLDS_SWEEP_MIN = 64


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


class _Stop(Exception):
    """Raised by the stop sentinel's callback to leave :meth:`Simulator.run`."""


def _stop_run() -> None:
    raise _Stop


class Event:
    """The handle :meth:`Simulator.schedule` returns; cancel with :meth:`cancel`.

    It only points at the heap entry, which holds the time, ``seq``,
    callback and arguments; :meth:`cancel` is :meth:`Simulator.cancel`
    of that entry.
    """

    __slots__ = ("_sim", "_entry")

    def __init__(self, sim: Simulator, entry: Entry) -> None:
        self._sim = sim
        self._entry = entry

    def cancel(self) -> None:
        """Prevent the callback from firing (O(1) amortised; removal is lazy)."""
        self._sim.cancel(self._entry)

    @property
    def cancelled(self) -> bool:
        """Whether :meth:`cancel` disarmed the entry before it fired."""
        return self._entry[2] is None


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
        self._heap: list[Entry] = []
        self._seq = 0
        self._pending = 0
        self._dead = 0  # cancelled entries still in the heap
        self.events_scheduled = 0
        self.events_executed = 0
        self.events_cancelled = 0
        # seq of the event being dispatched; between runs, every seq
        # claimed so far (all of them at or before ``now`` have run).
        self._cursor = 0
        # Held instants: time -> (anchor key, entry, on_tie), see push_held().
        self._holds: dict[float, tuple[Key, Entry, Callable[[], None]]] = {}
        self._holds_limit = HOLDS_SWEEP_MIN
        # Captured once at construction: with nothing installed these are
        # the null tracer and auditor, whose hooks run() never calls.
        active = instruments.current()
        self.tracer = active.tracer
        self.auditor = active.auditor

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> Event:
        """Schedule ``callback(*args)`` to run ``delay`` seconds from now.

        Returns the :class:`Event` handle that cancels it.
        """
        if not delay >= 0.0:  # also rejects NaN, which would poison ``now``
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        global _total_scheduled
        self._seq = seq = self._seq + 1
        time = self.now + delay
        if time in self._holds:
            self._break_hold(time)
        entry = [time, seq, callback, args]
        heappush(self._heap, entry)
        self._pending += 1
        self.events_scheduled += 1
        _total_scheduled += 1
        return Event(self, entry)

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

    def claim(self, delay: float) -> Key:
        """Claim the key ``schedule(delay, ...)`` would give an event now.

        Nothing is pushed: :meth:`push` the event under the key later, or
        drop the key.  Either way the claim used up its ``seq``, so every
        later event sorts as it would have.
        """
        if not delay >= 0.0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self._seq = seq = self._seq + 1
        time = self.now + delay
        if time in self._holds:
            self._break_hold(time)
        return (time, seq)

    def push(self, key: Key, callback: Callable[..., None], *args: Any) -> Entry:
        """Push ``callback(*args)`` under a key claimed earlier.

        The key must not have been :meth:`reached` yet; it then fires
        exactly where an event scheduled at claim time would have.
        Returns the heap entry, for :meth:`cancel`.
        """
        global _total_scheduled
        entry = [key[0], key[1], callback, args]
        heappush(self._heap, entry)
        self._pending += 1
        self.events_scheduled += 1
        _total_scheduled += 1
        return entry

    def cancel(self, entry: Entry) -> None:
        """Disarm a pending entry so its callback never runs.

        O(1) amortised: the entry stays in the heap, callback cleared,
        until it is popped or the heap is rebuilt without it.  Cancelling
        an entry again, or one that has fired (its key is
        :meth:`reached`), does nothing.
        """
        if entry[2] is None:
            return
        time = entry[0]
        if time < self.now or (time == self.now and entry[1] <= self._cursor):
            return  # fired (or firing): the schedule is past it
        global _total_cancelled
        entry[2] = None
        self._pending -= 1
        self.events_cancelled += 1
        _total_cancelled += 1
        self._dead += 1
        if self._dead > COMPACT_MIN_CANCELLED and 2 * self._dead > len(self._heap):
            self._compact()

    def reached(self, key: Key) -> bool:
        """Whether ``key`` lies at or before the event being dispatched.

        Between runs every key claimed so far at or before ``now`` counts
        as reached, since ``run`` dispatched all of them.
        """
        time = key[0]
        now = self.now
        return time < now or (time == now and key[1] <= self._cursor)

    def push_held(
        self,
        anchor: Key,
        time: float,
        on_tie: Callable[[], None],
        callback: Callable[..., None],
        *args: Any,
    ) -> Entry | None:
        """Push ``callback(*args)`` at ``time`` for the event at ``anchor``.

        Stands in for ``schedule_at`` called first thing when the event
        at the claimed key ``anchor`` is dispatched (``time`` is the float
        that call would produce), for an owner that may never push the
        anchor.  The event goes in now, under a provisional ``seq``, and
        the instant ``time`` is held until the anchor is reached.  A claim
        of that instant in the meantime would sort before the real key
        but after the provisional one, so it cancels the event and calls
        ``on_tie()``: the owner must then push the anchor event and
        schedule ``callback`` from it.  Returns the heap entry, or
        ``None``, holding nothing, when another held event already ties
        at ``time``: the two provisional keys could sort in either order,
        so both owners fall back to their anchors.
        """
        global _total_scheduled
        self._seq = seq = self._seq + 1
        holds = self._holds
        if time in holds:
            if self._break_hold(time):
                return None
        elif len(holds) >= self._holds_limit:
            holds = self._drop_reached_holds()
        # push(), inlined: this runs once per packet per hop.
        entry = [time, seq, callback, args]
        heappush(self._heap, entry)
        self._pending += 1
        self.events_scheduled += 1
        _total_scheduled += 1
        holds[time] = (anchor, entry, on_tie)
        return entry

    def stop(self) -> None:
        """End :meth:`run` right after the event being dispatched.

        ``now`` stays at that event's time, even when ``run`` was given
        ``until``; everything still scheduled stays, and a later ``run``
        dispatches it in the order an uninterrupted run would have.
        Called between runs, it makes the next ``run`` return before
        dispatching anything.  Stopping is not an event: no counter moves.
        """
        heap = self._heap
        if heap and heap[0][2] is _stop_run:
            return  # already stopping
        # The dispatching event's key sorts before every entry in the heap.
        heappush(heap, [self.now, self._cursor, _stop_run, ()])

    def _drop_reached_holds(self) -> dict[float, tuple[Key, Entry, Callable[[], None]]]:
        """Forget every hold whose anchor has been reached, in one sweep.

        An owner holds one instant per anchor, and once the anchor is
        reached nothing can tie with it, so holds are not released one by
        one; this sweep keeps the table at about one entry per owner.
        """
        position = (self.now, self._cursor)
        holds = self._holds = {t: hold for t, hold in self._holds.items() if hold[0] > position}
        self._holds_limit = max(HOLDS_SWEEP_MIN, 2 * len(holds))
        return holds

    def _break_hold(self, time: float) -> bool:
        """Something claimed a held instant: hand the event back if live."""
        anchor, entry, on_tie = self._holds.pop(time)
        if self.reached(anchor):
            return False  # the provisional key already sorts right
        self.cancel(entry)
        on_tie()
        return True

    def run(self, until: float | None = None) -> None:
        """Run events in order until the heap drains or ``until`` is reached.

        With ``until`` set, simulation time always advances exactly to
        ``until`` even if the heap drains earlier.

        Each dispatch probes virtual-time monotonicity with one float
        compare.  ``schedule()`` rejects negative and NaN delays, so a
        dispatch behind ``now`` means an entry pushed onto the heap behind
        ``schedule()``'s back; only then is the auditor called, to flag it.
        Each dispatch also records its ``seq`` for :meth:`reached`.  The
        executed-event counters are summed in a local and added when the
        loop exits.  Tracing is decided once per call and records a
        dispatch span, whose attributes are frozen once per callback
        label, and a queue-depth sample.  A :meth:`stop` sentinel
        passes through the loop like an event and raises out of it; the
        handler takes it back off the counters and returns with ``now``
        and the cursor on the stopping event.
        """
        global _total_executed
        heap = self._heap  # compaction rebuilds this list in place
        tracer = self.tracer
        traced = tracer.enabled
        now = self.now  # local mirror: one compare per event, no attr load
        executed = 0
        dispatch_args: dict[str, tuple[tuple[str, str], ...]] = {}  # label -> frozen
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                etime, seq, callback, args = heappop(heap)
                if callback is None:
                    self._dead -= 1
                    continue
                self._pending -= 1
                executed += 1
                if etime < now:
                    self.auditor.flag(
                        "audit.sim.time_regression_s",
                        etime,
                        regression_s=now - etime,
                    )
                now = self.now = etime
                self._cursor = seq
                callback(*args)
                if traced:
                    # __qualname__ keeps the label deterministic; repr() of a
                    # bound method or partial would embed a memory address.
                    label = getattr(callback, "__qualname__", None) or type(callback).__name__
                    frozen = dispatch_args.get(label)
                    if frozen is None:
                        frozen = dispatch_args[label] = (("callback", label),)
                    tracer.complete_frozen("sim.dispatch", etime, self.now, frozen)
                    tracer.counter("sim.queue_depth", self.now, float(self._pending))
        except _Stop:
            executed -= 1  # the sentinel is not an event
            self._pending += 1
            return
        finally:
            self.events_executed += executed
            _total_executed += executed
        if until is not None and self.now < until:
            self.now = until
        self._cursor = self._seq

    def _compact(self) -> None:
        """Drop every cancelled entry from the heap, in place."""
        heap = self._heap
        heap[:] = [entry for entry in heap if entry[2] is not None]
        heapify(heap)
        self._dead = 0

    def counters(self) -> SimCounters:
        """Snapshot of this simulator's event counters."""
        return SimCounters(self.events_scheduled, self.events_executed, self.events_cancelled)

    def pending_events(self) -> int:
        """Number of not-yet-cancelled events still queued (O(1))."""
        return self._pending
