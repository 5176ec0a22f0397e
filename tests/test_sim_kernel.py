"""The list-entry event kernel dispatches exactly as the event-object one.

``Simulator`` keeps ``[time, seq, callback, args]`` lists in its heap and
cancels an entry by clearing its callback; ``push`` and ``push_held``
hand the entry itself to the owner, and only ``schedule`` wraps it in an
``Event`` handle.  :class:`ReferenceSimulator` below keeps the earlier
kernel, whose heap held ``(time, seq, event)`` tuples and whose every
push allocated an ``Event`` that carried its own cancelled flag, as the
reference each random script is run against.  A script matches when the
dispatch log (instant, label and ``pending_events()`` at every callback),
every ``reached`` answer, every held-instant tie, and the final
``counters()`` and ``pending_events()`` are identical.

The reference has no ``stop()``: scripts with stops run on
``Simulator`` as a run that ends at each stopping event and resumes,
and must match the reference's one uninterrupted run.  Such a run adds
its ``executed`` count when it stops, before the uninterrupted run
would, so for them only the log's "run" entries compare ``executed``.
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.sim import (
    COMPACT_MIN_CANCELLED,
    HOLDS_SWEEP_MIN,
    Event,
    SimCounters,
    Simulator,
    _stop_run,
)

Key = tuple[float, int]


class ReferenceEvent:
    """A scheduled callback that knows its simulator until it fires."""

    __slots__ = ("callback", "args", "cancelled", "sim")

    def __init__(self, callback: Callable[..., None], args: tuple[Any, ...]) -> None:
        self.callback = callback
        self.args = args
        self.cancelled = False
        self.sim: ReferenceSimulator | None = None

    def cancel(self) -> None:
        if self.cancelled:
            return
        self.cancelled = True
        sim = self.sim
        if sim is not None:
            sim._pending -= 1
            sim.events_cancelled += 1
            sim._dead += 1
            if sim._dead > COMPACT_MIN_CANCELLED and 2 * sim._dead > len(sim._heap):
                sim._compact()


class ReferenceSimulator:
    """The event-object kernel: ``(time, seq, event)`` heap entries."""

    def __init__(self) -> None:
        self.now = 0.0
        self._heap: list[tuple[float, int, ReferenceEvent]] = []
        self._seq = 0
        self._pending = 0
        self._dead = 0
        self.events_scheduled = 0
        self.events_executed = 0
        self.events_cancelled = 0
        self._cursor = 0
        self._holds: dict[float, tuple[Key, ReferenceEvent, Callable[[], None]]] = {}
        self._holds_limit = HOLDS_SWEEP_MIN

    def schedule(self, delay: float, callback: Callable[..., None], *args: Any) -> ReferenceEvent:
        if not delay >= 0.0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        time = self.now + delay
        if time in self._holds:
            self._break_hold(time)
        return self._push((time, self._seq), callback, args)

    def schedule_at(self, time: float, callback: Callable[..., None], *args: Any) -> ReferenceEvent:
        delay = time - self.now
        if -1e-9 <= delay < 0.0:
            delay = 0.0
        return self.schedule(delay, callback, *args)

    def claim(self, delay: float) -> Key:
        if not delay >= 0.0:
            raise ValueError(f"cannot schedule in the past (delay={delay})")
        self._seq += 1
        time = self.now + delay
        if time in self._holds:
            self._break_hold(time)
        return (time, self._seq)

    def push(self, key: Key, callback: Callable[..., None], *args: Any) -> ReferenceEvent:
        return self._push(key, callback, args)

    def _push(self, key: Key, callback: Callable[..., None], args: tuple) -> ReferenceEvent:
        event = ReferenceEvent(callback, args)
        event.sim = self
        heapq.heappush(self._heap, (key[0], key[1], event))
        self._pending += 1
        self.events_scheduled += 1
        return event

    def reached(self, key: Key) -> bool:
        time = key[0]
        return time < self.now or (time == self.now and key[1] <= self._cursor)

    def push_held(
        self,
        anchor: Key,
        time: float,
        on_tie: Callable[[], None],
        callback: Callable[..., None],
        *args: Any,
    ) -> ReferenceEvent | None:
        self._seq += 1
        holds = self._holds
        if time in holds:
            if self._break_hold(time):
                return None
        elif len(holds) >= self._holds_limit:
            position = (self.now, self._cursor)
            holds = self._holds = {t: h for t, h in holds.items() if h[0] > position}
            self._holds_limit = max(HOLDS_SWEEP_MIN, 2 * len(holds))
        event = self._push((time, self._seq), callback, args)
        holds[time] = (anchor, event, on_tie)
        return event

    def _break_hold(self, time: float) -> bool:
        anchor, event, on_tie = self._holds.pop(time)
        if self.reached(anchor):
            return False
        event.cancel()
        on_tie()
        return True

    def run(self, until: float | None = None) -> None:
        heap = self._heap
        executed = 0  # added when the loop exits, as Simulator.run does
        try:
            while heap:
                if until is not None and heap[0][0] > until:
                    break
                etime, seq, event = heapq.heappop(heap)
                if event.cancelled:
                    self._dead -= 1
                    continue
                event.sim = None  # a late cancel() on a fired event is a no-op
                self._pending -= 1
                executed += 1
                self.now = etime
                self._cursor = seq
                event.callback(*event.args)
        finally:
            self.events_executed += executed
        if until is not None and self.now < until:
            self.now = until
        self._cursor = self._seq

    def _compact(self) -> None:
        heap = self._heap
        heap[:] = [entry for entry in heap if not entry[2].cancelled]
        heapq.heapify(heap)
        self._dead = 0

    def counters(self) -> SimCounters:
        return SimCounters(self.events_scheduled, self.events_executed, self.events_cancelled)

    def pending_events(self) -> int:
        return self._pending


# -- random scripts ---------------------------------------------------------------

#: Few distinct delays, so many events share an instant and sort by seq.
DELAYS = (0.0, 0.5, 1.0, 1.5, 2.0)
#: A burst of this many scheduled-then-cancelled events outnumbers the
#: live entries of a small heap, so the heap is rebuilt without them.
BURST = COMPACT_MIN_CANCELLED + 8

delays = st.sampled_from(DELAYS)
schedule = st.tuples(st.just("schedule"), delays)
claim = st.tuples(st.just("claim"), delays)
# hold: claim index, follow-up offset after the anchor, push the anchor too
hold = st.tuples(
    st.just("hold"), st.integers(0, 63), st.sampled_from((0.0, 0.5, 1.0)), st.booleans()
)
cancel = st.tuples(st.sampled_from(("cancel", "cancel-twice")), st.integers(0, 10_000))
# Repeated branches weigh the draw toward the operations that fill the heap.
ops = st.one_of(
    schedule, schedule, schedule, claim, claim, hold, hold, cancel, cancel,
    st.tuples(st.just("push"), st.integers(0, 63)),
    st.tuples(st.just("burst"), delays),
)
horizons = st.lists(st.sampled_from((0.5, 1.0, 1.5, 2.5, 4.0)), max_size=3)
scripts = st.fixed_dictionaries({
    "initial": st.lists(ops, min_size=4, max_size=40),
    # actions[k] runs inside the k-th callback that fires
    "actions": st.lists(st.lists(ops, min_size=1, max_size=4), min_size=8, max_size=80),
    "horizons": horizons,
})
#: About one op in eight stops the run.  ``("stop", True)`` goes on with
#: the rest of its batch inside the stopping callback, as a sender's
#: completion cancels its retransmission timer after stopping;
#: ``("stop", False)`` leaves the rest for after ``run`` has returned.
stop_ops = st.one_of(st.tuples(st.just("stop"), st.booleans()), *(ops,) * 7)
stop_scripts = st.fixed_dictionaries({
    "initial": st.lists(stop_ops, min_size=4, max_size=40),
    "actions": st.lists(st.lists(stop_ops, min_size=1, max_size=4), min_size=8, max_size=80),
    "horizons": horizons,
})


class _Player:
    """Plays one script on one kernel and logs everything observable.

    With ``stops``, a ``("stop", go_on)`` op calls ``sim.stop()``.  With
    ``go_on`` the rest of its batch runs on inside the callback, with the
    stop pending; otherwise :func:`play` applies the rest once ``run``
    has returned, before it resumes the run.  Nothing is dispatched in
    between either way, so the reference, which skips the op, applies
    the same ops in the same kernel state.  Without ``stops`` the op is
    skipped.  Without ``per_op_executed`` the log entry after each op
    leaves out ``executed``.
    """

    def __init__(
        self, sim, actions: list, stops: bool = False, per_op_executed: bool = True
    ) -> None:
        self.sim = sim
        self.actions = actions
        self.stops = stops
        self.per_op_executed = per_op_executed
        self.log: list[tuple] = []
        self.handles: list[Any] = []  # every handle/entry, including None fall-backs
        self.claims: list[list] = []  # [key, used]
        self.fires = 0
        self.stopped_at: float | None = None
        self.after_stop: list[tuple] = []

    def apply_all(self, batch: list[tuple]) -> None:
        for index, op in enumerate(batch):
            if op[0] != "stop":
                self.apply(op)
            elif self.stops:
                self.sim.stop()
                self.stopped_at = self.sim.now
                if not op[1]:
                    self.after_stop = batch[index + 1:]
                    return

    def cancel(self, handle: Any) -> None:
        if handle is None:
            return
        if isinstance(handle, list):  # a heap entry of the list kernel
            self.sim.cancel(handle)
        else:
            handle.cancel()

    def fire(self, label: int) -> None:
        sim = self.sim
        self.log.append(("fire", sim.now.hex(), label, sim.pending_events()))
        if self.fires < len(self.actions):
            batch = self.actions[self.fires]
            self.fires += 1
            self.apply_all(batch)

    def _free_claim(self, index: int) -> list | None:
        """An unused claim whose key the loop has not reached, if any."""
        if not self.claims:
            return None
        claim = self.claims[index % len(self.claims)]
        reached = self.sim.reached(claim[0])
        self.log.append(("reached", reached))
        if claim[1] or reached:
            return None
        claim[1] = True
        return claim

    def hold(self, key: Key, offset: float, eager: bool) -> None:
        """Own a deferred anchor event and its held follow-up, as ``Link`` does."""
        sim = self.sim
        label = len(self.handles)
        time = key[0] + offset
        owner = {"handed_back": False, "pushed": False}

        def anchor_fired() -> None:
            self.log.append(("anchor", sim.now.hex(), label))
            if owner["handed_back"]:
                self.handles.append(sim.schedule_at(time, self.fire, label))

        def push_anchor() -> None:
            if not owner["pushed"]:
                owner["pushed"] = True
                self.handles.append(sim.push(key, anchor_fired))

        def on_tie() -> None:
            self.log.append(("tie", sim.now.hex(), label))
            owner["handed_back"] = True
            push_anchor()

        held = sim.push_held(key, time, on_tie, self.fire, label)
        self.handles.append(held)
        if held is None:
            owner["handed_back"] = True
        if held is None or eager:
            push_anchor()

    def apply(self, op: tuple) -> None:
        sim = self.sim
        kind = op[0]
        if kind == "schedule":
            self.handles.append(sim.schedule(op[1], self.fire, len(self.handles)))
        elif kind == "claim":
            self.claims.append([sim.claim(op[1]), False])
        elif kind == "push":
            claim = self._free_claim(op[1])
            if claim is not None:
                self.handles.append(sim.push(claim[0], self.fire, len(self.handles)))
        elif kind == "hold":
            claim = self._free_claim(op[1])
            if claim is not None:
                self.hold(claim[0], op[2], op[3])
        elif kind in ("cancel", "cancel-twice"):
            if self.handles:
                handle = self.handles[op[1] % len(self.handles)]
                self.cancel(handle)
                if kind == "cancel-twice":
                    self.cancel(handle)
        elif kind == "burst":
            burst = [sim.schedule(op[1], self.fire, -1) for _ in range(BURST)]
            for handle in burst:
                self.cancel(handle)
            self.handles.extend(burst)
        scheduled, executed, cancelled = sim.counters()
        if self.per_op_executed:
            self.log.append(("counters", (scheduled, executed, cancelled), sim.pending_events()))
        else:
            self.log.append(("counters", (scheduled, cancelled), sim.pending_events()))


class _Counting(Simulator):
    """A ``Simulator`` that counts its runs and its heap rebuilds made
    while a stop is pending."""

    runs = 0
    compactions_while_stopping = 0

    def run(self, until: float | None = None) -> None:
        self.runs += 1
        super().run(until)

    def _compact(self) -> None:
        stopping = self._heap[0][2] is _stop_run
        super()._compact()
        if stopping:
            assert self._heap[0][2] is _stop_run  # the sentinel still sorts first
            self.compactions_while_stopping += 1


def play(script: dict, sim, stops: bool = False, per_op_executed: bool = True) -> list[tuple]:
    player = _Player(sim, script["actions"], stops, per_op_executed)
    player.apply_all(script["initial"])
    for horizon in sorted(script["horizons"]) + [None]:
        sim.run(until=horizon)
        while player.stopped_at is not None:
            # The run ended at the stopping event, even under ``until``.
            assert sim.now == player.stopped_at
            player.stopped_at = None
            rest, player.after_stop = player.after_stop, []
            player.apply_all(rest)  # may stop again
            sim.run(until=horizon)
        player.log.append(("run", sim.now.hex(), tuple(sim.counters()), sim.pending_events()))
        # Between runs, cancel every third handle: pending, fired, cancelled
        # and compacted-away entries alike.
        for handle in player.handles[::3]:
            player.cancel(handle)
        player.log.append(("recancel", tuple(sim.counters()), sim.pending_events()))
    # Everything has fired or been cancelled: late cancels change nothing.
    settled = (tuple(sim.counters()), sim.pending_events())
    for handle in player.handles:
        player.cancel(handle)
    assert (tuple(sim.counters()), sim.pending_events()) == settled
    return player.log


class TestAgainstReferenceKernel:
    @given(scripts)
    @settings(max_examples=200, deadline=None)
    def test_random_scripts_dispatch_identically(self, script):
        assert play(script, Simulator()) == play(script, ReferenceSimulator())

    @given(stop_scripts)
    @settings(max_examples=200, deadline=None)
    def test_stopped_and_resumed_runs_dispatch_as_one_run(self, script):
        stopped = play(script, Simulator(), stops=True, per_op_executed=False)
        assert stopped == play(script, ReferenceSimulator(), per_op_executed=False)

    def test_a_stop_at_a_claimed_instant_resumes_in_order(self):
        # Stops before the first run, inside callbacks under a horizon and
        # twice in one batch; the ops after each stop claim, push and hold
        # keys at the stopping instant before the run resumes.
        script = {
            "initial": [
                ("schedule", 0.5), ("claim", 0.5), ("claim", 1.0), ("stop", False),
                ("schedule", 0.5), ("hold", 0, 0.0, False),
            ],
            "actions": [
                [("claim", 0.0), ("stop", False), ("push", 2), ("schedule", 0.0)],
                [("stop", False), ("hold", 3, 0.0, False), ("stop", False), ("claim", 0.0)],
                [("push", 4), ("stop", False)],
                [("schedule", 1.0), ("burst", 0.0), ("stop", False), ("cancel", 5)],
            ],
            "horizons": [0.5, 1.5],
        }
        sim = _Counting()
        log = play(script, sim, stops=True, per_op_executed=False)
        assert log == play(script, ReferenceSimulator(), per_op_executed=False)
        assert sim.runs == len(script["horizons"]) + 1 + 6  # six stops, six resumes
        kinds = {entry[0] for entry in log}
        assert {"fire", "anchor", "reached"} <= kinds

    def test_ops_after_a_stop_inside_the_callback_run_as_in_one_run(self):
        # Each stop goes on inside its callback: it cancels, claims, pushes,
        # holds and schedules with the stop pending, and a cancelled burst
        # rebuilds the heap with the stop's sentinel on it.
        script = {
            "initial": [
                ("schedule", 0.5), ("schedule", 0.5), ("claim", 0.5), ("claim", 1.0),
                ("schedule", 1.0), ("hold", 0, 0.0, False),
            ],
            "actions": [
                [("stop", True), ("cancel", 1), ("burst", 0.5), ("claim", 0.0), ("push", 2)],
                [("stop", True), ("hold", 1, 0.5, False), ("schedule", 0.0), ("stop", True)],
                [("stop", True), ("cancel-twice", 4), ("stop", False), ("schedule", 0.5)],
                [("schedule", 0.0), ("stop", True), ("burst", 0.0), ("cancel", 3)],
            ],
            "horizons": [0.5, 1.5],
        }
        sim = _Counting()
        log = play(script, sim, stops=True, per_op_executed=False)
        assert log == play(script, ReferenceSimulator(), per_op_executed=False)
        assert sim.runs == len(script["horizons"]) + 1 + 4  # four stopped runs resumed
        assert sim.compactions_while_stopping == 2
        assert sum(entry[0] == "fire" for entry in log) > len(script["actions"])

    def test_scripts_reach_every_path(self):
        # One hand-written script through compaction, ties and fall-backs.
        script = {
            "initial": [
                ("schedule", 1.0), ("claim", 0.5), ("claim", 0.5), ("claim", 1.0),
                ("hold", 0, 0.5, False), ("hold", 1, 0.5, False),  # tie: both fall back
                ("hold", 2, 0.0, True), ("burst", 2.0), ("cancel", 0),
            ],
            "actions": [
                [("claim", 0.5), ("schedule", 0.0), ("cancel-twice", 3)],
                [("hold", 3, 0.0, False), ("schedule", 0.5)],  # schedule breaks the hold
                [("cancel", 1), ("burst", 0.5)],
            ],
            "horizons": [0.5, 1.0],
        }
        log = play(script, Simulator())
        assert log == play(script, ReferenceSimulator())
        kinds = {entry[0] for entry in log}
        assert {"fire", "anchor", "tie", "reached"} <= kinds


class TestListEntries:
    def test_push_returns_the_heap_entry(self):
        sim = Simulator()
        fired = []
        entry = sim.push(sim.claim(1.0), fired.append, "x")
        assert entry == [1.0, 1, fired.append, ("x",)]
        assert sim._heap == [entry]
        sim.run()
        assert fired == ["x"]

    def test_cancel_clears_the_callback_in_place(self):
        sim = Simulator()
        entry = sim.push(sim.claim(1.0), lambda: None)
        sim.cancel(entry)
        assert entry[2] is None and sim.counters() == (1, 0, 1)
        sim.cancel(entry)  # a second cancel is a no-op
        assert sim.counters() == (1, 0, 1) and sim.pending_events() == 0

    def test_cancel_of_a_fired_entry_is_a_no_op(self):
        sim = Simulator()
        entry = sim.push(sim.claim(1.0), lambda: None)
        sim.run()
        sim.cancel(entry)
        assert entry[2] is not None
        assert sim.counters() == (1, 1, 0) and sim.pending_events() == 0

    def test_an_entry_cannot_cancel_itself_while_firing(self):
        sim = Simulator()
        holder = []
        holder.append(sim.push(sim.claim(1.0), lambda: sim.cancel(holder[0])))
        sim.run()
        assert sim.counters() == (1, 1, 0)

    def test_schedule_returns_a_handle_on_the_entry(self):
        sim = Simulator()
        fired = []
        handle = sim.schedule(1.0, fired.append, "x")
        assert isinstance(handle, Event) and not handle.cancelled
        handle.cancel()
        assert handle.cancelled and sim.pending_events() == 0
        sim.run()
        assert fired == []


class TestStop:
    def test_a_stop_under_until_leaves_now_at_the_stopping_event(self):
        sim = Simulator()
        fired = []

        def stop_here(tag):
            fired.append(tag)
            sim.stop()

        sim.schedule(1.0, stop_here, "a")
        sim.schedule(1.0, fired.append, "b")
        sim.schedule(2.0, fired.append, "c")
        sim.run(until=5.0)
        assert (sim.now, fired) == (1.0, ["a"])
        assert sim.counters() == (3, 1, 0) and sim.pending_events() == 2
        sim.run(until=5.0)
        assert (sim.now, fired) == (5.0, ["a", "b", "c"])
        assert sim.counters() == (3, 3, 0) and sim.pending_events() == 0

    def test_stopping_twice_in_one_event_stops_once(self):
        sim = Simulator()
        fired = []

        def stop_twice():
            sim.stop()
            sim.stop()

        sim.schedule(1.0, stop_twice)
        sim.schedule(2.0, fired.append, "after")
        sim.run()
        assert sim.now == 1.0 and fired == []
        sim.run()
        assert sim.now == 2.0 and fired == ["after"]

    def test_a_stop_between_runs_dispatches_nothing(self):
        sim = Simulator()
        fired = []
        sim.schedule(0.0, fired.append, "x")
        sim.stop()
        sim.run(until=1.0)
        assert (sim.now, fired, sim.counters()) == (0.0, [], (1, 0, 0))
        sim.run(until=1.0)
        assert (sim.now, fired, sim.counters()) == (1.0, ["x"], (1, 1, 0))
