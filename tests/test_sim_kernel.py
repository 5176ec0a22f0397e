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
"""

from __future__ import annotations

import heapq
from collections.abc import Callable
from typing import Any

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.net.sim import COMPACT_MIN_CANCELLED, HOLDS_SWEEP_MIN, Event, SimCounters, Simulator

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
scripts = st.fixed_dictionaries({
    "initial": st.lists(ops, min_size=4, max_size=40),
    # actions[k] runs inside the k-th callback that fires
    "actions": st.lists(st.lists(ops, min_size=1, max_size=4), min_size=8, max_size=80),
    "horizons": st.lists(st.sampled_from((0.5, 1.0, 1.5, 2.5, 4.0)), max_size=3),
})


class _Player:
    """Plays one script on one kernel and logs everything observable."""

    def __init__(self, sim, actions: list) -> None:
        self.sim = sim
        self.actions = actions
        self.log: list[tuple] = []
        self.handles: list[Any] = []  # every handle/entry, including None fall-backs
        self.claims: list[list] = []  # [key, used]
        self.fires = 0

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
            for op in batch:
                self.apply(op)

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
        self.log.append(("counters", tuple(sim.counters()), sim.pending_events()))


def play(script: dict, sim) -> list[tuple]:
    player = _Player(sim, script["actions"])
    for op in script["initial"]:
        player.apply(op)
    for horizon in sorted(script["horizons"]) + [None]:
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
