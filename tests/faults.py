"""Fault injectors that give the audit ledgers a real bug to catch.

``tests/test_audit.py`` and CI's injected-leak demo use them; outside
pytest, patch through a ``pytest.MonkeyPatch.context()``.
"""

from __future__ import annotations

import weakref

from repro.qdisc.codel import CoDelQueue


def leak_codel_heads(monkeypatch, every: int) -> None:
    """Make every ``every``-th dequeue of each CoDel queue lose its head packet.

    The packet leaves with no stats and no book-keeping beyond the raw
    removal, so the queue's recount still matches its books while the flow
    ledger (enqueued = dequeued + drops + resident) breaks.  FQ-CoDel and
    CAKE flow queues are CoDel queues, so they leak too.
    """
    dequeue = CoDelQueue.dequeue
    ticks: weakref.WeakKeyDictionary[CoDelQueue, int] = weakref.WeakKeyDictionary()

    def leaky_dequeue(self, now_s):
        if self._queue:
            ticks[self] = tick = ticks.get(self, 0) + 1
            if tick % every == 0:
                lost, _ = self._queue.popleft()
                self._bytes -= lost.size_bytes
                if not self._queue:
                    self._dropping = False
                    return None
        return dequeue(self, now_s)

    monkeypatch.setattr(CoDelQueue, "dequeue", leaky_dequeue)
