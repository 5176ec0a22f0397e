"""Audit overhead benchmark: conservation ledgers must be near-free.

Two measurements:

* the dispatch loop with nothing installed vs. a local replica of the
  uninstrumented seed loop — ``Simulator.run`` is one loop, and its only
  per-event additions are a virtual-time compare (the monotonicity probe,
  which calls the auditor only when it fails), a test of the local
  ``traced`` flag and keeping the dispatched ``seq`` (the position
  ``Simulator.reached`` compares claimed keys against), so the ratio must
  stay under 3%.  Its executed-event counters are summed in a local and
  added once the loop exits, where the replica bumps them per event;
* fig11 (the UDP bursty-loss sweep, the audit-heaviest catalogue entry:
  ~30 link ledgers and ~100k idle-path checks per run) audited vs.
  unaudited — the enabled path registers watches and flags violations
  inline, so it may cost real time, but the books must balance at the
  checkpoint, the result must stay byte-identical, and the wall-clock
  ratio must stay under the 10% guard.

Run with plain ``pytest benchmarks/test_audit_overhead.py -s`` (these
tests time themselves and do not use the pytest-benchmark fixture).
"""

import pickle
import statistics
import time
from heapq import heappop

from repro import instruments
from repro.audit import Auditor
from repro.experiments import fig11_bursty_loss
from repro.net.sim import Simulator

#: Replica's own module global, so the counter increment compiles to the
#: same LOAD_GLOBAL/STORE_GLOBAL bytecode as the seed loop's.
_replica_executed = 0


def _seed_loop(sim, until=None):
    """Replica of the pre-instrumentation ``Simulator.run`` loop.

    It walks the kernel's ``[time, seq, callback, args]`` heap entries, so
    the loops differ only in the per-event additions named in the module
    docstring.
    """
    global _replica_executed
    heap = sim._heap
    while heap:
        if until is not None and heap[0][0] > until:
            break
        etime, _, callback, args = heappop(heap)
        if callback is None:
            sim._dead -= 1
            continue
        sim._pending -= 1
        sim.events_executed += 1
        _replica_executed += 1
        sim.now = etime
        callback(*args)
    if until is not None and sim.now < until:
        sim.now = until


def _noop():
    pass


def _filled_simulator(num_events):
    sim = Simulator()
    for i in range(num_events):
        sim.schedule(i * 1e-6, _noop)
    return sim


def test_disabled_path_overhead_vs_seed_loop():
    num_events, fills, chunk = 100_000, 8, 2_000
    # Two heaps of the same events drain side by side, ``chunk`` events at
    # a time (``until`` ends each chunk, in both loops), alternating which
    # loop goes first; each pair of chunks gives one ratio of CPU seconds.
    # The two halves of a pair run a millisecond apart, under the same
    # host load, and the median of 400 ratios resolves a 3% gap, which
    # min-of-5 whole drains did not (they read x0.85 to x1.07 for the same
    # code on a shared 2-vCPU host).  Only the drains are timed.
    ratios, real_s = [], 0.0
    for fill in range(fills):
        real_sim, replica_sim = _filled_simulator(num_events), _filled_simulator(num_events)
        for k in range(num_events // chunk):
            until = ((k + 1) * chunk - 0.5) * 1e-6
            loops = [(Simulator.run, real_sim), (_seed_loop, replica_sim)]
            if (fill + k) % 2:
                loops.reverse()
            spent = {}
            for loop, sim in loops:
                started = time.process_time()
                loop(sim, until)
                spent[loop] = time.process_time() - started
            ratios.append(spent[Simulator.run] / spent[_seed_loop])
            real_s += spent[Simulator.run]
    ratio = statistics.median(ratios)
    rate = fills * num_events / real_s / 1e6
    print(f"\ndisabled-path dispatch: {rate:.2f} M events/s, "
          f"vs seed loop x{ratio:.3f}")
    assert ratio < 1.03, (
        f"the disabled path costs {(ratio - 1) * 100:.1f}% over the seed loop"
    )


def test_fig11_audited_vs_unaudited():
    rounds = 5
    fig11_bursty_loss.run(7)  # warm caches before timing anything

    unaudited_times, audited_times = [], []
    plain = audited = None
    checkpoint_auditor = None
    for _ in range(rounds):
        started = time.perf_counter()
        plain = fig11_bursty_loss.run(7)
        unaudited_times.append(time.perf_counter() - started)

        auditor = Auditor()
        started = time.perf_counter()
        with instruments.using(auditor=auditor):
            audited = fig11_bursty_loss.run(7)
            auditor.checkpoint("bench-end")
        audited_times.append(time.perf_counter() - started)
        checkpoint_auditor = auditor

    unaudited_s, audited_s = min(unaudited_times), min(audited_times)
    ratio = audited_s / unaudited_s
    stats = checkpoint_auditor.stats()
    print(f"\nfig11: unaudited {unaudited_s:.2f}s, audited {audited_s:.2f}s "
          f"(x{ratio:.2f}), {stats.checks} checks, "
          f"{len(checkpoint_auditor.ledger_totals())} ledgers")
    # Auditing must never perturb the physics.
    assert pickle.dumps(audited) == pickle.dumps(plain)
    # ...and the books must actually balance (the bench doubles as an
    # end-to-end conservation regression for the hottest experiment).
    assert checkpoint_auditor.violation_count == 0
    assert stats.checks > 0
    assert any(
        name.startswith("audit.link.")
        for name in checkpoint_auditor.ledger_totals()
    )
    # Ledgers are watch closures evaluated at checkpoints plus inline
    # flag-on-violation guards on the hot paths, so the enabled run must
    # stay within 10% of the unaudited one (min-of-rounds on both sides
    # to suppress scheduler noise).
    assert ratio < 1.10, (
        f"enabled auditing costs {(ratio - 1) * 100:.1f}% over an unaudited run"
    )
