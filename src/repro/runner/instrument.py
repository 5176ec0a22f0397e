"""Per-run instrumentation records.

Every campaign-runner execution carries a :class:`RunRecord` describing
what the run cost: wall time, how many discrete-event-simulator events it
scheduled/executed/cancelled (from the process-wide counters in
:mod:`repro.net.sim`), how many named RNG streams it drew
(:func:`repro.core.rng.streams_drawn`) and the process peak RSS.  Records
are plain picklable dataclasses so they travel back from pool workers and
into the on-disk cache unchanged.

RNG stream counts are strictly **per-process**: each record's figure is a
delta of its own worker's counter (which resets on fork), tagged with the
worker PID.  Summing deltas across records from different workers as if
they shared one counter is only valid per PID — use
:func:`streams_by_worker` to aggregate a parallel campaign correctly.
"""

from __future__ import annotations

import dataclasses
import os
import sys
import time
import traceback as traceback_module
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from typing import Any, TypeVar

from repro import instruments
from repro.audit import core as audit
from repro.audit.export import dump_basename, write_jsonl
from repro.core import rng
from repro.metrics.core import MetricRegistry
from repro.net import sim
from repro.runner import profiling
from repro.trace.analysis import summarize

try:
    import resource
except ImportError:  # pragma: no cover - non-POSIX platforms
    resource = None  # type: ignore[assignment]

__all__ = ["RunRecord", "instrumented_call", "peak_rss_kib", "streams_by_worker"]

T = TypeVar("T")


def peak_rss_kib() -> int:
    """Process peak resident set size in KiB (0 where unavailable).

    ``ru_maxrss`` is a process-lifetime high-water mark, so within one
    worker it is monotone across runs; treat it as "heap never exceeded
    this while the run finished", not as the run's own allocation.
    :func:`instrumented_call` samples it before and after a run so a
    record can also report how much the ceiling *grew* during the run
    (``rss_growth_kib``) — the only per-run figure ``ru_maxrss`` supports.
    """
    if resource is None:
        return 0
    peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    if sys.platform == "darwin":  # macOS reports bytes, Linux reports KiB
        peak //= 1024
    return int(peak)


@dataclass(frozen=True)
class RunRecord:
    """Provenance for one experiment execution.

    ``peak_rss_kib`` is the process-lifetime high-water mark at the end of
    the run (monotone within a worker); ``rss_growth_kib`` is how much that
    mark grew *during* the run — 0 when the run fit inside memory the
    worker had already touched.  ``trace_summary`` carries the tracer's
    emission-count delta when the run executed under an installed tracer,
    else ``None``.  ``metrics`` is the run's KPI-registry snapshot
    (:meth:`repro.metrics.MetricRegistry.snapshot`) when the experiment
    registered any metrics; snapshots are mergeable across runs and
    workers (see :func:`repro.metrics.merge_snapshots`).  ``profile_top``
    carries the run's hottest functions when a
    :class:`~repro.runner.profiling.ProfileCollector` was installed.
    ``scenario_digest`` identifies the :class:`repro.scenario.Scenario`
    the run executed under (empty for pre-scenario records).
    ``failure_traceback`` carries the full formatted traceback when the
    run raised (empty for successful runs) and ``audit_dump_path`` the
    flight-recorder dump written for a failed or violating run, so
    parallel-campaign failures are debuggable post-hoc.  The heartbeat
    pair are this worker's ``time.monotonic()`` stamps around the run
    (0.0 outside heartbeat-tracked campaigns) — the stall watchdog reads
    the same stamps from disk while the run is still in flight.
    """

    experiment: str
    seed: int
    cached: bool
    wall_time_s: float
    events_scheduled: int
    events_executed: int
    events_cancelled: int
    rng_streams_drawn: int
    peak_rss_kib: int
    worker_pid: int
    rss_growth_kib: int = 0
    scenario_digest: str = ""
    trace_summary: dict[str, int] | None = None
    metrics: dict[str, Any] | None = None
    profile_top: list[dict[str, Any]] | None = None
    failure_traceback: str = ""
    audit_dump_path: str = ""
    heartbeat_started_s: float = 0.0
    heartbeat_finished_s: float = 0.0

    def as_dict(self) -> dict[str, Any]:
        """Plain-dict form for JSON export."""
        return dataclasses.asdict(self)

    def as_cached(self) -> "RunRecord":
        """A copy marked as served from the cache."""
        return dataclasses.replace(self, cached=True)


def streams_by_worker(records: Iterable[RunRecord]) -> dict[int, int]:
    """Total RNG streams drawn per worker process across ``records``.

    Cached records are excluded: a cache hit replays a figure measured by
    whichever process originally ran the experiment, so attributing it to
    the serving worker would double-count streams that were never drawn
    in this campaign.
    """
    totals: dict[int, int] = {}
    for record in records:
        if record.cached:
            continue
        totals[record.worker_pid] = (
            totals.get(record.worker_pid, 0) + record.rng_streams_drawn
        )
    return dict(sorted(totals.items()))


def _audit_dump(auditor: audit.Auditor, experiment: str, seed: int, directory: str) -> str:
    """Write the flight recorder under ``directory``; returns the path."""
    path = os.path.join(directory, dump_basename(experiment, seed))
    write_jsonl(auditor, path, meta={"experiment": experiment, "seed": seed})
    return path


def instrumented_call(
    experiment: str,
    seed: int,
    fn: Callable[[], T],
    scenario_digest: str = "",
    out_dir: str | None = None,
    dump_all: bool = False,
) -> tuple[T, RunRecord]:
    """Run ``fn`` and capture a :class:`RunRecord` around it.

    Simulator/RNG figures are deltas of the process-wide counters, so the
    record reflects exactly the work done between entry and exit — including
    any simulators the experiment created internally.

    The run executes under one :class:`repro.instruments.Instruments`
    record: a fresh metric registry and, unless ``REPRO_NO_AUDIT=1``, a
    fresh :class:`repro.audit.Auditor`, plus the caller's tracer and
    profiler.  Components register conservation ledgers at construction,
    residuals are asserted at the run-end checkpoint, and ``audit.*``
    KPIs are exported into the run's metric registry.  A probe violation
    raises :class:`repro.audit.AuditError` (the run *fails*); when the
    run raises — for any reason — the flight recorder is dumped under
    ``out_dir`` (if given) and a failure :class:`RunRecord` plus the dump
    path are attached to the exception for post-hoc debugging.
    ``dump_all`` dumps every run there, violating or not (the determinism
    gate in CI).
    """
    sim_before = sim.global_counters()
    rng_before = rng.streams_drawn()
    rss_before = peak_rss_kib()
    outer = instruments.current()
    tracer = outer.tracer
    trace_before = summarize(tracer) if tracer.enabled else None
    registry = MetricRegistry(origin=f"{experiment}:{seed}")
    auditor = audit.Auditor() if audit.audits_enabled() else None
    # With audits off the run keeps the caller's auditor (normally the null one).
    run_auditor = outer.auditor if auditor is None else auditor
    collector = outer.profiler
    started = time.perf_counter()

    def make_record(
        wall: float, failure_traceback: str = "", audit_dump_path: str = ""
    ) -> RunRecord:
        sim_after = sim.global_counters()
        rss_after = peak_rss_kib()
        trace_summary = None
        if trace_before is not None:
            trace_after = summarize(tracer)
            trace_summary = {
                key: trace_after[key] - trace_before[key] for key in trace_after
            }
        snapshot = registry.snapshot()
        return RunRecord(
            experiment=experiment,
            seed=seed,
            cached=False,
            wall_time_s=wall,
            events_scheduled=sim_after.scheduled - sim_before.scheduled,
            events_executed=sim_after.executed - sim_before.executed,
            events_cancelled=sim_after.cancelled - sim_before.cancelled,
            rng_streams_drawn=rng.streams_drawn() - rng_before,
            peak_rss_kib=rss_after,
            worker_pid=os.getpid(),
            rss_growth_kib=max(rss_after - rss_before, 0),
            scenario_digest=scenario_digest,
            trace_summary=trace_summary,
            metrics=snapshot if snapshot["metrics"] else None,
            profile_top=profile_top,
            failure_traceback=failure_traceback,
            audit_dump_path=audit_dump_path,
        )

    def attach_failure(exc: BaseException, wall: float, dump_path: str) -> None:
        # Best-effort attach for post-hoc debugging; an exception type
        # with __slots__ simply travels without the extras.
        try:
            exc.audit_dump_path = dump_path
            exc.run_record = make_record(wall, traceback_module.format_exc(), dump_path)
        except Exception:
            pass

    try:
        with instruments.using(registry=registry, auditor=run_auditor):
            if collector is not None:
                result, profile_top = profiling.profiled_call(experiment, collector, fn)
            else:
                result = fn()
                profile_top = None
    except Exception as exc:
        profile_top = None
        if auditor is not None:
            auditor.note(
                "audit.run.exception_count", 0.0, experiment=experiment,
                error=type(exc).__name__,
            )
            dump_path = _audit_dump(auditor, experiment, seed, out_dir) if out_dir else ""
            attach_failure(exc, time.perf_counter() - started, dump_path)
        raise
    finally:
        wall = time.perf_counter() - started
    if auditor is not None:
        auditor.checkpoint("run-end")
        dump_path = ""
        if out_dir and (dump_all or auditor.violation_count):
            dump_path = _audit_dump(auditor, experiment, seed, out_dir)
        if auditor.violation_count:
            try:
                auditor.assert_clean(f"{experiment} seed {seed}", dump_path)
            except audit.AuditError as error:
                attach_failure(error, wall, dump_path)
                raise
        auditor.export_kpis(registry)
    record = make_record(wall)
    return result, record
