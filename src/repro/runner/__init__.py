"""Campaign runner: cached, parallel execution of the experiment catalogue.

The paper's measurement campaign ran for seven months; reproducing all of
its ~33 tables and figures is itself a campaign.  This package treats that
campaign as a first-class subsystem:

* :mod:`repro.runner.cache` — an on-disk result cache under
  ``.repro_cache/``, keyed by (experiment, seed, source hash) so results
  survive across processes and invalidate automatically on code change.
* :mod:`repro.runner.instrument` — per-run provenance: wall time,
  simulator event counters, RNG streams drawn, peak RSS.
* :mod:`repro.runner.worker` — the picklable per-experiment entry point
  executed inside pool workers, and its heartbeat files.
* :mod:`repro.runner.campaign` — the orchestrator fanning experiments out
  across a :class:`concurrent.futures.ProcessPoolExecutor`.  Its
  ``out_dir`` argument (``repro run --out DIR``) is where heartbeats and
  flight-recorder dumps go; the parallel stall watchdog reads it.
* :mod:`repro.runner.sweep` — scenario sweeps: the same experiment set
  run under every point of a parameter grid, with per-point metrics.
* :mod:`repro.runner.profiling` — cProfile collection for
  ``repro run --observe profile`` (per-run top-N plus a combined pstats
  dump).
* :mod:`repro.runner.bench` — ``repro bench``: BENCH_<date>.json
  trajectory points and the wall-time/KPI regression gate.
"""

from repro.runner.bench import bench_payload, compare_payloads
from repro.runner.cache import DEFAULT_CACHE_DIR, ResultCache, source_hash
from repro.runner.campaign import (
    CampaignOutcome,
    campaign_timings,
    merged_metrics,
    run_campaign,
)
from repro.runner.instrument import RunRecord, instrumented_call, streams_by_worker
from repro.runner.profiling import ProfileCollector
from repro.runner.sweep import SweepPoint, run_sweep
from repro.runner.worker import (
    ExperimentFailure,
    execute_experiment,
    prune_finished_heartbeats,
    scan_stalls,
)

__all__ = [
    "DEFAULT_CACHE_DIR",
    "CampaignOutcome",
    "ExperimentFailure",
    "ProfileCollector",
    "ResultCache",
    "RunRecord",
    "SweepPoint",
    "bench_payload",
    "campaign_timings",
    "compare_payloads",
    "execute_experiment",
    "instrumented_call",
    "merged_metrics",
    "prune_finished_heartbeats",
    "run_campaign",
    "run_sweep",
    "scan_stalls",
    "source_hash",
    "streams_by_worker",
]
