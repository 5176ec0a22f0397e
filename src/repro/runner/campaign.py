"""The campaign orchestrator: fan experiments out, collect provenance.

Serial runs execute in-process (streaming results as they finish, exactly
like the original CLI loop); parallel runs fan the cache misses out over a
``ProcessPoolExecutor`` whose workers pre-build the shared testbed in
their initializer.  Either way every outcome carries a
:class:`repro.runner.instrument.RunRecord`, and results come back in the
caller's request order regardless of completion order.
"""

from __future__ import annotations

import sys
import time
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from dataclasses import dataclass
from collections.abc import Callable, Iterable, Sequence
from typing import Any

from repro.experiments.common import DEFAULT_SEED
from repro.experiments.registry import resolve_names
from repro.metrics.core import merge_snapshots
from repro.runner.cache import ResultCache
from repro.runner.instrument import RunRecord
from repro.runner.worker import (
    STALL_TIMEOUT_S,
    execute_experiment,
    prune_finished_heartbeats,
    scan_stalls,
    warm_worker,
)
from repro.scenario import Scenario, resolve_scenario, scenario_digest

__all__ = ["CampaignOutcome", "campaign_timings", "merged_metrics", "run_campaign"]

#: How often the parallel wait loop wakes to scan worker heartbeats.
_WATCHDOG_POLL_S = 5.0


@dataclass(frozen=True)
class CampaignOutcome:
    """One experiment's result plus its run provenance."""

    name: str
    result: Any
    record: RunRecord


def run_campaign(
    names: Iterable[str],
    seed: int = DEFAULT_SEED,
    parallel: int = 1,
    cache: ResultCache | None = None,
    run_all: bool = False,
    progress: Callable[[CampaignOutcome], None] | None = None,
    scenario: Scenario | str | None = None,
    out_dir: str | None = None,
    dump_all: bool = False,
) -> list[CampaignOutcome]:
    """Run a set of catalogue experiments and return outcomes in request order.

    Args:
        names: experiment names; validated and deduped (first occurrence
            wins) so ``run fig7 fig7`` runs — and exports — fig7 once.
        seed: campaign seed forwarded to every experiment.
        parallel: worker processes; ``<= 1`` runs serially in-process.
        cache: on-disk result cache, or None to bypass caching entirely.
        run_all: run the whole catalogue (``names`` is then ignored).
        progress: called with each outcome as it completes (completion
            order, not request order).
        scenario: deployment to run under — anything
            :func:`repro.scenario.resolve_scenario` accepts.  Resolved
            once here; workers receive the concrete value.
        out_dir, dump_all: heartbeat and flight-recorder directory, see
            :func:`repro.runner.worker.execute_experiment`.  The
            heartbeats of finished runs already there are deleted first;
            unfinished ones stay.  With an ``out_dir``, a parallel
            campaign also runs the stall watchdog: a run busy longer than
            :data:`STALL_TIMEOUT_S` is reported on stderr as a possible
            hang.  Advisory: nothing is killed.

    Raises:
        UnknownExperimentError: for names outside the catalogue.
        ExperimentFailure: if any experiment raised.
    """
    ordered = resolve_names(names, run_all=run_all)
    if not ordered:
        return []
    scenario = resolve_scenario(scenario)
    digest = scenario_digest(scenario)
    cache_root = str(cache.root) if cache is not None else None
    run_args = (seed, cache_root, scenario, out_dir, dump_all)
    if out_dir:
        prune_finished_heartbeats(out_dir)

    outcomes: dict[str, CampaignOutcome] = {}

    def record_outcome(name: str, result: Any, record: RunRecord) -> None:
        outcome = CampaignOutcome(name=name, result=result, record=record)
        outcomes[name] = outcome
        if progress is not None:
            progress(outcome)

    if parallel <= 1:
        for name in ordered:
            record_outcome(name, *execute_experiment(name, *run_args))
        return [outcomes[name] for name in ordered]

    # Serve warm cache entries from the coordinator; only misses need workers.
    misses = list(ordered)
    if cache is not None:
        misses = []
        for name in ordered:
            hit = cache.load(name, seed, scenario_digest=digest)
            if hit is None:
                misses.append(name)
            else:
                record_outcome(name, hit.result, hit.record)

    if misses:
        started_mono_s = time.monotonic()
        with ProcessPoolExecutor(
            max_workers=min(parallel, len(misses)),
            initializer=warm_worker,
            initargs=(seed, scenario),
        ) as pool:
            futures = {pool.submit(execute_experiment, name, *run_args): name for name in misses}
            pending = set(futures)
            reported: set[int] = set()
            while pending:
                done, pending = wait(
                    pending,
                    timeout=_WATCHDOG_POLL_S if out_dir else None,
                    return_when=FIRST_COMPLETED,
                )
                if out_dir and not done:
                    now_mono_s = time.monotonic()
                    for stall in scan_stalls(out_dir, now_mono_s, STALL_TIMEOUT_S):
                        # Heartbeats left behind by earlier campaigns in the
                        # same directory are not this campaign's hangs.
                        if stall["pid"] in reported or (
                            stall["busy_s"] > now_mono_s - started_mono_s
                        ):
                            continue
                        reported.add(stall["pid"])
                        print(
                            f"warning: worker pid {stall['pid']} busy "
                            f"{stall['busy_s']:.0f}s on {stall['experiment']!r} "
                            f"(seed {stall['seed']}) — possible hang; see "
                            f"`repro inspect show {out_dir}`",
                            file=sys.stderr,
                        )
                for future in done:
                    result, record = future.result()
                    record_outcome(futures[future], result, record)

    return [outcomes[name] for name in ordered]


def campaign_timings(outcomes: Sequence[CampaignOutcome]) -> list[RunRecord]:
    """The run records of ``outcomes``, slowest first."""
    return sorted(
        (o.record for o in outcomes), key=lambda r: r.wall_time_s, reverse=True
    )


def merged_metrics(outcomes: Sequence[CampaignOutcome]) -> dict[str, Any]:
    """The campaign-level KPI snapshot: every run's registry, merged.

    Each run records into its own per-origin registry (serial runs and
    pool workers alike), so the campaign view is *always* a merge of
    per-run snapshots — which is what makes serial and parallel campaigns
    over the same experiment set byte-identical on export.
    """
    return merge_snapshots(o.record.metrics for o in outcomes)
