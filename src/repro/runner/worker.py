"""The per-experiment execution entry point for campaign workers.

Everything here must stay picklable/top-level: these functions cross the
``ProcessPoolExecutor`` boundary.  A worker loads from the shared on-disk
cache, runs the experiment under instrumentation on a miss, stores the
fresh result, and ships (result, record) back to the coordinator.

Given an out directory (``repro run --out DIR``), a run also keeps a
*heartbeat file* (``hb-<pid>.json``) there: start stamp when the run
begins, finish stamp when it ends.  The coordinator's stall watchdog
(:func:`scan_stalls`, surfaced via ``repro inspect show DIR`` and the
parallel campaign loop) reads those files to tell a slow campaign from a
hung worker.  Stamps are ``time.monotonic()`` — they order events within
one machine boot, never leave the machine, and are kept out of every
deterministic artifact.  A campaign with an out directory first deletes
the heartbeats of finished runs (:func:`prune_finished_heartbeats`), so
the directory holds its own runs' files plus any left unfinished.
"""

from __future__ import annotations

import dataclasses
import json
import os
import time
import traceback
from collections.abc import Iterator
from typing import Any

from repro.experiments import common
from repro.experiments.registry import EXPERIMENTS
from repro.runner.cache import ResultCache
from repro.runner.instrument import RunRecord, instrumented_call
from repro.scenario import Scenario, resolve_scenario, scenario_digest

__all__ = [
    "STALL_TIMEOUT_S",
    "ExperimentFailure",
    "execute_experiment",
    "prune_finished_heartbeats",
    "scan_stalls",
    "warm_worker",
]

#: A run whose heartbeat shows it busy longer than this is reported as a
#: possible hang (parallel campaign watchdog, ``repro inspect show DIR``).
STALL_TIMEOUT_S = 300.0


class ExperimentFailure(RuntimeError):
    """An experiment raised inside a worker; carries the remote traceback.

    ``record`` is the failure :class:`RunRecord` the instrumentation
    attached (None when the failure predates instrumentation, e.g. a
    cache error), and ``audit_dump_path`` the flight-recorder dump
    written for the failed run ("" when auditing was off or no dump
    directory was configured).
    """

    def __init__(
        self,
        name: str,
        remote_traceback: str,
        record: RunRecord | None = None,
        audit_dump_path: str = "",
    ) -> None:
        super().__init__(name, remote_traceback)
        self.name = name
        self.remote_traceback = remote_traceback
        self.record = record
        self.audit_dump_path = audit_dump_path

    def __str__(self) -> str:
        text = f"experiment {self.name!r} failed in worker:\n{self.remote_traceback}"
        if self.audit_dump_path:
            text += f"\nflight recorder: {self.audit_dump_path}"
        return text

    def __reduce__(self):
        # Default BaseException pickling replays __init__ with the
        # original two positional args, dropping record/dump path; keep
        # all four so failures stay debuggable across the pool boundary.
        return (
            type(self),
            (self.name, self.remote_traceback, self.record, self.audit_dump_path),
        )


def _heartbeat_path(directory: str) -> str:
    return os.path.join(directory, f"hb-{os.getpid()}.json")


def _write_heartbeat(directory: str, payload: dict[str, Any]) -> None:
    try:
        os.makedirs(directory, exist_ok=True)
        with open(_heartbeat_path(directory), "w", encoding="utf-8") as fh:
            json.dump(payload, fh, sort_keys=True)
    except OSError:
        pass  # heartbeats are advisory; never fail the run over them


def _heartbeats(directory: str) -> Iterator[tuple[str, dict[str, Any]]]:
    """``(path, payload)`` of every readable heartbeat file, by name.

    Unreadable files (mid-write or stale garbage) are skipped: they are
    evidence of nothing.
    """
    try:
        entries = sorted(os.listdir(directory))
    except OSError:
        return
    for entry in entries:
        if not (entry.startswith("hb-") and entry.endswith(".json")):
            continue
        path = os.path.join(directory, entry)
        try:
            with open(path, encoding="utf-8") as fh:
                beat = json.load(fh)
        except (OSError, ValueError):
            continue
        if isinstance(beat, dict):
            yield path, beat


def prune_finished_heartbeats(directory: str) -> int:
    """Delete the heartbeat of every finished run; return how many went.

    Unfinished heartbeats (a run in flight, or a worker killed mid-run)
    stay for the stall watchdog and ``repro inspect show``.
    """
    pruned = 0
    for path, beat in _heartbeats(directory):
        if beat.get("finished_mono_s", 0.0):
            try:
                os.remove(path)
            except OSError:
                continue  # removed concurrently, or not ours to remove
            pruned += 1
    return pruned


def scan_stalls(
    directory: str, now_mono_s: float, stall_timeout_s: float
) -> list[dict[str, Any]]:
    """Heartbeat files whose run started > ``stall_timeout_s`` ago and
    never finished, as ``{pid, experiment, seed, busy_s}`` dicts.

    Pure over the directory contents and the caller-supplied clock, so
    the watchdog logic is unit-testable without sleeping.
    """
    stalls: list[dict[str, Any]] = []
    for _, beat in _heartbeats(directory):
        if beat.get("finished_mono_s", 0.0):
            continue
        busy_s = now_mono_s - beat.get("started_mono_s", now_mono_s)
        if busy_s > stall_timeout_s:
            stalls.append(
                {
                    "pid": beat.get("pid", 0),
                    "experiment": beat.get("experiment", "?"),
                    "seed": beat.get("seed", -1),
                    "busy_s": busy_s,
                }
            )
    return stalls


def warm_worker(seed: int, scenario: Scenario | None = None) -> None:
    """Pool initializer: build the testbed once so every task hits its cache."""
    common.warm(seed, scenario)


def execute_experiment(
    name: str,
    seed: int,
    cache_root: str | None = None,
    scenario: Scenario | None = None,
    out_dir: str | None = None,
    dump_all: bool = False,
) -> tuple[Any, RunRecord]:
    """Run one catalogue experiment, going through the cache when given.

    ``scenario`` must already be a resolved :class:`Scenario` (or None for
    the default): workers receive it pickled from the coordinator, which
    did the preset/path resolution once up front.  ``out_dir`` receives
    this process's heartbeat file and the run's flight recorder when it
    fails, or always with ``dump_all``; None writes neither.

    Raises:
        ExperimentFailure: if the experiment itself raised; the original
            traceback travels along as a string (remote tracebacks do not
            survive pickling), together with the failure record and
            flight-recorder dump path when instrumentation attached them.
    """
    spec = EXPERIMENTS[name]
    scenario = resolve_scenario(scenario)
    digest = scenario_digest(scenario)
    cache = ResultCache(cache_root) if cache_root is not None else None
    if cache is not None:
        hit = cache.load(name, seed, scenario_digest=digest)
        if hit is not None:
            return hit.result, hit.record
    # Imported before the run's clock starts, so the record times the run alone.
    _ = spec.module
    started_mono_s = time.monotonic()
    if out_dir:
        _write_heartbeat(
            out_dir,
            {
                "pid": os.getpid(),
                "experiment": name,
                "seed": seed,
                "started_mono_s": started_mono_s,
                "finished_mono_s": 0.0,
            },
        )
    try:
        result, record = instrumented_call(
            name, seed, lambda: spec.run(seed, scenario), digest, out_dir, dump_all
        )
    except Exception as exc:
        raise ExperimentFailure(
            name,
            traceback.format_exc(),
            record=getattr(exc, "run_record", None),
            audit_dump_path=getattr(exc, "audit_dump_path", "")
            or getattr(exc, "dump_path", ""),
        ) from exc
    finally:
        if out_dir:
            _write_heartbeat(
                out_dir,
                {
                    "pid": os.getpid(),
                    "experiment": name,
                    "seed": seed,
                    "started_mono_s": started_mono_s,
                    "finished_mono_s": time.monotonic(),
                },
            )
    if out_dir:
        record = dataclasses.replace(
            record,
            heartbeat_started_s=started_mono_s,
            heartbeat_finished_s=time.monotonic(),
        )
    if cache is not None:
        cache.store(name, seed, result, record, scenario_digest=digest)
    return result, record
