"""Command-line interface: run any paper experiment from the shell.

Usage:
    python -m repro list [--params]
    python -m repro run fig7 [--seed 7] [--json out.json]
    python -m repro run tab2 fig3 fig6 --observe timings
    python -m repro run --all --parallel 4
    python -m repro run fig6 --observe trace,metrics --out runs/fig6
    python -m repro run fig6 --scenario sa-mode
    python -m repro run fig7 --set workload.sim_scale=0.1
    python -m repro sweep fig6 tab4 --set radio.sa_mode=false,true
    python -m repro inspect show runs/fig6/campaign.metrics.jsonl
    python -m repro paper-index

``run`` goes through the campaign runner (:mod:`repro.runner`): results
are cached on disk under ``.repro_cache/`` keyed by (experiment, seed,
source hash, scenario digest), so repeating an invocation returns
instantly until the code changes.  ``--no-cache`` bypasses the cache and
``--parallel N`` fans cache misses out over N worker processes.

``--scenario`` selects the deployment to simulate — a preset name
(``repro.scenario.PRESET_NAMES``; default ``paper-nsa``, the paper's NSA
campus) or a TOML/JSON scenario file — and ``--set dotted.key=value``
applies individual overrides on top.  ``sweep`` cartesian-expands
``--set key=v1,v2,...`` axes into a grid and runs the experiment set
under every point, reporting per-point KPI snapshots.

Every ``run`` writes into one directory, ``--out DIR`` (default
``.repro_audit/``): run heartbeats (``hb-<pid>.json``, read by the
parallel stall watchdog and ``repro inspect show DIR``), the flight
recorder of any failing run, and what ``--observe KIND[,KIND...]`` asks
for: ``trace`` (``trace.jsonl``), ``metrics`` (``campaign.metrics.jsonl``),
``profile`` (``profile.pstats``), ``audit`` (every run's
``<experiment>-seed<S>.audit.jsonl``) and ``timings`` (a printed
provenance table).  Tracing and profiling run in this process, so they
force a serial, uncached campaign.  ``repro inspect show|diff|export``
reads every artifact, and ``repro bench`` records BENCH_<date>.json
performance trajectory points gated against
``benchmarks/bench-baseline.json``.

Runs execute under the :mod:`repro.audit` runtime-verification layer by
default: conservation ledgers and invariant probes run alongside the
simulation and a probe violation fails the run.  ``REPRO_NO_AUDIT=1`` in
the environment disables the layer.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Any

import numpy as np

from repro import instruments, trace
from repro.core.results import ResultTable
from repro.experiments.registry import EXPERIMENTS, UnknownExperimentError
from repro.inspection import add_inspect_arguments, run_inspect
from repro.lint.cli import add_lint_arguments, run_lint
from repro.metrics.export import write_jsonl
from repro.runner import (
    CampaignOutcome,
    ExperimentFailure,
    ProfileCollector,
    ResultCache,
    SweepPoint,
    campaign_timings,
    merged_metrics,
    run_campaign,
    run_sweep,
    source_hash,
    streams_by_worker,
)
from repro.runner.bench import add_bench_arguments, run_bench
from repro.scenario import (
    Scenario,
    ScenarioOverrideError,
    UnknownScenarioError,
    apply_overrides,
    default_scenario,
    parse_set_args,
    parse_sweep_args,
    resolve_scenario,
    scenario_digest,
)

__all__ = ["EXPERIMENTS", "main"]

#: Version tag for the ``--json`` export layout.
JSON_SCHEMA_VERSION = 1

#: Where ``run`` writes heartbeats, failure dumps and ``--observe`` artifacts.
DEFAULT_OUT_DIR = ".repro_audit"

#: What ``run --observe`` can record.
OBSERVE_KINDS = ("trace", "metrics", "profile", "audit", "timings")


def _to_jsonable(value: Any) -> Any:
    """Best-effort conversion of experiment results to JSON.

    Numpy scalars and arrays are converted to their Python equivalents —
    falling through to ``repr`` would export strings like
    ``"np.int64(42)"`` instead of numbers.
    """
    if dataclasses.is_dataclass(value) and not isinstance(value, type):
        return {
            field.name: _to_jsonable(getattr(value, field.name))
            for field in dataclasses.fields(value)
        }
    if isinstance(value, dict):
        return {str(k): _to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_to_jsonable(v) for v in value]
    if isinstance(value, np.bool_):
        return bool(value)
    if isinstance(value, np.integer):
        return int(value)
    if isinstance(value, np.floating):
        return float(value)
    if isinstance(value, np.ndarray):
        return [_to_jsonable(v) for v in value.tolist()]
    if isinstance(value, (int, float, str, bool)) or value is None:
        return value
    return repr(value)


def _print_result(name: str, result: Any) -> None:
    spec = EXPERIMENTS[name]
    if hasattr(result, "table"):
        print(result.table().render())
    elif spec.describe is not None:
        print(spec.describe(result))
    else:
        print(repr(result))


def _cmd_list(show_params: bool = False) -> int:
    width = max(len(name) for name in EXPERIMENTS)
    for name, spec in EXPERIMENTS.items():
        print(f"  {name:<{width}}  {spec.description}")
        if show_params:
            params = spec.default_params
            if params:
                rendered = ", ".join(f"{k}={v!r}" for k, v in params.items())
                print(f"  {'':<{width}}    params: {rendered}")
    return 0


def _cli_scenario(args: argparse.Namespace) -> Scenario:
    """Resolve ``--scenario`` + ``--set`` into one concrete scenario."""
    scenario = resolve_scenario(args.scenario)
    overrides = parse_set_args(args.set_args or [])
    if overrides:
        scenario = apply_overrides(scenario, overrides)
    return scenario


def _timings_table(outcomes: list[CampaignOutcome]) -> ResultTable:
    records = campaign_timings(outcomes)
    # Only runs executed with an out directory carry heartbeat stamps.
    with_heartbeats = any(r.heartbeat_finished_s for r in records)
    columns = ["experiment", "wall (s)", "cached", "events run", "rng streams",
               "peak RSS (MiB)", "RSS growth (MiB)"]
    if with_heartbeats:
        columns.append("worker busy (s)")
    table = ResultTable("Campaign timings (slowest first)", columns)
    for record in records:
        row = [
            record.experiment,
            f"{record.wall_time_s:.2f}",
            "yes" if record.cached else "no",
            record.events_executed,
            record.rng_streams_drawn,
            f"{record.peak_rss_kib / 1024:.0f}",
            f"{record.rss_growth_kib / 1024:.0f}",
        ]
        if with_heartbeats:
            busy = record.heartbeat_finished_s - record.heartbeat_started_s
            row.append(f"{busy:.2f}" if record.heartbeat_finished_s else "-")
        table.add_row(row)
    return table


def _export_json(
    path: str, outcomes: list[CampaignOutcome], seed: int, scenario: Scenario
) -> None:
    payload: dict[str, Any] = {
        "schema_version": JSON_SCHEMA_VERSION,
        "seed": seed,
        "source_hash": source_hash(),
        "scenario": {"name": scenario.name, "digest": scenario_digest(scenario)},
        "experiments": {
            o.name: {
                "description": EXPERIMENTS[o.name].description,
                "wall_time_s": o.record.wall_time_s,
                "cached": o.record.cached,
                "record": o.record.as_dict(),
                "result": _to_jsonable(o.result),
            }
            for o in outcomes
        },
    }
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=2)
    print(f"wrote {path}")


def _out_file(out_dir: str, name: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    return os.path.join(out_dir, name)


def _write_trace(path: str, tracer: trace.Tracer, args: argparse.Namespace) -> None:
    meta = {"experiments": sorted(args.names), "seed": args.seed, "all": args.run_all}
    count = trace.write_jsonl(tracer, path, meta=meta)
    stats = tracer.stats()
    dropped = f", {stats.dropped} dropped" if stats.dropped else ""
    print(f"wrote trace {path} ({count} record(s){dropped})")


def _cmd_run(args: argparse.Namespace) -> int:
    # --observe is comma-separated and repeatable.
    observe = {kind.strip() for value in args.observe for kind in value.split(",")} - {""}
    unknown = sorted(observe.difference(OBSERVE_KINDS))
    if unknown:
        print(f"unknown --observe kind(s) {', '.join(unknown)}; "
              f"choose from {', '.join(OBSERVE_KINDS)}", file=sys.stderr)
        return 2
    try:
        scenario = _cli_scenario(args)
    except (UnknownScenarioError, ScenarioOverrideError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    non_default = scenario_digest(scenario) != scenario_digest(default_scenario())
    if non_default:
        print(f"scenario: {scenario.describe()}\n")
    cache = None if args.no_cache else ResultCache(args.cache_dir)
    overrides: dict[str, Any] = {}
    if "trace" in observe:
        overrides["tracer"] = trace.Tracer()
    if "profile" in observe:
        overrides["profiler"] = ProfileCollector()
    if overrides:
        # The tracer and the profiler live in this process and a cache hit
        # records nothing, so either forces a serial, cache-bypassing campaign.
        cache = None
        if args.parallel > 1:
            what = "tracing" if "tracer" in overrides else "profiling"
            print(f"{what} is in-process; ignoring --parallel", file=sys.stderr)
            args.parallel = 1
    serial = args.parallel <= 1

    def progress(outcome: CampaignOutcome) -> None:
        record = outcome.record
        origin = "cache" if record.cached else f"{record.wall_time_s:.1f}s"
        if serial:
            print(f"== {outcome.name}: {EXPERIMENTS[outcome.name].description} "
                  f"(seed={args.seed}) ==")
            _print_result(outcome.name, outcome.result)
            print(f"   [{origin}]\n")
        else:
            print(f"   done {outcome.name} [{origin}]")

    try:
        with instruments.using(**overrides) as active:
            outcomes = run_campaign(
                args.names,
                seed=args.seed,
                parallel=args.parallel,
                cache=cache,
                run_all=args.run_all,
                progress=progress,
                scenario=scenario,
                out_dir=args.out,
                dump_all="audit" in observe,
            )
    except UnknownExperimentError as exc:
        print(str(exc), file=sys.stderr)
        print("use `python -m repro list` to see the catalogue", file=sys.stderr)
        return 2
    except ExperimentFailure as exc:
        print(str(exc), file=sys.stderr)
        if exc.audit_dump_path:
            print(
                f"inspect with: python -m repro inspect show {exc.audit_dump_path} "
                f"(heartbeats: python -m repro inspect show {args.out})",
                file=sys.stderr,
            )
        return 1

    if not serial:
        print()
        for outcome in outcomes:
            print(f"== {outcome.name}: {EXPERIMENTS[outcome.name].description} "
                  f"(seed={args.seed}) ==")
            _print_result(outcome.name, outcome.result)
            print()
    if "timings" in observe and outcomes:
        total = sum(o.record.wall_time_s for o in outcomes if not o.record.cached)
        print(_timings_table(outcomes).render())
        per_worker = streams_by_worker(o.record for o in outcomes)
        if len(per_worker) > 1:
            # A parallel campaign: RNG counters are per-process, so a single
            # total would be misleading — show each worker's own tally.
            workers = ", ".join(f"pid {pid}: {n}" for pid, n in per_worker.items())
            print(f"rng streams by worker: {workers}")
        print(f"total uncached wall time: {total:.2f}s\n")
    if "trace" in observe:
        _write_trace(_out_file(args.out, "trace.jsonl"), active.tracer, args)
    if "profile" in observe:
        collector = active.profiler
        if collector.empty:
            print("no profiled runs; nothing written", file=sys.stderr)
        else:
            path = _out_file(args.out, "profile.pstats")
            collector.dump(path)
            print(collector.top_table().render())
            print(f"wrote profile {path} (load with `python -m pstats {path}`)")
    if "metrics" in observe:
        snapshot = merged_metrics(outcomes)
        meta: dict[str, Any] = {
            "experiments": sorted(o.name for o in outcomes), "seed": args.seed
        }
        if non_default:
            # Default-scenario metrics files stay byte-identical to the
            # pre-scenario layout; alternative deployments are labelled.
            meta["scenario"] = {
                "name": scenario.name, "digest": scenario_digest(scenario)
            }
        path = _out_file(args.out, "campaign.metrics.jsonl")
        count = write_jsonl(snapshot, path, meta=meta)
        print(f"wrote metrics {path} ({count} metric(s))")
    if args.json_path is not None:
        _export_json(args.json_path, outcomes, args.seed, scenario)
    return 0


def _overrides_label(point: SweepPoint) -> str:
    if not point.overrides:
        return "(base scenario)"
    return " ".join(f"{k}={v}" for k, v in point.overrides.items())


def _cmd_sweep(args: argparse.Namespace) -> int:
    try:
        base = resolve_scenario(args.scenario)
        axes = parse_sweep_args(args.set_args or [])
    except (UnknownScenarioError, ScenarioOverrideError, OSError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    cache = None if args.no_cache else ResultCache(args.cache_dir)

    def point_progress(point: SweepPoint) -> None:
        print(f"== point {point.index}: {_overrides_label(point)} "
              f"[scn={point.digest}] ==")
        for outcome in point.outcomes:
            record = outcome.record
            origin = "cache" if record.cached else f"{record.wall_time_s:.1f}s"
            print(f"   {outcome.name} [{origin}]")
        print()

    try:
        points = run_sweep(
            args.names,
            base=base,
            axes=axes,
            seed=args.seed,
            parallel=args.parallel,
            cache=cache,
            run_all=args.run_all,
            point_progress=point_progress,
        )
    except (UnknownExperimentError, ScenarioOverrideError) as exc:
        print(str(exc), file=sys.stderr)
        if isinstance(exc, UnknownExperimentError):
            print("use `python -m repro list` to see the catalogue", file=sys.stderr)
        return 2
    except ExperimentFailure as exc:
        print(str(exc), file=sys.stderr)
        return 1

    print(f"swept {len(points)} point(s) x {len(points[0].outcomes)} experiment(s)")
    if args.json_path is not None:
        payload = {
            "schema_version": JSON_SCHEMA_VERSION,
            "seed": args.seed,
            "source_hash": source_hash(),
            "base_scenario": {"name": base.name, "digest": scenario_digest(base)},
            "axes": [{"key": key, "values": list(values)} for key, values in axes],
            "points": [point.as_dict() for point in points],
        }
        with open(args.json_path, "w") as handle:
            json.dump(payload, handle, indent=2)
        print(f"wrote {args.json_path}")
    return 0


def _cmd_paper_index() -> int:
    print("Paper table/figure -> experiment name -> benchmark file")
    for name, spec in EXPERIMENTS.items():
        bench = f"benchmarks/test_{spec.module_name}.py"
        print(f"  {name:<18} {spec.description:<45} {bench}")
    return 0


def main(argv: list[str] | None = None) -> int:
    """CLI entry point; returns a process exit code."""
    parser = argparse.ArgumentParser(
        prog="python -m repro",
        description="Reproduction toolkit for 'Understanding Operational 5G' (SIGCOMM 2020)",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    list_parser = sub.add_parser("list", help="list available experiments")
    list_parser.add_argument("--params", action="store_true",
                             help="also show each experiment's tunable "
                                  "parameters and their defaults")
    run_parser = sub.add_parser("run", help="run one or more experiments")
    run_parser.add_argument("names", nargs="*", default=[],
                            help="experiment names (see `list`)")
    run_parser.add_argument("--all", dest="run_all", action="store_true",
                            help="run the whole catalogue")
    run_parser.add_argument("--seed", type=int, default=7)
    run_parser.add_argument("--scenario", default=None, metavar="NAME|PATH",
                            help="deployment scenario: a preset name or a "
                                 "TOML/JSON file (default: paper-nsa)")
    run_parser.add_argument("--set", dest="set_args", action="append",
                            default=[], metavar="KEY=VALUE",
                            help="override one scenario field, e.g. "
                                 "--set radio.sa_mode=true (repeatable)")
    run_parser.add_argument("--json", dest="json_path", default=None,
                            help="also dump results + run metadata to a JSON file")
    run_parser.add_argument("--parallel", type=int, default=1, metavar="N",
                            help="run across N worker processes (default: 1, serial)")
    run_parser.add_argument("--no-cache", action="store_true",
                            help="bypass the on-disk result cache")
    run_parser.add_argument("--cache-dir", default=None, metavar="PATH",
                            help="result cache location (default: .repro_cache, "
                                 "or $REPRO_CACHE_DIR)")
    run_parser.add_argument("--observe", action="append", default=[],
                            metavar="KIND[,KIND...]",
                            help=f"record more into --out: {', '.join(OBSERVE_KINDS)} "
                                 "(trace and profile force serial, uncached "
                                 "execution)")
    run_parser.add_argument("--out", default=DEFAULT_OUT_DIR, metavar="DIR",
                            help="where runs write heartbeats, failing runs' "
                                 "flight recorders and --observe artifacts "
                                 f"(default: {DEFAULT_OUT_DIR})")
    sweep_parser = sub.add_parser(
        "sweep",
        help="run experiments under every point of a scenario parameter grid",
    )
    sweep_parser.add_argument("names", nargs="*", default=[],
                              help="experiment names (see `list`)")
    sweep_parser.add_argument("--all", dest="run_all", action="store_true",
                              help="sweep the whole catalogue")
    sweep_parser.add_argument("--seed", type=int, default=7)
    sweep_parser.add_argument("--scenario", default=None, metavar="NAME|PATH",
                              help="base scenario the sweep axes override")
    sweep_parser.add_argument("--set", dest="set_args", action="append",
                              default=[], metavar="KEY=V1,V2,...",
                              help="sweep axis: a dotted scenario key and its "
                                   "comma-separated values (repeatable; the "
                                   "grid is the cartesian product)")
    sweep_parser.add_argument("--parallel", type=int, default=1, metavar="N",
                              help="worker processes per point (default: 1)")
    sweep_parser.add_argument("--no-cache", action="store_true",
                              help="bypass the on-disk result cache")
    sweep_parser.add_argument("--cache-dir", default=None, metavar="PATH",
                              help="result cache location (default: "
                                   ".repro_cache, or $REPRO_CACHE_DIR)")
    sweep_parser.add_argument("--json", dest="json_path", default=None,
                              metavar="PATH",
                              help="dump per-point overrides, scenario digests "
                                   "and merged KPI snapshots to a JSON file")
    sub.add_parser("paper-index", help="map experiments to benchmark files")
    lint_parser = sub.add_parser(
        "lint",
        help="run the replint domain linter (determinism, units, simulator API)",
    )
    add_lint_arguments(lint_parser)
    inspect_parser = sub.add_parser(
        "inspect",
        help="read any run artifact: traces, metrics files, flight-recorder "
             "dumps, heartbeat directories (show, diff, export)",
    )
    add_inspect_arguments(inspect_parser)
    bench_parser = sub.add_parser(
        "bench",
        help="write a BENCH_<date>.json trajectory point and gate it against "
             "the committed baseline",
    )
    add_bench_arguments(bench_parser)

    args = parser.parse_args(argv)
    if args.command == "list":
        return _cmd_list(show_params=args.params)
    if args.command == "run":
        if not args.names and not args.run_all:
            parser.error("run: provide experiment names or --all")
        return _cmd_run(args)
    if args.command == "sweep":
        if not args.names and not args.run_all:
            parser.error("sweep: provide experiment names or --all")
        return _cmd_sweep(args)
    if args.command == "paper-index":
        return _cmd_paper_index()
    if args.command == "lint":
        return run_lint(args)
    if args.command == "inspect":
        return run_inspect(args)
    if args.command == "bench":
        return run_bench(args)
    parser.error(f"unknown command {args.command!r}")
    return 2
