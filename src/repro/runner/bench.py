"""``repro bench``: headless benchmark trajectory points and the perf gate.

Runs catalogue experiments uncached under instrumentation and writes one
``BENCH_<date>.json`` *trajectory point*: per-experiment wall time (raw
and machine-normalised), RSS growth, simulator event counts and every
registered KPI value.  Against a committed baseline
(``benchmarks/bench-baseline.json``) it exits non-zero when

* normalised wall time regresses beyond ``--max-wall-regression``
  (default +20%), or
* any KPI drifts beyond ``--max-kpi-regression`` (default 10% relative),
  or an experiment/KPI disappears.

Sub-``--min-wall-s`` experiments (default 0.1 s raw wall on both sides)
are exempt from the *wall* gate only: a 3 ms experiment jitters far more
than 20% run to run, so gating it on time is pure noise — its KPIs, which
are deterministic, stay gated exactly.

Wall times are normalised by a calibration loop (a fixed pure-Python
workload timed at bench time), so a baseline recorded on one machine
remains comparable on another: what is gated is "simulated work per unit
of interpreter speed", not raw seconds.  KPI values are deterministic
functions of (experiment, seed, source), so their gate is exact up to
the tolerance.

This is the ROADMAP's "fast as the hardware allows" story made
checkable: every perf PR is judged against recorded numbers, and the
``BENCH_*.json`` series is the repo's performance trajectory.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from dataclasses import dataclass
from typing import Any

from repro.core.results import ResultTable
from repro.experiments.common import DEFAULT_SEED
from repro.metrics.core import summarize_entry
from repro.runner.campaign import run_campaign
from repro.runner.cache import source_hash

__all__ = [
    "BENCH_SCHEMA_VERSION",
    "DEFAULT_BASELINE_PATH",
    "QUICK_EXPERIMENTS",
    "Regression",
    "add_bench_arguments",
    "bench_payload",
    "calibrate",
    "compare_payloads",
    "extract_kpis",
    "run_bench",
]

BENCH_SCHEMA_VERSION = 1

#: The committed baseline the CI gate compares against.
DEFAULT_BASELINE_PATH = "benchmarks/bench-baseline.json"

#: The quick catalogue slice: enough to cover coverage, latency, web,
#: power, energy and transport-remedy KPIs.  Everything but
#: `remedy-comparison` is sub-second (the shared testbed build
#: dominates); the remedy run simulates six 45 s bulk transfers and holds
#: the gate on the subsystem's headline KPIs (`remedy.goodput.*`,
#: `remedy.p99_rtt.*`).  `fig16`'s thirty page loads each end at their
#: completing ACK; its wall gate catches one that runs on to its timeout.
QUICK_EXPERIMENTS: tuple[str, ...] = (
    "tab1",
    "fig3",
    "fig13",
    "fig15",
    "fig16",
    "fig21",
    "fig22",
    "tab4",
    "dense-survey",
    "world-survey",
    "remedy-comparison",
)

#: Iterations of the calibration workload (a fixed pure-Python loop).
_CALIBRATION_N = 1_000_000


def calibrate(repeats: int = 3) -> float:
    """Seconds the reference workload takes on this machine (best of N).

    Dividing experiment wall times by this figure yields a
    machine-portable "work units" number, making committed baselines
    meaningful across laptops and CI runners.
    """
    best = float("inf")
    for _ in range(repeats):
        started = time.perf_counter()
        acc = 0
        for i in range(_CALIBRATION_N):
            acc += i * i
        elapsed = time.perf_counter() - started
        best = min(best, elapsed)
    return best


def extract_kpis(snapshot: dict[str, Any] | None) -> dict[str, float]:
    """Flatten a run's metric snapshot into gateable scalars.

    Counters and gauges contribute their value under the metric name;
    statistical metrics contribute each summary field as
    ``<name>/<field>``.  Everything here is a deterministic function of
    (experiment, seed, source), so exact comparison is meaningful.
    """
    if snapshot is None:
        return {}
    kpis: dict[str, float] = {}
    for name, entry in snapshot.get("metrics", {}).items():
        summary = summarize_entry(entry)
        if entry["kind"] in ("counter", "gauge"):
            kpis[name] = summary["value"]
        else:
            for field, value in summary.items():
                kpis[f"{name}/{field}"] = value
    return dict(sorted(kpis.items()))


def bench_payload(
    names: list[str],
    seed: int = DEFAULT_SEED,
    run_all: bool = False,
    date: str | None = None,
) -> dict[str, Any]:
    """Run ``names`` uncached and build one trajectory point."""
    calibration_s = calibrate()
    outcomes = run_campaign(names, seed=seed, parallel=1, cache=None, run_all=run_all)
    experiments: dict[str, Any] = {}
    for outcome in outcomes:
        record = outcome.record
        experiments[outcome.name] = {
            "wall_time_s": record.wall_time_s,
            "wall_time_norm": record.wall_time_s / calibration_s,
            "rss_growth_kib": record.rss_growth_kib,
            "events_executed": record.events_executed,
            "kpis": extract_kpis(record.metrics),
        }
    return {
        "schema_version": BENCH_SCHEMA_VERSION,
        "tool": "repro.bench",
        "date": date if date is not None else time.strftime("%Y-%m-%d"),
        "seed": seed,
        "source_hash": source_hash(),
        "calibration_s": calibration_s,
        "experiments": experiments,
    }


@dataclass(frozen=True)
class Regression:
    """One gate violation found by :func:`compare_payloads`."""

    experiment: str
    field: str
    new: float | None
    baseline: float | None
    limit: str

    def row(self) -> list[Any]:
        fmt = lambda v: "absent" if v is None else f"{v:g}"  # noqa: E731
        return [self.experiment, self.field, fmt(self.baseline), fmt(self.new), self.limit]


def compare_payloads(
    new: dict[str, Any],
    baseline: dict[str, Any],
    max_wall_regression: float = 0.20,
    max_kpi_regression: float = 0.10,
    min_wall_s: float = 0.10,
) -> list[Regression]:
    """Gate a fresh trajectory point against a baseline.

    Only regressions are reported: faster runs and brand-new
    experiments/KPIs pass silently (they become gated once the baseline
    is refreshed with ``--write-baseline``).  The wall-time check is
    skipped when both sides ran in under ``min_wall_s`` raw seconds —
    sub-100 ms timings are timer-noise dominated and would flake the
    gate; KPI checks still apply (they are deterministic).
    """
    regressions: list[Regression] = []
    for name, base_exp in baseline.get("experiments", {}).items():
        new_exp = new.get("experiments", {}).get(name)
        if new_exp is None:
            regressions.append(
                Regression(name, "wall_time_norm", None, base_exp["wall_time_norm"],
                           "experiment missing from new point")
            )
            continue
        base_wall = base_exp["wall_time_norm"]
        new_wall = new_exp["wall_time_norm"]
        noise_floor = (
            base_exp.get("wall_time_s", float("inf")) < min_wall_s
            and new_exp.get("wall_time_s", float("inf")) < min_wall_s
        )
        if (
            not noise_floor
            and base_wall > 0
            and new_wall > base_wall * (1.0 + max_wall_regression)
        ):
            regressions.append(
                Regression(name, "wall_time_norm", new_wall, base_wall,
                           f"> +{max_wall_regression:.0%} wall time")
            )
        base_kpis = base_exp.get("kpis", {})
        new_kpis = new_exp.get("kpis", {})
        for kpi, base_value in base_kpis.items():
            new_value = new_kpis.get(kpi)
            if new_value is None:
                regressions.append(
                    Regression(name, kpi, None, base_value, "KPI missing from new point")
                )
                continue
            scale = max(abs(base_value), abs(new_value))
            if scale > 0 and abs(new_value - base_value) / scale > max_kpi_regression:
                regressions.append(
                    Regression(name, kpi, new_value, base_value,
                               f"> {max_kpi_regression:.0%} KPI drift")
                )
    return regressions


def _regressions_table(regressions: list[Regression]) -> ResultTable:
    table = ResultTable(
        "Bench gate", ["experiment", "field", "baseline", "new", "limit"]
    )
    for regression in regressions:
        table.add_row(regression.row())
    if not regressions:
        table.add_row(["(no regressions)", "", "", "", ""])
    return table


def _bench_table(payload: dict[str, Any]) -> ResultTable:
    table = ResultTable(
        f"Bench point {payload['date']} (calibration {payload['calibration_s'] * 1e3:.1f} ms)",
        ["experiment", "wall (s)", "wall (norm)", "RSS growth (MiB)", "KPIs"],
    )
    for name, exp in payload["experiments"].items():
        table.add_row(
            [
                name,
                f"{exp['wall_time_s']:.2f}",
                f"{exp['wall_time_norm']:.1f}",
                f"{exp['rss_growth_kib'] / 1024:.0f}",
                len(exp["kpis"]),
            ]
        )
    return table


def add_bench_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach the bench options to a (sub)parser."""
    parser.add_argument("names", nargs="*", default=[],
                        help="experiment names (default: the --quick set)")
    parser.add_argument("--all", dest="run_all", action="store_true",
                        help="bench the whole catalogue")
    parser.add_argument("--quick", action="store_true",
                        help=f"bench the quick set: {', '.join(QUICK_EXPERIMENTS)}")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--out", default=None, metavar="PATH",
                        help="trajectory point path (default: BENCH_<date>.json)")
    parser.add_argument("--baseline", default=DEFAULT_BASELINE_PATH, metavar="PATH",
                        help=f"baseline to gate against (default: {DEFAULT_BASELINE_PATH})")
    parser.add_argument("--write-baseline", action="store_true",
                        help="write the fresh point to --baseline instead of gating")
    parser.add_argument("--compare", default=None, metavar="PATH",
                        help="gate an existing trajectory point instead of running")
    parser.add_argument("--max-wall-regression", type=float, default=0.20, metavar="FRAC",
                        help="tolerated normalised wall-time growth (default: 0.20)")
    parser.add_argument("--max-kpi-regression", type=float, default=0.10, metavar="FRAC",
                        help="tolerated relative KPI drift (default: 0.10)")
    parser.add_argument("--min-wall-s", type=float, default=0.10, metavar="SECONDS",
                        help="skip the wall-time gate for experiments faster than "
                             "this on both sides — timer noise, not perf "
                             "(default: 0.10)")
    parser.set_defaults(bench_command=True)


def _load_payload(path: str) -> dict[str, Any] | None:
    try:
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
    except FileNotFoundError:
        return None
    except json.JSONDecodeError as exc:
        raise ValueError(f"malformed bench file {path}: {exc}") from exc
    if not isinstance(payload, dict) or "experiments" not in payload:
        raise ValueError(f"not a bench payload: {path}")
    return payload


def run_bench(args: argparse.Namespace) -> int:
    """Execute the bench command; returns the process exit code."""
    if args.compare is not None:
        payload = _load_payload(args.compare)
        if payload is None:
            print(f"repro bench: no such file: {args.compare}", file=sys.stderr)
            return 2
    else:
        names = list(args.names)
        if not names and not args.run_all:
            names = list(QUICK_EXPERIMENTS)
            args.quick = True
        elif args.quick:
            names = list(dict.fromkeys(list(QUICK_EXPERIMENTS) + names))
        payload = bench_payload(names, seed=args.seed, run_all=args.run_all)
        out = args.out if args.out is not None else f"BENCH_{payload['date']}.json"
        if args.write_baseline:
            out = args.baseline
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(payload, fh, indent=2, sort_keys=True)
            fh.write("\n")
        print(_bench_table(payload).render())
        print(f"wrote {out}")
        if args.write_baseline:
            return 0

    baseline = _load_payload(args.baseline)
    if baseline is None:
        print(
            f"no baseline at {args.baseline}; run `repro bench --write-baseline` "
            "to record one",
            file=sys.stderr,
        )
        return 0
    regressions = compare_payloads(
        payload,
        baseline,
        max_wall_regression=args.max_wall_regression,
        max_kpi_regression=args.max_kpi_regression,
        min_wall_s=args.min_wall_s,
    )
    print(_regressions_table(regressions).render())
    return 1 if regressions else 0
