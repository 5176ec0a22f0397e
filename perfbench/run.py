"""Run one benchmark workload and print its metrics as one JSON line.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload remedy-transfers --seed 7 --seconds 20 --trace 0
    python3 perfbench/run.py --workload radio-mobility --seed 3 --seconds 20 --trace 1
    python3 perfbench/run.py --record          # rewrite perfbench/reference.json

``--seed n`` selects input set ``n % 8``.  The untraced run (``--trace
0``) starts three set-up probes and then whole passes, each in a fresh
interpreter (``perfbench/passrun.py``), until ``--seconds`` are used
(at least three passes).  ``wall_s`` sums each operation's median host
seconds and ``setup_s`` is a median, both scaled to the reference host
speed (``perfbench/calibrate.py``); ``peak_rss_mib`` is a median.
The traced run alternates untraced and traced passes and reports the
per-layer metrics; its spans go to ``.perfbench/trace-<workload>-seed<n>.json``
(Chrome trace_event format).  Every output of every pass is compared
exactly with ``perfbench/reference.json``; a raise, an audit violation, a
mismatch or a failed layer check counts as a failed operation.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import Any

ROOT = Path(__file__).resolve().parent.parent
REFERENCE_PATH = ROOT / "perfbench" / "reference.json"
OUT_DIR = ROOT / ".perfbench"

#: ``--seed n`` runs input set ``n % INPUT_SETS``; each set's outputs are
#: recorded in the reference.
INPUT_SETS = 8
#: The program's default seed (its golden outputs) and a seed kept out of
#: tuning; the self-test runs both at the small size.
DEFAULT_SEED = 7
HELD_OUT_SEED = 3
SETUP_PROBES = 3
MIN_PASSES = 3
PASS_TIMEOUT_S = 150.0


class BenchError(RuntimeError):
    """The benchmark itself could not run (as opposed to a failed operation)."""


def _env() -> dict[str, str]:
    env = dict(os.environ)
    # Production settings: audits on, no every-run dumps, no stray cache.
    for key in ("REPRO_NO_AUDIT", "REPRO_AUDIT_DUMP", "REPRO_AUDIT_DIR", "REPRO_CACHE_DIR"):
        env.pop(key, None)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def run_pass(
    workload: str, input_set: int, size: str, traced: bool = False, setup_only: bool = False
) -> dict[str, Any]:
    """Run one pass in a fresh interpreter and return its JSON payload."""
    OUT_DIR.mkdir(exist_ok=True)
    work_dir = tempfile.mkdtemp(prefix="pass-", dir=OUT_DIR)
    request = {
        "workload": workload,
        "seed": input_set,
        "size": size,
        "traced": traced,
        "setup_only": setup_only,
        "work_dir": work_dir,
    }
    try:
        # perf_counter is CLOCK_MONOTONIC on Linux, shared with the pass.
        request["spawned_s"] = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, "-m", "perfbench.passrun", json.dumps(request)],
            cwd=ROOT,
            env=_env(),
            stdout=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        stdout = None
        try:
            stdout, _ = proc.communicate(timeout=PASS_TIMEOUT_S)
        except subprocess.TimeoutExpired:
            pass
        finally:
            # The pass and any pool workers it forked share its session;
            # nothing of it may outlive the pass, even after a crash.
            try:
                os.killpg(proc.pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
            if stdout is None:
                proc.communicate()
        if stdout is None:
            raise BenchError(f"{workload} pass timed out after {PASS_TIMEOUT_S:.0f}s")
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    lines = [line for line in stdout.splitlines() if line.strip()]
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{workload} pass exited with code {proc.returncode}")
    return json.loads(lines[-1])


def check_outputs(
    payload: dict[str, Any], reference: dict[str, Any] | None
) -> tuple[int, list[str]]:
    """(operations attempted, failure messages) for one pass.

    Each expected output must have run without raising (audit violations
    raise) and digest exactly as recorded; each layer check must pass.
    """
    failures = []
    expected = payload["expected"]
    for name in expected:
        if name in payload["errors"]:
            failures.append(f"{name}: {payload['errors'][name]}")
        elif reference is None or name not in reference:
            failures.append(f"{name}: no reference output recorded")
        elif payload["digests"].get(name) != reference[name]:
            failures.append(f"{name}: output differs from the reference")
    checks = payload.get("checks", {})
    failures.extend(f"{name}: {error}" for name, error in checks.items() if error)
    return len(expected) + len(checks), failures


def scaled_op_seconds(payload: dict[str, Any]) -> dict[str, float]:
    """Each operation's host seconds at the reference host's speed."""
    from perfbench.calibrate import scaled

    kernel_s = payload["op_kernel_s"]
    return {name: scaled(s, kernel_s[name]) for name, s in payload["op_seconds"].items()}


def _load_json(path: Path) -> Any:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def _write_trace(
    passes: list[dict[str, Any]], workload: str, seed: int
) -> Path:
    """Merge the traced passes' spans into one Chrome trace_event file."""
    from repro.trace import Tracer
    from repro.trace.export import write_chrome

    from perfbench.spans import self_seconds

    tracer = Tracer()
    for index, payload in enumerate(passes):
        own = self_seconds(payload["spans"])
        for span in payload["spans"]:
            tracer.complete(
                span["name"],
                span["begin_s"],
                span["end_s"],
                id=span["id"],
                parent=span["parent"],
                self_s=own[span["id"]],
                pass_index=index,
            )
    path = OUT_DIR / f"trace-{workload}-seed{seed}.json"
    write_chrome(tracer, str(path), meta={"workload": workload, "seed": seed})
    return path


def measure(
    workload: str, seed: int, seconds: float, traced: bool, size: str, bench: dict[str, Any]
) -> dict[str, Any]:
    """Run the passes of one benchmark run and build its result line."""
    from perfbench.calibrate import scaled

    input_set = seed % INPUT_SETS
    reference = (
        _load_json(REFERENCE_PATH).get(size, {}).get(str(input_set), {}).get(workload)
        if REFERENCE_PATH.exists()
        else None
    )
    deadline = time.perf_counter() + seconds
    passes: list[dict[str, Any]] = []
    traced_passes: list[dict[str, Any]] = []
    setup_samples: list[float] = []
    if not traced:
        for _ in range(SETUP_PROBES):
            probe = run_pass(workload, input_set, size, setup_only=True)
            setup_samples.append(scaled(probe["setup_s"], probe["setup_kernel_s"]))
    # Untraced passes; a traced run pairs each with a traced pass.
    while True:
        began = time.perf_counter()
        passes.append(run_pass(workload, input_set, size))
        if traced:
            traced_passes.append(run_pass(workload, input_set, size, traced=True))
        step = time.perf_counter() - began
        if len(passes) >= (1 if traced else MIN_PASSES) and time.perf_counter() + step > deadline:
            break

    attempted = 0
    failures: list[str] = []
    for payload in passes + traced_passes:
        count, failed = check_outputs(payload, reference)
        attempted += count
        failures.extend(failed)
    for message in dict.fromkeys(failures):
        print(f"perfbench: {workload} seed {seed}: {message}", file=sys.stderr)

    if traced:
        declared = bench["per_layer"]
        values: dict[str, list[float]] = {}
        for payload in traced_passes:
            for name, value in payload["metrics"].items():
                values.setdefault(name, []).append(value)
        untraced_wall = statistics.median(sum(scaled_op_seconds(p).values()) for p in passes)
        traced_wall = statistics.median(
            sum(scaled_op_seconds(p).values()) for p in traced_passes
        )
        values["trace.overhead_ratio"] = [traced_wall / untraced_wall]
        values["error_ratio"] = [len(failures) / attempted]
        unknown = sorted(set(values) - {m["name"] for m in declared})
        if unknown:
            raise BenchError(f"metrics missing from BENCHMARK.json: {', '.join(unknown)}")
        path = _write_trace(traced_passes, workload, seed)
        print(f"perfbench: spans written to {path.relative_to(ROOT)}", file=sys.stderr)
    else:
        declared = bench["end_to_end"]
        # Host seconds scaled to the reference speed measured next to each
        # operation; each operation counts with its median over the passes.
        per_pass = [scaled_op_seconds(p) for p in passes]
        values = {
            "wall_s": [
                sum(statistics.median(ops[name] for ops in per_pass) for name in per_pass[0])
            ],
            "setup_s": setup_samples
            + [scaled(p["setup_s"], p["setup_kernel_s"]) for p in passes],
            "peak_rss_mib": [p["peak_rss_kib"] / 1024 for p in passes],
        }
    metrics = {
        m["name"]: {
            "value": statistics.median(values[m["name"]]) if m["name"] in values else 0,
            "unit": m["unit"],
        }
        for m in declared
    }
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }


def record(workloads: list[str]) -> None:
    """Rewrite the reference from one pass per (size, input set, workload)."""
    reference: dict[str, Any] = _load_json(REFERENCE_PATH) if REFERENCE_PATH.exists() else {}
    plan = [("full", s) for s in range(INPUT_SETS)] + [
        ("small", DEFAULT_SEED % INPUT_SETS),
        ("small", HELD_OUT_SEED % INPUT_SETS),
    ]
    for size, input_set in plan:
        for workload in workloads:
            payload = run_pass(workload, input_set, size)
            if payload["errors"]:
                raise BenchError(f"cannot record {workload}: {payload['errors']}")
            reference.setdefault(size, {}).setdefault(str(input_set), {})[workload] = {
                name: payload["digests"][name] for name in payload["expected"]
            }
            print(f"recorded {size} set {input_set} {workload}", file=sys.stderr)
    with open(REFERENCE_PATH, "w", encoding="utf-8") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--size", choices=("full", "small"), default="full",
        help="small is the self-test size; its reference covers the default "
        "and held-out seeds only",
    )
    parser.add_argument(
        "--record", action="store_true",
        help="rewrite perfbench/reference.json (only in a change to the benchmark)",
    )
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {ROOT / 'src' / 'repro'}", file=sys.stderr)
        return 2
    try:
        bench = _load_json(ROOT / "BENCHMARK.json")
    except (OSError, ValueError) as exc:
        print(f"perfbench: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    names = [w["name"] for w in bench["workloads"]]
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    try:
        if args.record:
            record([args.workload] if args.workload else names)
            return 0
        if args.workload not in names:
            parser.error(f"--workload must be one of {', '.join(names)}")
        result = measure(
            args.workload, args.seed, args.seconds, bool(args.trace), args.size, bench
        )
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
