"""Self-test of the benchmark at its reduced size.

Run from the repository root: ``python3 -m pytest -q perfbench/tests``.
Every run goes through ``perfbench/run.py`` as a user (or the harness)
would start it, so the whole path — fresh pass processes, reference
check, result line, trace file — is what is tested.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT), str(ROOT / "src")]

from perfbench.digest import digest  # noqa: E402
from perfbench.run import DEFAULT_SEED, HELD_OUT_SEED, INPUT_SETS  # noqa: E402
from perfbench.spans import self_seconds  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
REFERENCE = json.loads((ROOT / "perfbench" / "reference.json").read_text())


def run_bench(
    workload: str, seed: int, trace: int, root: Path = ROOT
) -> subprocess.CompletedProcess:
    return subprocess.run(
        [
            sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", "1", "--trace", str(trace), "--size", "small",
        ],
        cwd=root,
        capture_output=True,
        text=True,
        timeout=600,
    )


def result_line(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


_cache: dict[tuple[str, int, int], dict] = {}


def cached_result(workload: str, seed: int, trace: int) -> dict:
    key = (workload, seed, trace)
    if key not in _cache:
        _cache[key] = result_line(run_bench(workload, seed, trace))
    return _cache[key]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_reports_every_end_to_end_metric(workload):
    result = cached_result(workload, DEFAULT_SEED, 0)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] > 0
    assert list(result["metrics"]) == [m["name"] for m in BENCH["end_to_end"]]
    for metric in BENCH["end_to_end"]:
        entry = result["metrics"][metric["name"]]
        assert entry["unit"] == metric["unit"]
        assert entry["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(workload):
    result = cached_result(workload, DEFAULT_SEED, 1)
    assert result["correct"] and result["failed"] == 0
    metrics = result["metrics"]
    assert list(metrics) == [m["name"] for m in BENCH["per_layer"]]
    assert metrics["error_ratio"]["value"] == 0
    assert metrics["net.sim.drain_events_per_s"]["value"] > 0
    assert metrics["qdisc.cake.pairs_per_s"]["value"] > 0
    events = metrics["net.sim.events_count"]["value"]
    if workload == "radio-mobility":
        assert events == 0
        assert metrics["radio.grid_points_count"]["value"] > 0
        assert metrics["mobility.ticks_count"]["value"] > 0
    elif workload.endswith("-transfers"):
        assert events > 0
        assert any(
            v["value"] > 0 for k, v in metrics.items() if k.startswith("transport.op.")
        )
    else:
        assert metrics["runner.runs_count"]["value"] > 0


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_spans_nest_with_nonnegative_self_time(workload):
    cached_result(workload, DEFAULT_SEED, 1)
    trace = json.loads(
        (ROOT / ".perfbench" / f"trace-{workload}-seed{DEFAULT_SEED}.json").read_text()
    )
    spans = [e for e in trace["traceEvents"] if e["ph"] == "X"]
    assert spans
    by_pass: dict[int, dict[int, dict]] = {}
    for event in spans:
        by_pass.setdefault(event["args"]["pass_index"], {})[event["args"]["id"]] = event
    for index, events in by_pass.items():
        names = {e["name"] for e in events.values()}
        assert {"setup", "setup.import", f"workload:{workload}", "drives"} <= names
        for event in events.values():
            assert event["args"]["self_s"] >= -1e-9
            parent = event["args"]["parent"]
            if parent:
                outer = events[parent]
                assert outer["ts"] <= event["ts"] + 1e-3
                assert event["ts"] + event["dur"] <= outer["ts"] + outer["dur"] + 1e-3
        ops = [e for e in events.values() if e["name"].startswith("op:")]
        root = next(e for e in events.values() if e["name"] == f"workload:{workload}")
        assert ops and all(e["args"]["parent"] == root["args"]["id"] for e in ops)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_held_out_seed_has_its_own_inputs_and_matches_its_reference(workload):
    held_out = REFERENCE["small"][str(HELD_OUT_SEED % INPUT_SETS)][workload]
    default = REFERENCE["small"][str(DEFAULT_SEED % INPUT_SETS)][workload]
    assert held_out.keys() == default.keys()
    assert any(held_out[name] != default[name] for name in default)
    result = cached_result(workload, HELD_OUT_SEED, 0)
    assert result["correct"] and result["failed"] == 0


def _checkout_copy(tmp_path: Path, with_program: bool) -> Path:
    root = tmp_path / "checkout"
    root.mkdir()
    shutil.copy(ROOT / "BENCHMARK.json", root)
    shutil.copytree(
        ROOT / "perfbench",
        root / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__", "tests"),
    )
    if with_program:
        (root / "src").symlink_to(ROOT / "src")
    return root


def test_doctored_reference_counts_as_failure(tmp_path):
    root = _checkout_copy(tmp_path, with_program=True)
    path = root / "perfbench" / "reference.json"
    reference = json.loads(path.read_text())
    outputs = reference["small"][str(DEFAULT_SEED % INPUT_SETS)]["remedy-transfers"]
    first = sorted(outputs)[0]
    outputs[first]["result"] = "0" * len(outputs[first]["result"])
    path.write_text(json.dumps(reference))
    proc = run_bench("remedy-transfers", DEFAULT_SEED, 0, root=root)
    result = result_line(proc)
    assert not result["correct"]
    assert result["failed"] >= 1
    assert f"{first}: output differs from the reference" in proc.stderr


def test_benchmark_without_the_program_fails_without_a_result(tmp_path):
    root = _checkout_copy(tmp_path, with_program=False)
    proc = run_bench("remedy-transfers", DEFAULT_SEED, 0, root=root)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_digest_is_exact_and_order_aware():
    assert digest(0.1 + 0.2) != digest(0.3)
    assert digest([1, 2.0]) != digest([1.0, 2])
    assert digest({"a": 1, "b": 2}) != digest({"b": 2, "a": 1})
    assert digest({"x", "y", "z"}) == digest({"z", "y", "x"})


def test_self_time_subtracts_the_union_of_children():
    spans = [
        {"id": 1, "parent": 0, "begin_s": 0.0, "end_s": 10.0},
        {"id": 2, "parent": 1, "begin_s": 1.0, "end_s": 4.0},
        {"id": 3, "parent": 1, "begin_s": 3.0, "end_s": 6.0},
        {"id": 4, "parent": 1, "begin_s": 9.0, "end_s": 12.0},
    ]
    own = self_seconds(spans)
    assert own[1] == pytest.approx(10.0 - 5.0 - 1.0)
    assert own[2] == pytest.approx(3.0)
