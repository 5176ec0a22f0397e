"""One benchmark pass, in a fresh interpreter.

``perfbench/run.py`` starts this module once per pass from the checkout
root, with ``src`` on ``PYTHONPATH``, as::

    python3 -m perfbench.passrun '<request json>'

so every pass pays the interpreter start, ``import
repro.experiments.registry``, world generation, ``testbed()`` and a cold
shadow-fading cache, like every ``repro run``.  The pass sets the
workload up, runs its operations, digests each output and prints one
JSON object as the last line of its standard output.  A traced pass
also records spans, derives the per-layer figures, checks that the
workload stays off the layers it is meant to bypass, and runs the
isolated layer drives after the last operation.
"""

from __future__ import annotations

import json
import os
import resource
import statistics
import sys
import time
from typing import Any


def _audit_checks(record: Any) -> float:
    """The ``audit.checks_count`` KPI of one run record (0 if absent)."""
    entry = (record.metrics or {}).get("metrics", {}).get("audit.checks_count")
    return float(sum(entry["parts"].values())) if entry else 0.0


def _error(exc: BaseException) -> str:
    return f"{type(exc).__name__}: {str(exc).splitlines()[0] if str(exc) else ''}"


def main() -> int:
    request = json.loads(sys.argv[1])
    import_begin = time.perf_counter()
    import repro.experiments.registry  # noqa: F401  (timed: setup.import_s)

    import_end = time.perf_counter()

    from repro.experiments.common import testbed_cache_info
    from repro.net import sim
    from repro.runner.instrument import instrumented_call
    from repro.trace import Tracer

    from perfbench.calibrate import kernel_seconds
    from perfbench.digest import digest
    from perfbench.drives import DRIVES
    from perfbench.spans import NULL_SPANS, Spans
    from perfbench.workloads import Workload

    traced = request["traced"]
    spans = Spans(Tracer()) if traced else NULL_SPANS
    # `repro run` always gives failing runs somewhere to dump to.
    os.environ["REPRO_AUDIT_DIR"] = os.path.join(request["work_dir"], "audit")
    workload = Workload(
        request["workload"], request["seed"], request["size"], request["work_dir"]
    )
    sim_before = sim.global_counters()

    with spans.span("setup", begin_s=request["spawned_s"]):
        spans.record("setup.import", import_begin, import_end)
        workload.setup(spans)
        operations = workload.operations()
    setup_s = time.perf_counter() - request["spawned_s"]
    # Host speed next to each measured interval (see perfbench/calibrate.py).
    kernel_s = [kernel_seconds()]
    if request["setup_only"]:
        print(json.dumps({"setup_s": setup_s, "setup_kernel_s": kernel_s[0]}))
        return 0

    digests: dict[str, dict[str, str]] = {}
    errors: dict[str, str] = {}
    kept = []
    op_s: dict[str, float] = {}
    op_seconds: dict[str, float] = {}
    with spans.span(f"workload:{workload.name}"):
        for op in operations:
            begin_s = time.perf_counter()
            try:
                with spans.span(f"op:{op.name}"):
                    produced = op.run(spans)
            except Exception as exc:  # a failed operation is counted, not fatal
                produced = []
                for name in op.outputs:
                    errors[name] = _error(exc)
            elapsed_s = time.perf_counter() - begin_s
            kernel_s.append(kernel_seconds())
            op_seconds[op.name] = elapsed_s
            op_s[op.kind] = op_s.get(op.kind, 0.0) + elapsed_s
            for output in produced:
                digests[output.name] = {
                    "result": digest(output.result),
                    "kpis": digest(output.record.metrics),
                }
            if traced:
                kept.extend(produced)
            del produced  # untraced, the next operation starts without it
    payload: dict[str, Any] = {
        "setup_s": setup_s,
        "op_seconds": op_seconds,
        "setup_kernel_s": kernel_s[0],
        "op_kernel_s": {
            op.name: (kernel_s[i] + kernel_s[i + 1]) / 2 for i, op in enumerate(operations)
        },
        "expected": [name for op in operations for name in op.outputs],
        "digests": digests,
        "errors": errors,
    }

    if traced:
        span_s: dict[str, float] = {}
        for span in spans.as_dicts():
            span_s[span["name"]] = span_s.get(span["name"], 0.0) + span["end_s"] - span["begin_s"]
        records = [o.record for o in kept if not o.record.cached]
        events = sum(r.events_executed for r in records)
        scheduled = sum(r.events_scheduled for r in records)
        des_s = sum(r.wall_time_s for r in records if r.events_executed)
        metrics: dict[str, float] = {
            "net.sim.events_count": events,
            "net.sim.events_per_s": events / des_s if des_s else 0.0,
            "net.sim.cancelled_ratio": (
                sum(r.events_cancelled for r in records) / scheduled if scheduled else 0.0
            ),
            "audit.checks_count": sum(_audit_checks(r) for r in records),
            "setup.import_s": import_end - import_begin,
            "topology.generate_s": span_s.get("topology.generate", 0.0),
            "topology.testbed_s": span_s.get("topology.testbed", 0.0),
        }
        metrics.update(workload.layer_metrics(op_s, span_s, kept))

        # Layer separation: each workload is the bypass of the others' layers.
        checks: dict[str, str] = {}
        if workload.name == "radio-mobility":
            in_process = sim.global_counters().executed - sim_before.executed
            if events or in_process:
                checks["check:no-des-events"] = f"{events + in_process} DES events executed"
            else:
                checks["check:no-des-events"] = ""
        elif workload.name.endswith("-transfers"):
            builds = testbed_cache_info().misses
            checks["check:no-radio-survey"] = (
                f"{builds} testbed(s) built, so a radio survey could run" if builds else ""
            )

        with spans.span("drives"):
            for name, (metric, drive) in DRIVES.items():
                rates = []
                try:
                    for _ in range(3):
                        with spans.span(f"drive:{name}"):
                            begin_s = time.perf_counter()
                            work, _ = instrumented_call(
                                f"drive-{name}", 0, lambda drive=drive: drive(request["size"])
                            )
                            rates.append(work / (time.perf_counter() - begin_s))
                    checks[f"drive:{name}"] = ""
                except Exception as exc:  # a broken layer contract is a failure
                    checks[f"drive:{name}"] = _error(exc)
                metrics[metric] = statistics.median(rates) if rates else 0.0
        payload.update(metrics=metrics, checks=checks, spans=spans.as_dicts())

    self_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children_kib = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    payload["peak_rss_kib"] = max(self_kib, children_kib)
    print(json.dumps(payload))
    return 0


if __name__ == "__main__":
    sys.exit(main())
