"""Tests for the ``repro.<kind>`` JSONL run artifacts (trace, metrics, audit).

The golden files under ``tests/data/golden/artifacts/`` pin the bytes
that a small hand-made trace, a metrics snapshot merged from two origins
and a flight recorder write, each with campaign ``meta``, plus the
Prometheus text of the snapshot.  Every defect a reader rejects is
checked once per kind, through the kind's loader and ``repro inspect``.

Regenerate (only for an intended format change) with::

    PYTHONPATH=src python -m tests.test_artifacts
"""

from __future__ import annotations

import json
from pathlib import Path

import pytest

from repro import audit, metrics, trace
from repro.artifacts import KINDS
from repro.audit import Auditor
from repro.cli import main
from repro.metrics import MetricRegistry, merge_snapshots
from repro.trace import Tracer

GOLDEN = Path(__file__).resolve().parent / "data" / "golden" / "artifacts"


def _tracer() -> Tracer:
    tracer = Tracer()
    tracer.complete("ho.phase:rrc", 1.0, 1.5, kind="5G-5G", step=2)
    tracer.instant("ho.trigger", 1.0, kind="5G-5G")
    tracer.counter("sim.queue_depth", 1.0, 3.0)
    tracer.complete("net.transfer", 0.25, 2.125, cc="cubic", flow=1)
    tracer.instant("net.drop", 1.75, seq=1448)
    tracer.counter("sim.queue_depth", 1.5, 0.0)
    return tracer


def _snapshot() -> dict:
    parts = []
    for shift, origin in enumerate(("fig13:7", "fig21:7")):
        registry = MetricRegistry(origin=origin)
        registry.counter("a.events_count").inc(3 + shift)
        registry.gauge("a.headline_ms").set(10.5 * (shift + 1))
        for i in range(20):
            registry.quantile("a.rtt_ms", k=8).observe(20.0 + 0.75 * i + shift)
        parts.append(registry.snapshot())
    return merge_snapshots(parts)


def _auditor() -> Auditor:
    auditor = Auditor()
    auditor.note("audit.test.tick_count", 0.25, phase="start")
    auditor.flag("audit.test.residual_pkts", 0.5, residual=2)
    auditor.probe("audit.test.bounds_pkts", True, 0.75)
    auditor.note("audit.test.tick_count", 1.0, phase="end")
    return auditor


def render(directory: Path) -> None:
    """Write every golden artifact into ``directory``."""
    directory.mkdir(parents=True, exist_ok=True)
    campaign = {"experiments": ["fig13", "fig21"], "seed": 7}
    trace.write_jsonl(_tracer(), str(directory / "trace.jsonl"), meta={**campaign, "all": False})
    metrics.write_jsonl(_snapshot(), str(directory / "metrics.jsonl"), meta=campaign)
    metrics.write_prometheus(_snapshot(), str(directory / "metrics.prom"))
    audit.write_jsonl(
        _auditor(), str(directory / "audit.jsonl"), meta={"experiment": "fig13", "seed": 7}
    )


class TestGoldenBytes:
    def test_artifacts_match_golden_files(self, tmp_path):
        render(tmp_path)
        names = sorted(path.name for path in GOLDEN.iterdir())
        assert names == ["audit.jsonl", "metrics.jsonl", "metrics.prom", "trace.jsonl"]
        for name in names:
            assert (tmp_path / name).read_bytes() == (GOLDEN / name).read_bytes(), name

    def test_golden_files_read_back(self):
        assert trace.load_trace(str(GOLDEN / "trace.jsonl")).records() == _tracer().records()
        snapshot = metrics.load_snapshot(str(GOLDEN / "metrics.jsonl"))
        assert json.dumps(snapshot, sort_keys=True) == json.dumps(_snapshot(), sort_keys=True)
        header, events = audit.load_audit(str(GOLDEN / "audit.jsonl"))
        assert header["meta"] == {"experiment": "fig13", "seed": 7}
        assert events == _auditor().records()


LOADERS = {"trace": trace.load_trace, "metrics": metrics.load_snapshot, "audit": audit.load_audit}


def _defective(kind: str, defect: str) -> str:
    """The golden ``kind`` file with one defect."""
    text = (GOLDEN / f"{kind}.jsonl").read_text()
    header, _, body = text.partition("\n")
    other = KINDS[(KINDS.index(kind) + 1) % len(KINDS)]
    other_header = (GOLDEN / f"{other}.jsonl").read_text().partition("\n")[0]
    return {
        "empty": "",
        "whitespace": " \n\n\t \n",
        "truncated": text[:-10],
        "headerless": body,
        "other-kind": f"{other_header}\n{body}",
        "non-object": f"{header}\n[1, 2]\n",
    }[defect]


class TestReader:
    @pytest.mark.parametrize(
        "defect", ["empty", "whitespace", "truncated", "headerless", "other-kind", "non-object"]
    )
    @pytest.mark.parametrize("kind", KINDS)
    def test_rejects_defective_file(self, kind, defect, tmp_path, capsys):
        path = tmp_path / f"{kind}.jsonl"
        path.write_text(_defective(kind, defect))
        with pytest.raises(ValueError, match=kind):
            LOADERS[kind](str(path))
        assert main(["inspect", "show", str(path)]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"repro inspect: {path}")
        assert len(captured.err.splitlines()) == 1, captured.err


if __name__ == "__main__":
    render(GOLDEN)
