"""Byte-identity of short packet-level transfers.

The golden file pins short transfers through every queue discipline a
``Link`` can hold: five congestion controllers over the deployed
drop-tail path, cubic over each AQM remedy (and CAKE on both the wired
and the radio hop), one split-connection (PEP) run and one UDP run with
its lost sequence numbers.  Each entry also keeps the audit ledgers its
run registered, with their run-end residuals, so a renamed, missing or
extra ledger fails here as surely as a changed throughput.  RTT and
cwnd traces are pinned by count and SHA-256 of their JSON rendering.

Two entries pin same-instant tie-breaks the short transfers miss: the
0.5 s cubic PEP transfer the ``anomaly-transfers`` benchmark runs at
transfer seed 8047, where a wired-link serialization end and an ACK
arrival fall on the same float instant, and a cubic transfer across a
hand-off outage (``NetworkPath.schedule_access_outage``, the fig12
pattern) that pauses the radio link mid-serialization and backs its
RTO off twice.

Two entries pin the application packet paths of Figs. 16-20: one
uplink 5.7K dynamic-scene ``run_video_session``, whose frame bursts
queue behind the stall-paused radio link (frames and the throughput
trace are pinned by count and SHA-256), one ``measure_plt`` page load
over BBR, and the edge experiment (``edge``), whose two page loads
have their own PLT formula.  Both page-load entries stop the simulator
at the completing ACK, so they also pin that nothing the stop skips
feeds a result.

Regenerate (only for an intended output change) with::

    PYTHONPATH=src python -m tests.test_transfers_golden
"""

from __future__ import annotations

import hashlib
import json
from collections.abc import Callable
from pathlib import Path
from typing import Any

from repro import instruments
from repro.apps.video import run_video_session
from repro.apps.web import WEB_PAGE_CATALOG, measure_plt
from repro.audit.core import Auditor
from repro.cli import _to_jsonable
from repro.core.rng import default_rng
from repro.experiments import discussion_edge_computing
from repro.experiments.common import path_config
from repro.experiments.remedy_comparison import REMEDY_VARIANTS
from repro.net.path import PathConfig, build_cellular_path
from repro.net.sim import Simulator
from repro.qdisc import RemedySection
from repro.scenario import resolve_scenario
from repro.transport.base import TcpConnection
from repro.transport.iperf import make_cc, run_tcp, run_udp

GOLDEN = Path(__file__).resolve().parent / "data" / "golden" / "transfers_seed7.json"

SEED = 7
DURATION_S = 0.3
#: At 0.3 s every AQM remedy still gives the same transfer; by 1 s CAKE's
#: shaper and the autorate controller have each changed the outcome.
AQM_DURATION_S = 1.0
DROPTAIL_CCAS = ("reno", "cubic", "vegas", "veno", "bbr")
AQM_REMEDIES = {
    **{name: REMEDY_VARIANTS[name] for name in ("codel", "fq-codel", "cake", "cake-autorate")},
    "cake-both": RemedySection(qdisc="cake", apply_to="both"),
}
#: The ``anomaly-transfers`` benchmark's ``cubic-pep#7`` at seed 7.
PEP_TIE_SEED = 8047
PEP_TIE_DURATION_S = 0.5
#: A hand-off gap that outlasts two backed-off RTOs, mid-transfer.
OUTAGE_AT_S = 0.4
OUTAGE_S = 0.6
OUTAGE_DURATION_S = 1.5
#: Long enough for about a hundred radio scheduling stalls.
VIDEO_DURATION_S = 3.0
#: Result fields pinned by count and SHA-256 of their JSON rendering.
HASHED_FIELDS = ("cwnd_trace", "rtt_samples", "delivered_trace", "frames", "throughput_trace")


def _cubic_across_outage(config: PathConfig) -> dict[str, Any]:
    """A cubic transfer whose radio link pauses for a hand-off gap."""
    sim = Simulator()
    path = build_cellular_path(sim, config, default_rng(SEED))
    conn = TcpConnection.establish(
        sim, path, make_cc("cubic", config.mss_bytes, rate_scale=config.scale)
    )
    path.schedule_access_outage(OUTAGE_AT_S, OUTAGE_S)
    conn.start()
    sim.run(until=OUTAGE_DURATION_S)
    stats = conn.sender.stats
    return {
        "bytes_acked": stats.bytes_acked,
        "packets_sent": stats.packets_sent,
        "retransmissions": stats.retransmissions,
        "timeouts": stats.timeouts,
        "fast_retransmits": stats.fast_retransmits,
        "rto_s": conn.sender.rto_s,
        "cwnd_trace": stats.cwnd_trace,
        "rtt_samples": stats.rtt_samples,
        "delivered_trace": stats.delivered_trace,
        "link_delivered": {
            link.name: link.delivered for link in path.forward + path.reverse
        },
    }


def _transfers() -> dict[str, Callable[[], Any]]:
    """Name -> zero-argument transfer, in run order."""
    paper = resolve_scenario(None)
    droptail = path_config(paper)
    baseline_bps = droptail.access_rate_bps() * droptail.scale
    runs: dict[str, Callable[[], Any]] = {}
    for cca in DROPTAIL_CCAS:
        runs[f"{cca}-droptail"] = lambda cca=cca: run_tcp(
            droptail, cca, duration_s=DURATION_S, seed=SEED, baseline_bps=baseline_bps
        )
    for name, remedy in AQM_REMEDIES.items():
        config = path_config(paper, remedy=remedy)
        runs[f"cubic-{name}"] = lambda config=config: run_tcp(
            config, "cubic", duration_s=AQM_DURATION_S, seed=SEED, baseline_bps=baseline_bps
        )
    pep = path_config(paper, remedy=REMEDY_VARIANTS["pep"])
    runs["cubic-pep"] = lambda: run_tcp(
        pep, "cubic", duration_s=DURATION_S, seed=SEED, baseline_bps=baseline_bps
    )
    runs["cubic-pep-tie"] = lambda: run_tcp(
        pep, "cubic", duration_s=PEP_TIE_DURATION_S, seed=PEP_TIE_SEED,
        baseline_bps=baseline_bps,
    )
    # fig12's path: no scheduling stalls (a stall's resume would end the
    # outage early) and no cross traffic.
    runs["cubic-outage"] = lambda: _cubic_across_outage(
        path_config(paper, with_cross_traffic=False, with_scheduling_stalls=False)
    )
    # Offered above the radio capacity, so the drop-tail queues overflow.
    runs["udp-droptail"] = lambda: run_udp(
        droptail, 1.1 * baseline_bps, duration_s=DURATION_S, seed=SEED
    )
    runs["video-5.7k-dynamic"] = lambda: run_video_session(
        paper.radio.nr, "5.7K", dynamic=True, duration_s=VIDEO_DURATION_S,
        scale=paper.workload.video_sim_scale, seed=SEED,
    )
    runs["plt-search"] = lambda: measure_plt(WEB_PAGE_CATALOG[0], paper.radio.nr, seed=SEED)
    runs["edge-plt"] = lambda: discussion_edge_computing.run(seed=SEED)
    return runs


def _pinned(result: Any) -> dict[str, Any]:
    data = _to_jsonable(result)
    for key in HASHED_FIELDS:
        if key in data:
            rendered = json.dumps(data[key]).encode()
            data[key] = {"count": len(data[key]), "sha256": hashlib.sha256(rendered).hexdigest()}
    return data


def _audited(fn: Callable[[], Any]) -> dict[str, Any]:
    auditor = Auditor()
    with instruments.using(auditor=auditor):
        result = fn()
        auditor.checkpoint("run-end")
    return {"ledgers": auditor.ledger_totals(), "result": _pinned(result)}


def render() -> str:
    """Every transfer's result and ledgers as the golden file's bytes."""
    payload = {name: _audited(fn) for name, fn in _transfers().items()}
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


class TestTransfersGolden:
    def test_transfers_match_golden_file(self):
        assert render().encode() == GOLDEN.read_bytes()

    def test_golden_file_covers_every_ledger_kind(self):
        golden = json.loads(GOLDEN.read_text())
        droptail = set(golden["cubic-droptail"]["ledgers"])
        codel = set(golden["cubic-codel"]["ledgers"])
        # A FIFO has no recount or sojourn ledgers; an AQM discipline does.
        assert "audit.link.wired_bottleneck.queue_residual_pkts" in droptail
        assert "audit.link.wired_bottleneck.sojourn_bounds_s" not in droptail
        assert "audit.link.wired_bottleneck.sojourn_bounds_s" in codel
        assert golden["udp-droptail"]["result"]["lost_seqs"]
        for entry in golden.values():
            assert all(residual == 0 for residual in entry["ledgers"].values())


if __name__ == "__main__":
    GOLDEN.write_text(render())
