"""Ablation: does resizing (or disciplining) the wired buffers fix the anomaly?

Sec. 4.2 proposes two remedies: (i) grow the wireline router buffers
(the Stanford rule says the 5G path needs ~5x the 4G buffer, i.e. about
2x what is deployed), or (ii) switch to loss-insensitive probing TCP
(BBR).  This ablation sweeps the wired buffer multiplier and measures
Cubic's utilization, with BBR as the no-buffer-change alternative —
and adds the third remedy the paper never had hardware for: replacing
the drop-tail FIFO with an AQM discipline (:mod:`repro.qdisc`) at the
deployed buffer budget's multiple.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.core.results import ResultTable
from repro.core.stats import percent
from repro.core.config import RadioProfile
from repro.experiments.common import DEFAULT_SEED
from repro.net.path import PathConfig
from repro.qdisc import RemedySection
from repro.scenario import Scenario, resolve_scenario
from repro.transport.iperf import run_tcp, run_udp_baseline

__all__ = ["BufferAblationResult", "BUFFER_MULTIPLIERS", "QDISC_AXIS", "run"]

BUFFER_MULTIPLIERS: tuple[float, ...] = (1.0, 2.0, 4.0)

#: The queue-discipline axis: each AQM runs at its default (deep)
#: buffer allocation — the discipline, not the depth, is the variable.
QDISC_AXIS: tuple[str, ...] = ("codel", "fq-codel", "cake")


@dataclass(frozen=True)
class BufferAblationResult:
    """Cubic utilization per buffer multiplier, plus the alternatives."""

    cubic_utilization: dict[float, float]
    bbr_utilization_at_1x: float
    qdisc_utilization: dict[str, float]

    @property
    def doubling_helps(self) -> bool:
        """The paper's suggestion: ~2x the wired buffer restores Cubic."""
        return self.cubic_utilization[2.0] > 1.3 * self.cubic_utilization[1.0]

    @property
    def aqm_beats_deployed_droptail(self) -> bool:
        """Every AQM discipline outperforms the 1x drop-tail deployment."""
        return all(
            self.qdisc_utilization[name] > self.cubic_utilization[1.0]
            for name in QDISC_AXIS
        )

    def table(self) -> ResultTable:
        """Render the sweep as a text table."""
        table = ResultTable(
            "Ablation — wired buffer sizing vs Cubic utilization (5G)",
            ["wired buffer", "cubic utilization"],
        )
        for mult in BUFFER_MULTIPLIERS:
            table.add_row([f"{mult:.0f}x deployed", percent(self.cubic_utilization[mult])])
        table.add_row(["(BBR at 1x)", percent(self.bbr_utilization_at_1x)])
        for name in QDISC_AXIS:
            table.add_row([f"({name} qdisc)", percent(self.qdisc_utilization[name])])
        return table


def _run_with_buffer(
    multiplier: float,
    algorithm: str,
    seed: int,
    scale: float,
    baseline: float,
    profile: RadioProfile,
) -> float:
    """One 30 s 5G TCP run's utilization, wired buffer scaled by ``multiplier``."""
    config = PathConfig(
        profile=profile, scale=scale, remedy=RemedySection(wired_buffer_ratio=multiplier)
    )
    return run_tcp(config, algorithm, duration_s=30.0, seed=seed, baseline_bps=baseline).utilization


def run(
    seed: int = DEFAULT_SEED,
    scale: float | None = None,
    repeats: int = 2,
    scenario: Scenario | str | None = None,
) -> BufferAblationResult:
    """Sweep wired-buffer multipliers under Cubic; measure BBR at 1x."""
    scn = resolve_scenario(scenario)
    if scale is None:
        scale = scn.workload.sim_scale
    nr_profile = scn.radio.nr
    config = PathConfig(profile=nr_profile, scale=scale)
    baseline = run_udp_baseline(config, duration_s=15.0, seed=seed)
    cubic: dict[float, float] = {}
    for multiplier in BUFFER_MULTIPLIERS:
        runs = [
            _run_with_buffer(multiplier, "cubic", seed + 2 * i, scale, baseline, nr_profile)
            for i in range(repeats)
        ]
        cubic[multiplier] = sum(runs) / repeats
    bbr = sum(
        _run_with_buffer(1.0, "bbr", seed + 2 * i, scale, baseline, nr_profile)
        for i in range(repeats)
    ) / repeats
    qdisc_util: dict[str, float] = {}
    for name in QDISC_AXIS:
        config = PathConfig(
            profile=nr_profile, scale=scale, remedy=RemedySection(qdisc=name)
        )
        runs = [
            run_tcp(
                config, "cubic", duration_s=30.0, seed=seed + 2 * i, baseline_bps=baseline
            ).utilization
            for i in range(repeats)
        ]
        qdisc_util[name] = sum(runs) / repeats
    return BufferAblationResult(
        cubic_utilization=cubic, bbr_utilization_at_1x=bbr, qdisc_utilization=qdisc_util
    )
