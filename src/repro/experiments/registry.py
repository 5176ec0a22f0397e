"""The experiment catalogue: one entry per paper table/figure.

The CLI (:mod:`repro.cli`), the campaign runner (:mod:`repro.runner`) and
the benchmark harness all drive experiments through this single registry,
so adding an experiment here is the only step needed to make it runnable
everywhere.

Each entry *names* its module instead of importing it: listing the
catalogue, validating names and reading descriptions import nothing, and
:attr:`ExperimentSpec.module` imports an experiment's module the first
time something runs or inspects it.
"""

from __future__ import annotations

import importlib
import inspect
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from types import ModuleType
from typing import Any

from repro.scenario import Scenario

__all__ = [
    "EXPERIMENTS",
    "ExperimentSpec",
    "UnknownExperimentError",
    "resolve_names",
]


@dataclass(frozen=True)
class ExperimentSpec:
    """One catalogue entry.

    ``module_name`` is the experiment's module within
    :mod:`repro.experiments` (``"fig7_throughput"``); :attr:`module`
    imports it.
    """

    name: str
    module_name: str
    description: str
    describe: Callable[[Any], str] | None = None

    @property
    def module(self) -> ModuleType:
        """The experiment's module, imported on first access."""
        return importlib.import_module(f"{__package__}.{self.module_name}")

    @property
    def default_params(self) -> dict[str, Any]:
        """Tunable keyword parameters of ``run()`` with their defaults.

        ``seed`` and ``scenario`` are threaded by the harness, so they are
        excluded; what remains is what ``run(..., **params)`` accepts.
        """
        signature = inspect.signature(self.module.run)
        return {
            name: parameter.default
            for name, parameter in signature.parameters.items()
            if name not in ("seed", "scenario")
            and parameter.default is not inspect.Parameter.empty
        }

    def run(
        self,
        seed: int,
        scenario: Scenario | str | None = None,
        **params: Any,
    ) -> Any:
        """Execute the experiment under ``scenario``.

        Extra keyword ``params`` are forwarded to the module's ``run()``
        (see :attr:`default_params`); unknown names raise ``TypeError``
        rather than being silently dropped.
        """
        unknown = sorted(set(params) - set(self.default_params))
        if unknown:
            raise TypeError(
                f"experiment {self.name!r} does not accept parameter(s)"
                f" {', '.join(unknown)}; valid: {', '.join(sorted(self.default_params))}"
            )
        return self.module.run(seed=seed, scenario=scenario, **params)


class UnknownExperimentError(KeyError):
    """Raised when a requested experiment name is not in the catalogue."""

    def __init__(self, names: list[str]) -> None:
        super().__init__(", ".join(names))
        self.names = names

    def __str__(self) -> str:
        return f"unknown experiment(s): {', '.join(self.names)}"


def _describe_fig4(r: Any) -> str:
    return (
        f"5G-5G hand-off at t={r.handoff_time_s:.1f}s "
        f"(PCI {r.source_pci} -> {r.target_pci}), {len(r.times_s)} RSRQ samples, "
        f"serving degrades beforehand: {r.serving_degrades_before_handoff}"
    )


def _describe_fig8(r: Any) -> str:
    cubic = r.mean_cwnd(r.cubic_trace, 10.0) / 1448
    bbr = r.mean_cwnd(r.bbr_trace, 10.0) / 1448
    return (
        f"mean cwnd after slow-start: cubic {cubic:.0f} segs vs bbr {bbr:.0f} segs; "
        f"cubic fast-retransmits: {r.cubic_fast_retransmits}"
    )


def _describe_fig11(r: Any) -> str:
    return (
        f"loss {r.loss_rate:.2%}; mean run {r.mean_run_length:.1f} pkts "
        f"(i.i.d. would be {r.expected_random_mean_run:.2f}); "
        f"burst fraction {r.burst_fraction:.0%}"
    )


def _describe_fig19(r: Any) -> str:
    return (
        f"throughput CV static {r.fluctuation(r.static_trace_mbps):.3f} vs "
        f"dynamic {r.fluctuation(r.dynamic_trace_mbps):.3f}; "
        f"freezes static {r.static_freezes} / dynamic {r.dynamic_freezes}"
    )


def _describe_fig20(r: Any) -> str:
    return (
        f"mean frame delay 5G {r.nr_mean_s * 1000:.0f} ms / 4G {r.lte_mean_s * 1000:.0f} ms; "
        f"processing {r.processing_s * 1000:.0f} ms vs "
        f"5G network {r.nr_network_s * 1000:.0f} ms"
    )


def _describe_remedy(r: Any) -> str:
    dt = r.goodput_bps.get("droptail", 0.0) / 1e6
    best = max(
        (v for v in r.goodput_bps if v != "droptail"),
        key=lambda v: r.goodput_bps[v],
        default=None,
    )
    if best is None:
        return f"droptail {dt:.1f} Mbps (no remedies run)"
    return (
        f"droptail {dt:.1f} Mbps -> best remedy {best} "
        f"{r.goodput_bps[best] / 1e6:.1f} Mbps; "
        f"all headline remedies beat droptail: {r.remedies_beat_droptail}"
    )


def _catalogue() -> dict[str, ExperimentSpec]:
    entries: list[tuple[str, str, str, Callable[[Any], str] | None]] = [
        ("tab1", "tab1_physical_info", "basic physical info of both networks", None),
        ("tab2", "tab2_rsrp_distribution", "RSRP distribution and coverage holes", None),
        ("fig2", "fig2_coverage_map", "campus RSRP map + cell-72 bit-rate contour", None),
        ("fig3", "fig3_indoor_outdoor", "indoor/outdoor bit-rate gap", None),
        ("fig4", "fig4_handoff_rsrq", "RSRQ evolution across one hand-off", _describe_fig4),
        ("fig5", "fig5_rsrq_gap", "RSRQ gain across hand-offs", None),
        ("fig6", "fig6_handoff_latency", "hand-off latency by kind", None),
        ("fig7", "fig7_throughput", "UDP baselines + TCP utilization anomaly", None),
        ("fig8", "fig8_cwnd", "Cubic vs BBR cwnd evolution", _describe_fig8),
        ("fig9", "fig9_loss_rate", "UDP loss vs offered load", None),
        ("fig10", "fig10_retransmissions", "HARQ retransmission depth", None),
        ("fig11", "fig11_bursty_loss", "bursty loss pattern", _describe_fig11),
        ("tab3", "tab3_buffer_size", "in-network buffer estimation", None),
        ("fig12", "fig12_ho_throughput", "TCP throughput drop at hand-off", None),
        ("fig13", "fig13_rtt_scatter", "4G vs 5G RTT over 80 paths", None),
        ("fig14", "fig14_rtt_hops", "per-hop RTT decomposition", None),
        ("fig15", "fig15_rtt_distance", "RTT vs path distance", None),
        ("fig16", "fig16_plt_sites", "PLT by website category", None),
        ("fig17", "fig17_plt_images", "PLT vs image size", None),
        ("fig18", "fig18_video_throughput", "video throughput by resolution", None),
        ("fig19", "fig19_video_fluctuation", "5.7K throughput fluctuation", _describe_fig19),
        ("fig20", "fig20_frame_delay", "4K telephony frame delay", _describe_fig20),
        ("fig21", "fig21_power_breakdown", "power breakdown per app", None),
        ("fig22", "fig22_energy_per_bit", "energy per bit, saturated", None),
        ("fig23", "fig23_energy_timeline", "energy-management showcase", None),
        ("tab4", "tab4_energy_models", "energy of the four power models", None),
        ("ablation-buffers", "ablation_buffer_sizing", "wired buffer sizing vs TCP anomaly", None),
        ("ablation-sa", "ablation_sa_mode", "NSA vs projected SA architecture", None),
        (
            "ablation-coexistence",
            "ablation_coexistence",
            "4G/5G flows sharing a wireline path",
            None,
        ),
        (
            "remedy-comparison",
            "remedy_comparison",
            "TCP-anomaly remedies: drop-tail vs CoDel/CAKE/PEP",
            _describe_remedy,
        ),
        (
            "remedy-cca-matrix",
            "remedy_cca_matrix",
            "remedy × congestion-control goodput matrix",
            None,
        ),
        ("cpe-dsl", "discussion_cpe_dsl", "5G fixed wireless vs DSL", None),
        ("event-mix", "sec34_event_mix", "measurement-event mix along a walk", None),
        (
            "dense-survey",
            "dense_survey",
            "full-campus grid survey on the densified 5G topology",
            None,
        ),
        (
            "world-survey",
            "world_survey",
            "district survey + workload synthesis on a generated topology",
            None,
        ),
        ("appendix", "appendix_tables", "appendix tables 5/6/7", None),
        ("edge", "discussion_edge_computing", "mobile edge computing", None),
    ]
    return {
        name: ExperimentSpec(name, module_name, description, describe)
        for name, module_name, description, describe in entries
    }


#: name -> spec, in paper order.
EXPERIMENTS: dict[str, ExperimentSpec] = _catalogue()


def resolve_names(names: Iterable[str], run_all: bool = False) -> list[str]:
    """Validate and dedupe experiment names, preserving first-seen order.

    With ``run_all`` the whole catalogue is returned (in catalogue order)
    and ``names`` is ignored.  Underscores normalize to the catalogue's
    dashes (``remedy_comparison`` == ``remedy-comparison``), matching how
    people type module names.

    Raises:
        UnknownExperimentError: if any name is not in the catalogue.
    """
    if run_all:
        return list(EXPERIMENTS)
    normalized = [n if n in EXPERIMENTS else n.replace("_", "-") for n in names]
    unknown = [n for n in normalized if n not in EXPERIMENTS]
    if unknown:
        raise UnknownExperimentError(unknown)
    return list(dict.fromkeys(normalized))
