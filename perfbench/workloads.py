"""The benchmark workloads: a set-up and a fixed list of operations each.

Every operation calls the program's public API under
``repro.runner.instrumented_call`` (audit and KPI registry on), the way
``repro run`` executes an experiment.  Inputs come only from the input
set the benchmark seed selects: the transfer seeds, the testbed seed and
the campaign seed are all derived from it.

Why these four (see README.md for the layer table):

* ``remedy-transfers`` — AQM-managed cubic transfers lose little, so the
  time goes to the event kernel, ``Link`` hops and qdisc enqueue/dequeue:
  the packet hot path.
* ``anomaly-transfers`` — the same kernel and links under bursty
  drop-tail overflow, where TCP loss recovery and BBR's model dominate;
  a UDP run is the transport-free baseline of the same path.
* ``radio-mobility`` — batched path-loss/wall-crossing surveys, shadow
  fading and the hand-off state machine with zero DES events, so every
  net/qdisc/transport change must leave it unchanged.
* ``figure-campaign`` — many short experiments through the process pool,
  the result cache, ``repro.apps`` and ``repro.energy``.
"""

from __future__ import annotations

import os
from collections.abc import Callable
from dataclasses import dataclass, field
from typing import Any

from repro.experiments import remedy_comparison
from repro.experiments.common import path_config, testbed
from repro.experiments.dense_survey import grid_locations
from repro.mobility.handoff import HandoffEngine
from repro.mobility.walker import RouteWalker
from repro.qdisc import RemedySection
from repro.radio.coverage import road_survey, survey_at_locations
from repro.runner import ResultCache, run_campaign
from repro.runner.instrument import RunRecord, instrumented_call
from repro.scenario import Scenario, resolve_scenario
from repro.topology import generate_world
from repro.transport.iperf import run_tcp, run_udp

__all__ = ["Operation", "Output", "Workload"]

#: Remedies of the packet-path workload, in run order.
REMEDIES = ("codel", "fq-codel", "cake", "cake-autorate")
#: Loss-based and model-based CCAs of the anomaly workload.
ANOMALY_CCAS = ("reno", "cubic", "vegas", "veno", "bbr")
#: The latency, application and energy figures of the campaign workload.
CAMPAIGN_EXPERIMENTS = (
    "fig13", "fig14", "fig15", "fig16", "fig17", "fig18", "fig19", "fig20",
    "fig21", "fig22", "fig23", "tab4", "edge", "cpe-dsl", "appendix",
)
CAMPAIGN_WORKERS = 2

#: Sizes.  ``rounds`` transfers of each kind run with distinct seeds, so
#: a pass sums many independent loss patterns and its cost varies little
#: from one input set to the next.  ``small`` is the self-test size.
SIZES: dict[str, dict[str, dict[str, Any]]] = {
    "remedy-transfers": {
        "full": {"rounds": 12, "duration_s": 0.5},
        "small": {"rounds": 1, "duration_s": 0.3},
    },
    "anomaly-transfers": {
        "full": {"rounds": 10, "duration_s": 1.0},
        "small": {"rounds": 1, "duration_s": 0.3},
    },
    "radio-mobility": {
        "full": {"grid_spacing_m": 25.0, "road_points": 2000, "walk_s": 1200.0},
        "small": {"grid_spacing_m": 150.0, "road_points": 100, "walk_s": 60.0},
    },
    "figure-campaign": {
        "full": {"experiments": CAMPAIGN_EXPERIMENTS},
        "small": {"experiments": ("fig13", "fig21", "tab4", "edge")},
    },
}


@dataclass(frozen=True)
class Output:
    """One checked output: what a call returned plus its run record."""

    name: str
    result: Any
    record: RunRecord


@dataclass(frozen=True)
class Operation:
    """One timed call.  ``outputs`` names what it must produce."""

    name: str
    kind: str
    outputs: tuple[str, ...]
    run: Callable[[Any], list[Output]]


def _single(name: str, kind: str, seed: int, layer: str, fn: Callable[[], Any]) -> Operation:
    """An operation that is one instrumented run whose body is the ``layer`` span.

    The operation span minus the layer span is the runner's own cost:
    audit set-up, the run-end checkpoint, the KPI snapshot.
    """

    def run(spans: Any) -> list[Output]:
        def body() -> Any:
            with spans.span(layer):
                return fn()

        return [Output(name, *instrumented_call(name, seed, body))]

    return Operation(name, kind, (name,), run)


@dataclass
class Workload:
    """A workload bound to one input set and size.

    ``setup`` does what precedes the first operation (scenarios, worlds,
    testbeds); ``operations`` lists the timed calls; ``layer_metrics``
    turns a traced pass into the workload's per-layer figures.
    """

    name: str
    seed: int
    size: str
    work_dir: str
    params: dict[str, Any] = field(init=False)
    state: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.params = SIZES[self.name][self.size]

    def setup(self, spans: Any) -> None:
        paper = resolve_scenario(None)
        self.state["paper"] = paper
        scenarios: tuple[Scenario, ...] = ()
        if self.name == "radio-mobility":
            scenarios = (resolve_scenario("urban-canyon"), paper)
        elif self.name == "figure-campaign":
            scenarios = (paper,)
        if scenarios:
            with spans.span("topology.generate"):
                for scenario in scenarios:
                    generate_world(self.seed, scenario.topology)
            with spans.span("topology.testbed"):
                self.state["beds"] = [testbed(self.seed, scenario) for scenario in scenarios]

    def operations(self) -> list[Operation]:
        return getattr(self, "_ops_" + self.name.replace("-", "_"))()

    # -- transfers -------------------------------------------------------

    def _transfer_seed(self, index: int) -> int:
        """Distinct per transfer, so no two share a loss pattern."""
        return 1000 * (self.seed + 1) + index

    def _ops_remedy_transfers(self) -> list[Operation]:
        paper = self.state["paper"]
        duration_s = self.params["duration_s"]
        ops = []
        for round_index in range(self.params["rounds"]):
            for variant in REMEDIES:
                seed = self._transfer_seed(len(ops))
                ops.append(
                    _single(
                        f"cubic-{variant}#{round_index}",
                        f"cubic-{variant}",
                        seed,
                        "experiments.remedy_comparison.run",
                        lambda seed=seed, variant=variant: remedy_comparison.run(
                            seed=seed, duration_s=duration_s, variants=(variant,),
                            scenario=paper,
                        ),
                    )
                )
        return ops

    def _ops_anomaly_transfers(self) -> list[Operation]:
        paper = self.state["paper"]
        duration_s = self.params["duration_s"]
        droptail = path_config(paper)
        pep = path_config(paper, remedy=RemedySection(pep=True))
        baseline_bps = droptail.access_rate_bps() * paper.workload.sim_scale
        ops: list[Operation] = []
        for round_index in range(self.params["rounds"]):
            for cca in ANOMALY_CCAS:
                seed = self._transfer_seed(len(ops))
                # BBR's windowed-max filter makes it ~3x costlier per
                # simulated second; half the duration keeps the mix even.
                cca_s = duration_s / 2 if cca == "bbr" else duration_s
                ops.append(
                    _single(
                        f"{cca}-droptail#{round_index}",
                        f"{cca}-droptail",
                        seed,
                        "transport.run_tcp",
                        lambda seed=seed, cca=cca, cca_s=cca_s: run_tcp(
                            droptail, cca, duration_s=cca_s, seed=seed,
                            baseline_bps=baseline_bps,
                        ),
                    )
                )
            seed = self._transfer_seed(len(ops))
            # Two connections and a relay: the PEP costs ~2.5x a plain
            # transfer, and its loss pattern would dominate the spread.
            ops.append(
                _single(
                    f"cubic-pep#{round_index}",
                    "cubic-pep",
                    seed,
                    "transport.run_tcp",
                    lambda seed=seed: run_tcp(
                        pep, "cubic", duration_s=duration_s / 2, seed=seed,
                        baseline_bps=baseline_bps,
                    ),
                )
            )
        seed = self._transfer_seed(len(ops))
        ops.append(
            _single(
                "udp-droptail#0",
                "udp-droptail",
                seed,
                "transport.run_udp",
                lambda seed=seed: run_udp(
                    droptail, baseline_bps / 2, duration_s=duration_s, seed=seed
                ),
            )
        )
        return ops

    # -- radio and mobility ----------------------------------------------

    def _ops_radio_mobility(self) -> list[Operation]:
        district, paper = self.state["beds"]
        grid = grid_locations(
            district.world.width_m, district.world.height_m, self.params["grid_spacing_m"]
        )
        self.state["grid_points"] = len(grid)
        points = self.params["road_points"]
        rngf = paper.rng_factory

        def survey(name: str, fn: Callable[[], Any]) -> Operation:
            return _single(name, name, self.seed, "radio.survey", fn)

        def walk(spans: Any) -> Any:
            walker = RouteWalker(
                paper.world, rngf.stream("ho-walk"),
                speed_kmh=paper.scenario.workload.walk_speed_kmh,
            )
            engine = HandoffEngine(
                paper.nr,
                paper.lte,
                rngf.stream("ho-engine"),
                config=paper.scenario.handoff,
                measurement_noise_db=paper.scenario.workload.measurement_noise_db,
                sa_mode=paper.scenario.radio.sa_mode,
            )
            with spans.span("mobility.trajectory"):
                trajectory = list(walker.trajectory(self.params["walk_s"], dt_s=0.108))
            with spans.span("mobility.handoff"):
                campaign = engine.run(trajectory)
            return len(trajectory), campaign

        return [
            # The first survey fills the district's shadow-fading cache,
            # the second reads it.
            survey("grid-cold", lambda: survey_at_locations(district.nr, grid)),
            survey("grid-warm", lambda: survey_at_locations(district.nr, grid)),
            survey(
                "road-nr",
                lambda: road_survey(paper.nr, paper.world, points, rngf.stream("road-survey.nr")),
            ),
            survey(
                "road-lte",
                lambda: road_survey(
                    paper.lte, paper.world, points, rngf.stream("road-survey.lte")
                ),
            ),
            Operation(
                "walk",
                "walk",
                ("walk",),
                lambda spans: [
                    Output("walk", *instrumented_call("walk", self.seed, lambda: walk(spans)))
                ],
            ),
        ]

    # -- figure campaign -------------------------------------------------

    def _ops_figure_campaign(self) -> list[Operation]:
        names = self.params["experiments"]
        cache_dir = os.path.join(self.work_dir, "cache")

        def campaign(phase: str) -> Operation:
            def run(spans: Any) -> list[Output]:
                with spans.span("runner.run_campaign"):
                    outcomes = run_campaign(
                        names,
                        seed=self.seed,
                        parallel=CAMPAIGN_WORKERS,
                        cache=ResultCache(cache_dir),
                        scenario=self.state["paper"],
                    )
                if phase == "cold":
                    self.state["cache_bytes"] = sum(
                        os.path.getsize(os.path.join(d, f))
                        for d, _, files in os.walk(cache_dir)
                        for f in files
                    )
                return [Output(f"{phase}:{o.name}", o.result, o.record) for o in outcomes]

            return Operation(phase, phase, tuple(f"{phase}:{n}" for n in names), run)

        # An empty cache, then the identical request served from it.
        return [campaign("cold"), campaign("warm")]

    # -- per-layer figures -----------------------------------------------

    def layer_metrics(
        self, op_s: dict[str, float], span_s: dict[str, float], outputs: list[Output]
    ) -> dict[str, float]:
        """Workload-specific per-layer figures of one traced pass.

        ``op_s`` is time per operation kind, ``span_s`` time per span
        name, both summed over the pass.
        """
        metrics: dict[str, float] = {}
        if self.name in ("remedy-transfers", "anomaly-transfers"):
            for kind, seconds in op_s.items():
                metrics[f"transport.op.{kind}_s"] = seconds
            retransmits = 0
            for output in outputs:
                count = getattr(output.result, "retransmissions", 0)
                retransmits += sum(count.values()) if isinstance(count, dict) else count
            metrics["transport.retransmits_count"] = retransmits
        elif self.name == "radio-mobility":
            by_name = {o.name: o.result for o in outputs}
            grid_points = self.state["grid_points"]
            grid_s = op_s.get("grid-cold", 0.0) + op_s.get("grid-warm", 0.0)
            road = len(by_name.get("road-nr", ())) + len(by_name.get("road-lte", ()))
            ticks, campaign = by_name.get("walk", (0, None))
            walk_s = span_s.get("mobility.trajectory", 0.0) + span_s.get("mobility.handoff", 0.0)
            metrics.update(
                {
                    "radio.grid_points_count": grid_points,
                    "radio.grid_cold_s": op_s.get("grid-cold", 0.0),
                    "radio.grid_warm_s": op_s.get("grid-warm", 0.0),
                    "radio.grid_points_per_s": 2 * grid_points / grid_s if grid_s else 0.0,
                    "radio.road_points_count": road,
                    "radio.road_s": op_s.get("road-nr", 0.0) + op_s.get("road-lte", 0.0),
                    "mobility.ticks_count": ticks,
                    "mobility.trajectory_s": span_s.get("mobility.trajectory", 0.0),
                    "mobility.handoff_s": span_s.get("mobility.handoff", 0.0),
                    "mobility.ticks_per_s": ticks / walk_s if walk_s else 0.0,
                    "mobility.handoffs_count": len(campaign.events) if campaign else 0,
                }
            )
        elif self.name == "figure-campaign":
            cold = [o.record for o in outputs if o.name.startswith("cold:")]
            busy_s = sum(r.wall_time_s for r in cold)
            cold_s = op_s.get("cold", 0.0)
            metrics.update(
                {
                    "runner.runs_count": len(cold),
                    "runner.cold_s": cold_s,
                    "runner.warm_s": op_s.get("warm", 0.0),
                    "runner.experiment_s": busy_s,
                    "runner.busy_ratio": busy_s / (CAMPAIGN_WORKERS * cold_s) if cold_s else 0.0,
                    "runner.cache_bytes": self.state.get("cache_bytes", 0),
                }
            )
            for record in cold:
                metrics[f"experiments.{record.experiment}_s"] = record.wall_time_s
        return metrics

