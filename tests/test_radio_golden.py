"""Byte-identity of the batched radio surveys and the hand-off engine.

The golden file pins what the coverage and mobility figures are built
from: a coarse grid survey of the urban-canyon district, run twice on one
fresh testbed (the first fills the shadow-fading cache, the second reads
it), the NR and LTE road surveys of the paper campus, the district's
(grid point x mast) wall-crossing matrix, and a hand-off walk with
measurement noise on both the paper campus and the district.  Hand-off
events are pinned verbatim; the wall-crossing matrix and the per-report
trace are pinned by count and SHA-256 of their JSON rendering.

Regenerate (only for an intended output change) with::

    PYTHONPATH=src python -m tests.test_radio_golden
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path
from typing import Any

import numpy as np

from repro.cli import _to_jsonable
from repro.experiments.common import _build_testbed
from repro.experiments.dense_survey import grid_locations
from repro.mobility.handoff import HandoffEngine, HandoffKind
from repro.mobility.walker import RouteWalker
from repro.radio import batch
from repro.radio.coverage import road_survey, survey_at_locations
from repro.scenario import resolve_scenario

GOLDEN = Path(__file__).resolve().parent / "data" / "golden" / "radio_seed7.json"

SEED = 7
GRID_SPACING_M = 100.0
CROSSING_GRID_SPACING_M = 50.0
ROAD_POINTS = 200
#: Walk lengths at which each world sees all four hand-off kinds.
WALK_S = {"paper-nsa": 900.0, "urban-canyon": 240.0}
TICK_S = 0.108


def _digest(value: Any) -> dict[str, Any]:
    rendered = json.dumps(_to_jsonable(value)).encode()
    return {"count": len(value), "sha256": hashlib.sha256(rendered).hexdigest()}


def _walk(bed: Any) -> dict[str, Any]:
    rngf = bed.rng_factory
    workload = bed.scenario.workload
    walker = RouteWalker(bed.world, rngf.stream("ho-walk"), speed_kmh=workload.walk_speed_kmh)
    engine = HandoffEngine(
        bed.nr,
        bed.lte,
        rngf.stream("ho-engine"),
        config=bed.scenario.handoff,
        measurement_noise_db=workload.measurement_noise_db,
        sa_mode=bed.scenario.radio.sa_mode,
    )
    campaign = engine.run(walker.trajectory(WALK_S[bed.scenario.name], dt_s=TICK_S))
    return {
        "events": _to_jsonable(campaign.events),
        "outages": _to_jsonable(campaign.outages),
        "trace": _digest(campaign.trace),
    }


def _crossing_matrix(bed: Any) -> dict[str, Any]:
    grid = grid_locations(bed.world.width_m, bed.world.height_m, CROSSING_GRID_SPACING_M)
    x, y = batch.points_to_arrays(grid)
    masts = sorted({(c.position.x, c.position.y) for c in (*bed.nr.cells, *bed.lte.cells)})
    mast_x = np.array([m[0] for m in masts])[np.newaxis, :]
    mast_y = np.array([m[1] for m in masts])[np.newaxis, :]
    crossings = bed.world.buildings.wall_crossings_counts(
        mast_x, mast_y, x[:, np.newaxis], y[:, np.newaxis]
    )
    pinned = _digest(crossings)
    pinned["shape"] = list(crossings.shape)
    pinned["total"] = int(crossings.sum())
    return pinned


def render() -> str:
    """Every survey, crossing matrix and walk as the golden file's bytes."""
    # Fresh (uncached) testbeds: the grid survey must start with an empty
    # shadow-fading cache whatever ran earlier in the process.
    district = _build_testbed.__wrapped__(SEED, resolve_scenario("urban-canyon"))
    paper = _build_testbed.__wrapped__(SEED, resolve_scenario(None))
    grid = grid_locations(district.world.width_m, district.world.height_m, GRID_SPACING_M)
    rngf = paper.rng_factory
    cold = survey_at_locations(district.nr, grid)
    payload = {
        "grid-cold": _to_jsonable(cold),
        "grid-cold-digest": _digest(cold),
        "grid-warm": _digest(survey_at_locations(district.nr, grid)),
        "road-nr": _to_jsonable(
            road_survey(paper.nr, paper.world, ROAD_POINTS, rngf.stream("road-survey.nr"))
        ),
        "road-lte": _to_jsonable(
            road_survey(paper.lte, paper.world, ROAD_POINTS, rngf.stream("road-survey.lte"))
        ),
        "district-crossings": _crossing_matrix(district),
        "walk-paper-campus": _walk(paper),
        "walk-urban-canyon": _walk(district),
    }
    return json.dumps(payload, indent=1, sort_keys=True) + "\n"


class TestRadioGolden:
    def test_surveys_and_walks_match_golden_file(self):
        assert render().encode() == GOLDEN.read_bytes()

    def test_golden_file_exercises_every_branch(self):
        golden = json.loads(GOLDEN.read_text())
        # A warm survey reads the cache the cold one filled: same answer.
        assert golden["grid-warm"] == golden["grid-cold-digest"]
        assert any(point["indoor"] for point in golden["grid-cold"])
        assert golden["district-crossings"]["total"] > 0
        for walk in ("walk-paper-campus", "walk-urban-canyon"):
            kinds = {event["kind"] for event in golden[walk]["events"]}
            assert kinds == set(HandoffKind.ALL), walk


if __name__ == "__main__":
    GOLDEN.write_text(render())
