"""Batched radio core speedups: the dense-grid survey must be >=10x faster,
and cold shadow-fading draws >=4x faster through the batched keyed draw.

Times the full-campus dense grid survey two ways on the densified
``dense-grid`` scenario:

* batched — one :func:`survey_at_locations` call over every grid point;
* scalar — the per-point ``_survey_at`` loop the surveys used before the
  struct-of-arrays core, run over a subsample and extrapolated per point.

The shadow-fading cache is warmed first (one untimed batched pass): both
paths draw the same per-grid-cell shadowing streams through the same
cache, so warm-cache timing isolates the path-loss/combining math that
the vectorization actually targets.  Results must also agree exactly —
the speedup claim is only meaningful if the answers are bit-identical.

The cold-draw case draws about 20k shadow-style keys two ways:
``RngFactory.standard_normals`` over the whole list, and one
``stream(key).standard_normal()`` per key, which builds a numpy
``SeedSequence`` per key.  The values must be bitwise equal.

Run with plain ``pytest benchmarks/test_batch_speedup.py -s`` (these tests
time themselves and do not use the pytest-benchmark fixture).
"""

import time

import numpy as np

from repro.core.rng import RngFactory
from repro.experiments.common import testbed as build_testbed
from repro.experiments.dense_survey import grid_locations
from repro.radio.coverage import _survey_at, survey_at_locations

#: Scalar subsample size: big enough for a stable per-point time, small
#: enough to keep the (slow) scalar side under a few seconds.
SCALAR_SAMPLE = 150

MIN_SPEEDUP = 10.0

#: Shadow keys of four masts over a 71 x 71 cell grid: 20,164 cold draws.
SHADOW_MASTS = ((0, 0), (481, -35), (-120, 260), (75, 1210))
SHADOW_CELLS = 71
MIN_DRAW_SPEEDUP = 4.0
#: Each side is timed this many times, alternating; the best run counts.
DRAW_ROUNDS = 3


def test_dense_grid_survey_speedup():
    bed = build_testbed(scenario="dense-grid")
    locations = grid_locations(bed.world.width_m, bed.world.height_m, 10.0)

    # Warm the testbed caches and the shared shadow-fading draws.
    survey_at_locations(bed.nr, locations)

    start = time.perf_counter()
    batched = survey_at_locations(bed.nr, locations)
    batched_s = time.perf_counter() - start

    sample = locations[:: max(1, len(locations) // SCALAR_SAMPLE)]
    start = time.perf_counter()
    scalar = [_survey_at(bed.nr, location) for location in sample]
    scalar_s = time.perf_counter() - start

    per_point_batched = batched_s / len(locations)
    per_point_scalar = scalar_s / len(sample)
    speedup = per_point_scalar / per_point_batched
    print(
        f"\nbatched {per_point_batched * 1e6:.1f} us/pt over {len(locations)} pts, "
        f"scalar {per_point_scalar * 1e6:.1f} us/pt over {len(sample)} pts, "
        f"speedup {speedup:.1f}x"
    )

    by_location = {point.location: point for point in batched}
    assert [by_location[point.location] for point in scalar] == scalar

    assert speedup >= MIN_SPEEDUP, (
        f"batched survey only {speedup:.1f}x faster than the scalar loop "
        f"(need >= {MIN_SPEEDUP}x)"
    )


def test_cold_shadow_draw_speedup():
    keys = [
        f"shadow:{tx}:{ty}:{gx}:{gy}:3500"
        for tx, ty in SHADOW_MASTS
        for gx in range(-10, SHADOW_CELLS - 10)
        for gy in range(SHADOW_CELLS)
    ]
    factory = RngFactory(7)
    batch_s, per_key_s = [], []
    for _ in range(DRAW_ROUNDS):
        start = time.perf_counter()
        batched = factory.standard_normals(keys)
        batch_s.append(time.perf_counter() - start)

        start = time.perf_counter()
        per_key = np.array([float(factory.stream(key).standard_normal()) for key in keys])
        per_key_s.append(time.perf_counter() - start)

    assert batched.tobytes() == per_key.tobytes()
    speedup = min(per_key_s) / min(batch_s)
    print(
        f"\ncold shadow draws: batch {min(batch_s) / len(keys) * 1e6:.1f} us/key, "
        f"per-key stream {min(per_key_s) / len(keys) * 1e6:.1f} us/key over "
        f"{len(keys)} keys, speedup {speedup:.1f}x"
    )
    assert speedup >= MIN_DRAW_SPEEDUP, (
        f"batched draw only {speedup:.1f}x faster than per-key streams "
        f"(need >= {MIN_DRAW_SPEEDUP}x)"
    )
