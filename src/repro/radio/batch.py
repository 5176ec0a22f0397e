"""The struct-of-arrays radio core: all point×cell pairs at once.

Every survey, coverage map and hand-off campaign asks the same question
— "what does every cell deliver at every sampled location?" — and the
scalar API answers it one Python object at a time, which profiling shows
is dominated by per-pair Liang-Barsky wall tests and ``math`` calls.
This module evaluates the full (N points × C cells) matrix in numpy:
UMa LoS/NLoS path loss, grid-quantized shadowing, clutter loss, wall
crossings (via the candidate-pair segment-rectangle kernel of
:meth:`repro.geometry.buildings.BuildingMap.wall_crossings_counts`) and
the RSRQ/SINR combiner.  Terms that depend on a transmitter only through
its position (distance, wall crossings, shadowing, bearing) are computed
once per distinct mast and shared by its sectors.

Bit-identity with the scalar path is a hard requirement — the default
scenario's results are golden-file pinned — so every transcendental goes
through :mod:`repro.core.vecmath` (elementwise libm) and every formula
replicates the scalar operation order exactly, including the sequential
left-to-right interference summation of ``combine_signal`` and the
first-match/first-max tie-breaking of the dict-based API.
"""

from __future__ import annotations

import math
from collections.abc import Sequence

import numpy as np

from repro.core import vecmath as vm
from repro.geometry.points import Point
from repro.radio.antenna import SectorAntenna
from repro.radio.propagation import _MIN_DISTANCE_M, _SHADOW_GRID_M, Environment
from repro.radio.signal import _RE_PER_PRB, noise_per_re_dbm

__all__ = [
    "combine_matrix",
    "path_loss_matrix_db",
    "points_to_arrays",
    "rsrq_matrix",
    "sector_gain_matrix",
]


def points_to_arrays(points: Sequence[Point]) -> tuple[np.ndarray, np.ndarray]:
    """Split a point sequence into x/y float64 arrays."""
    x = np.array([p.x for p in points], dtype=np.float64)
    y = np.array([p.y for p in points], dtype=np.float64)
    return x, y


def _unique_shadow_cells(
    x: np.ndarray, y: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Deduplicated shadow-grid indices plus the scatter-back inverse."""
    gx = vm.shadow_grid_index(x, _SHADOW_GRID_M)
    gy = vm.shadow_grid_index(y, _SHADOW_GRID_M)
    # Grid indices are small campus-scale integers, so pairing them into
    # one 64-bit code is collision-free and much faster than a 2-D unique.
    codes = gx * (np.int64(1) << 32) + gy
    _, first, inverse = np.unique(codes, return_index=True, return_inverse=True)
    return gx[first], gy[first], inverse


def _distinct_positions(
    tx_points: Sequence[Point],
) -> tuple[list[Point], np.ndarray]:
    """Each distinct transmitter position once, plus the column-to-site map.

    Co-sited sectors share a mast, so every term that depends only on the
    transmitter's position is evaluated once per site and fanned out to
    the sector columns with ``[:, col_to_site]``.  Each lane runs the
    exact IEEE operations the full (N, C) evaluation would, so the
    fan-out is bit-identical.
    """
    position_index: dict[tuple[float, float], int] = {}
    sites: list[Point] = []
    col_to_site = np.empty(len(tx_points), dtype=np.int64)
    for col, tx in enumerate(tx_points):
        key = (tx.x, tx.y)
        if key not in position_index:
            position_index[key] = len(sites)
            sites.append(tx)
        col_to_site[col] = position_index[key]
    return sites, col_to_site


def path_loss_matrix_db(
    environment: Environment,
    tx_points: Sequence[Point],
    carrier_mhz: float,
    x: np.ndarray,
    y: np.ndarray,
) -> np.ndarray:
    """Total path loss (dB) for every receiver×transmitter pair.

    The (N, C) batched twin of :meth:`Environment.path_loss_db`:
    calibrated UMa LoS/NLoS selection by wall crossings (minus the
    receiver's own building, which is charged as penetration instead),
    clutter loss, one wall of penetration for indoor receivers, and the
    deterministic grid-quantized shadowing field.  Path loss depends on a
    transmitter only through its position, so the whole matrix is built
    per distinct mast and fanned out to the sector columns at the end.
    """
    buildings = environment.buildings
    x = vm.as_float_array(x)
    y = vm.as_float_array(y)
    sites, col_to_site = _distinct_positions(tx_points)
    site_x, site_y = points_to_arrays(sites)
    site_x = site_x[np.newaxis, :]
    site_y = site_y[np.newaxis, :]
    rx_x = x[:, np.newaxis]
    rx_y = y[:, np.newaxis]

    # Indoor receivers: leave the own building's walls out of the LOS
    # test and charge one wall of penetration unless the transmitter
    # shares the building — exactly Environment.breakdown's accounting.
    own_index = buildings.building_indices(x, y)[:, np.newaxis]
    distance = vm.hypot(site_x - rx_x, site_y - rx_y)
    crossings = buildings.wall_crossings_counts(site_x, site_y, rx_x, rx_y, skip=own_index)
    tx_inside_own = buildings._contains_indexed(own_index, site_x, site_y)

    los = crossings == 0
    f_ghz = carrier_mhz / 1000.0
    frequency_term = 20.0 * math.log10(f_ghz)
    d = np.maximum(distance, _MIN_DISTANCE_M)
    log10_d = vm.log10(d)
    los_base = (28.0 + (10.0 * environment.los_exponent) * log10_d) + frequency_term
    nlos_raw = (28.0 + (10.0 * environment.nlos_exponent) * log10_d) + frequency_term
    base = np.where(los, los_base, np.maximum(nlos_raw, los_base))
    clutter_per_m = environment.clutter_coeff * (f_ghz**environment.clutter_exponent)
    base = base + clutter_per_m * np.maximum(distance, 0.0)

    indoor_walls = (own_index >= 0) & ~tx_inside_own
    per_wall = 4.5 + 1.0 * f_ghz**2
    penetration = per_wall * indoor_walls

    sigma = np.where(los, environment.los_sigma_db, environment.nlos_sigma_db)
    grid_x, grid_y, inverse = _unique_shadow_cells(x, y)
    shadow = np.empty(distance.shape, dtype=np.float64)
    # Masts that round to the same metre share every shadow key (same
    # carrier), so draw once per key and fan the column out.
    key_sites: dict[tuple[int, int], list[int]] = {}
    for index, site in enumerate(sites):
        key_sites.setdefault((round(site.x), round(site.y)), []).append(index)
    for indices in key_sites.values():
        unique_normals = environment.shadow_standard_normals(
            sites[indices[0]], carrier_mhz, grid_x, grid_y
        )
        shadow[:, indices] = unique_normals[inverse][:, np.newaxis]

    site_loss = (base + penetration) + sigma * shadow
    return site_loss[:, col_to_site]


def sector_gain_matrix(cells: Sequence, x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Antenna gain (dBi) from every cell toward every point, (N, C).

    The bearing from a mast to each point is computed once per distinct
    mast and shared by its sectors.
    """
    x = vm.as_float_array(x)
    y = vm.as_float_array(y)
    sites, col_to_site = _distinct_positions([cell.position for cell in cells])
    bearings: dict[int, np.ndarray] = {}
    columns = []
    for cell, site in zip(cells, col_to_site.tolist()):
        antenna = cell.antenna
        if isinstance(antenna, SectorAntenna):
            if site not in bearings:
                bearings[site] = vm.bearing_deg(x - sites[site].x, y - sites[site].y)
            off = vm.angle_difference_deg(bearings[site], antenna.azimuth_deg)
            attenuation = np.minimum(
                12.0 * vm.powf(off / antenna.beamwidth_deg, 2.0),
                antenna.front_to_back_db,
            )
            columns.append(antenna.max_gain_dbi - attenuation)
        else:
            columns.append(np.full(len(x), antenna.gain_dbi(0.0)))
    return np.stack(columns, axis=1)


def _interference_sums(mw: np.ndarray, serving_index: np.ndarray) -> np.ndarray:
    """Per-row sum of non-serving powers, accumulated in cell order.

    ``combine_signal`` sums interferers with Python's left-to-right
    ``sum()`` over the PCI-ordered dict (serving popped out); floating-
    point addition is not associative, so the batched sum walks the cell
    axis in the same order, contributing exact ``+0.0`` on the serving
    lane (which never changes a positive partial sum).
    """
    n, c = mw.shape
    full = np.zeros(n, dtype=np.float64)
    for j in range(c):
        full = full + np.where(serving_index == j, 0.0, mw[:, j])
    return full


def combine_matrix(
    rsrp_matrix: np.ndarray,
    serving_index: np.ndarray,
    subcarrier_khz: float,
    noise_figure_db: float = 7.0,
    interference_floor_dbm: float | None = None,
    interference_activity: float = 1.0,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Batched :func:`repro.radio.signal.combine_signal`.

    Args:
        rsrp_matrix: (N, C) per-cell RSRP in dBm.
        serving_index: (N,) column index of each row's serving cell.

    Returns:
        ``(serving_rsrp_dbm, rsrq_db, sinr_db)`` arrays of length N.
    """
    if not 0.0 <= interference_activity <= 1.0:
        raise ValueError(
            f"interference_activity must be in [0, 1], got {interference_activity}"
        )
    mw = vm.exp10(rsrp_matrix / 10.0)
    rows = np.arange(len(mw))
    signal_mw = mw[rows, serving_index]
    full_interference_mw = _interference_sums(mw, serving_index)
    active_interference_mw = interference_activity * full_interference_mw
    floor_mw = 0.0
    if interference_floor_dbm is not None:
        floor_mw = 10.0 ** (interference_floor_dbm / 10.0)
        active_interference_mw = active_interference_mw + floor_mw
    noise_mw = 10.0 ** (noise_per_re_dbm(subcarrier_khz, noise_figure_db) / 10.0)

    sinr_linear = signal_mw / (active_interference_mw + noise_mw)
    rssi_prb_mw = _RE_PER_PRB * (((signal_mw + full_interference_mw) + floor_mw) + noise_mw)
    rsrq_linear = signal_mw / rssi_prb_mw
    positive = rsrq_linear > 0
    rsrq_db = np.where(
        positive,
        10.0 * vm.log10(np.where(positive, rsrq_linear, 1.0)),
        -np.inf,
    )
    sinr_db = 10.0 * vm.log10(sinr_linear)
    serving_rsrp = rsrp_matrix[rows, serving_index]
    return serving_rsrp, rsrq_db, sinr_db


def rsrq_matrix(
    rsrp_matrix: np.ndarray,
    subcarrier_khz: float,
    noise_figure_db: float = 7.0,
    interference_floor_dbm: float | None = None,
) -> np.ndarray:
    """RSRQ (dB) for *every* candidate serving choice, (N, C).

    The hand-off engine evaluates each neighbour as a hypothetical
    serving cell at every report; this computes the whole candidate
    matrix at once.  RSRQ is activity-independent (full-load RSSI), so
    only the floor and noise parameters matter.
    """
    mw = vm.exp10(rsrp_matrix / 10.0)
    n, c = mw.shape
    floor_mw = (
        10.0 ** (interference_floor_dbm / 10.0)
        if interference_floor_dbm is not None
        else 0.0
    )
    noise_mw = 10.0 ** (noise_per_re_dbm(subcarrier_khz, noise_figure_db) / 10.0)
    out = np.empty((n, c), dtype=np.float64)
    # The other cells sum left to right from zero, skipping column j: the
    # prefix over the columns before j carries over from one column to
    # the next, and only the columns after j are added per column.
    prefix = np.zeros(n, dtype=np.float64)
    for j in range(c):
        signal_mw = mw[:, j]
        full = prefix
        for i in range(j + 1, c):
            full = full + mw[:, i]
        prefix = prefix + signal_mw
        rssi_prb_mw = _RE_PER_PRB * (((signal_mw + full) + floor_mw) + noise_mw)
        rsrq_linear = signal_mw / rssi_prb_mw
        positive = rsrq_linear > 0
        out[:, j] = np.where(
            positive,
            10.0 * vm.log10(np.where(positive, rsrq_linear, 1.0)),
            -np.inf,
        )
    return out
