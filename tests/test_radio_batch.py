"""The batched radio core must be bit-identical to the scalar path.

Every test here compares ``repro.radio.batch``-powered entry points
against the original per-point / per-cell scalar code on the same
inputs and asserts exact float equality — not ``approx``.  The batched
core replicates the scalar arithmetic operation-for-operation (see
``repro.core.vecmath``), so any drift, however small, is a bug.

Also hosts the hot-path regression test: one survey point must build
exactly one path-loss map (the pre-fix ``_survey_at`` built three), the
adversarial test of the candidate-pair wall-crossing kernel against
the scalar clip on the 227-building urban-canyon district, the
prefix-carrying ``rsrq_matrix`` against its per-column sum, each numpy
kernel of ``repro.core.vecmath`` against the per-element lambda it
replaced, and the batched shadow draws against their keyed streams.
"""

import math

import numpy as np
import pytest

from repro.core import RngFactory
from repro.core import vecmath as vm
from repro.core.rng import streams_drawn as rng_streams_drawn
from repro.experiments.common import testbed as build_testbed
from repro.geometry.buildings import Building, BuildingMap
from repro.geometry.points import Point
from repro.radio import RadioNetwork, batch, linkadapt
from repro.radio.coverage import _survey_at, survey_at_locations
from repro.radio.propagation import _MIN_DISTANCE_M, _SHADOW_GRID_M, Environment
from repro.radio.signal import _RE_PER_PRB, noise_per_re_dbm

SEED = 7


@pytest.fixture(scope="module")
def bed():
    return build_testbed(SEED)


def _random_points(campus, n, seed):
    rng = np.random.default_rng(seed)
    xs = rng.uniform(0.0, campus.width_m, n)
    ys = rng.uniform(0.0, campus.height_m, n)
    return [Point(x, y) for x, y in zip(xs.tolist(), ys.tolist())]


def _edge_case_points(bed):
    """Locations that stress every numeric edge of the batched core."""
    points = []
    # Grazing rays: receivers exactly on building corners and edge
    # midpoints, where the segment-rectangle clip hits p == 0 branches.
    for building in bed.world.buildings.buildings[:4]:
        points.append(Point(building.x_min, building.y_min))
        points.append(Point(building.x_max, building.y_max))
        points.append(Point((building.x_min + building.x_max) / 2.0, building.y_min))
        points.append(Point(building.x_max, (building.y_min + building.y_max) / 2.0))
    # Shadow-grid boundaries: exact multiples of the 10 m grid, where
    # float floor-division must match Python's `//` bit-for-bit.
    for k in (0.0, 1.0, 3.0, 7.0):
        points.append(Point(k * _SHADOW_GRID_M, (k + 2.0) * _SHADOW_GRID_M))
        points.append(Point(k * _SHADOW_GRID_M + 1e-9, k * _SHADOW_GRID_M - 1e-9))
    # Sub-metre receivers: inside the _MIN_DISTANCE_M clamp around a mast.
    for cell in bed.nr.cells[:3]:
        points.append(Point(cell.position.x + 0.3, cell.position.y - 0.2))
        points.append(Point(cell.position.x, cell.position.y))
        points.append(
            Point(cell.position.x + _MIN_DISTANCE_M, cell.position.y)
        )
    return points


def _all_points(bed):
    return _random_points(bed.world, 200, seed=123) + _edge_case_points(bed)


class TestBatchedEquivalence:
    def test_rsrp_matrix_matches_per_cell_scalar(self, bed):
        for network in (bed.nr, bed.lte):
            points = _all_points(bed)
            matrix = network.rsrp_matrix_at(points)
            assert matrix.shape == (len(points), len(network.cells))
            for i, location in enumerate(points):
                for j, cell in enumerate(network.cells):
                    assert matrix[i, j] == cell.rsrp_at(
                        location, network.environment
                    ), (location, cell.pci)

    def test_rsrp_map_at_is_an_n1_view(self, bed):
        for location in _edge_case_points(bed):
            rsrps = bed.nr.rsrp_map_at(location)
            assert list(rsrps) == list(bed.nr.pcis)
            row = bed.nr.rsrp_matrix_at((location,))[0]
            assert list(rsrps.values()) == row.tolist()

    def test_samples_match_scalar_combine(self, bed):
        points = _all_points(bed)
        for serving_pci in (None, bed.nr.cells[0].pci):
            samples = bed.nr.samples_at(points, serving_pci=serving_pci)
            for location, sample in zip(points, samples):
                rsrps = bed.nr.rsrp_map_at(location)
                pci = serving_pci
                if pci is None:
                    pci = max(rsrps, key=lambda p: rsrps[p])
                scalar = bed.nr.sample_from_rsrps(rsrps, serving_pci=pci)
                assert sample == scalar, location

    def test_bit_rates_match_scalar(self, bed):
        points = _all_points(bed)
        rates = bed.nr.bit_rates_at(points)
        overhead = bed.nr.bit_rates_at(points, include_transport_overhead=True)
        for location, rate, rate_oh in zip(points, rates.tolist(), overhead.tolist()):
            sample = bed.nr.sample_at(location)
            assert rate == bed.nr.bit_rate_from_sample(sample)
            assert rate_oh == bed.nr.bit_rate_from_sample(
                sample, include_transport_overhead=True
            )

    def test_survey_at_locations_matches_survey_at(self, bed):
        points = _all_points(bed)
        batched = survey_at_locations(bed.nr, points)
        for location, point in zip(points, batched):
            assert point == _survey_at(bed.nr, location), location

    def test_locked_survey_matches_and_checks_pci(self, bed):
        points = _edge_case_points(bed)
        pci = bed.nr.cells[-1].pci
        batched = survey_at_locations(bed.nr, points, serving_pci=pci)
        for location, point in zip(points, batched):
            assert point == _survey_at(bed.nr, location, serving_pci=pci)
        with pytest.raises(KeyError, match="no cell with PCI"):
            survey_at_locations(bed.nr, points, serving_pci=99999)

    def test_empty_location_list(self, bed):
        assert survey_at_locations(bed.nr, []) == []


class TestCqiVectorization:
    def _sweep(self):
        sweep = list(np.linspace(-20.0, 40.0, 601))
        # Exact decision boundaries: the SINR at which the Shannon
        # efficiency equals each CQI table entry, plus the decode floor.
        att = linkadapt._SHANNON_ATTENUATION
        for entry in linkadapt.CQI_TABLE:
            linear = 2.0 ** (entry.efficiency / att) - 1.0
            sweep.append(10.0 * np.log10(linear))
        sweep.extend(
            [
                linkadapt.MIN_DECODABLE_SINR_DB,
                linkadapt.MIN_DECODABLE_SINR_DB - 1e-12,
                linkadapt.MIN_DECODABLE_SINR_DB + 1e-12,
                -100.0,
                100.0,
            ]
        )
        return np.array(sweep)

    def test_cqi_array_matches_scalar(self):
        sinr = self._sweep()
        cqis = linkadapt.cqi_from_sinr_array(sinr)
        assert cqis.tolist() == [linkadapt.cqi_from_sinr(v) for v in sinr.tolist()]

    def test_efficiency_array_matches_scalar(self):
        sinr = self._sweep()
        effs = linkadapt.spectral_efficiency_from_sinr_array(sinr)
        assert effs.tolist() == [
            linkadapt.spectral_efficiency_from_sinr(v) for v in sinr.tolist()
        ]


class TestSurveyHotPath:
    def test_one_path_loss_map_per_survey(self, bed, monkeypatch):
        """Regression: ``_survey_at`` used to rebuild the map three times."""
        calls = []
        real = batch.path_loss_matrix_db

        def counting(environment, tx_points, carrier_mhz, x, y):
            calls.append(len(x) * len(tx_points))
            return real(environment, tx_points, carrier_mhz, x, y)

        monkeypatch.setattr(batch, "path_loss_matrix_db", counting)

        location = Point(250.0, 400.0)
        _survey_at(bed.nr, location)
        assert calls == [len(bed.nr.cells)]  # one map, not three

        calls.clear()
        points = _random_points(bed.world, 50, seed=5)
        survey_at_locations(bed.nr, points)
        assert calls == [50 * len(bed.nr.cells)]  # one matrix for the lot


def _below(v):
    return math.nextafter(v, -math.inf)


def _above(v):
    return math.nextafter(v, math.inf)


def _adversarial_rays(buildings, width_m, height_m):
    """(start, end) pairs at every numeric edge of the segment clip.

    Returns ``(rays, short)``: ``short`` holds the rays that stop an ulp
    short of a wall, which are also in ``rays``.
    """
    rng = np.random.default_rng(2024)

    def anywhere():
        x, y = rng.uniform(-50.0, width_m + 50.0), rng.uniform(-50.0, height_m + 50.0)
        return Point(float(x), float(y))

    rays = [(anywhere(), anywhere()) for _ in range(1500)]
    short = []
    for b in buildings.buildings[::3]:
        mid_x, mid_y = (b.x_min + b.x_max) / 2.0, (b.y_min + b.y_max) / 2.0
        corners = [(b.x_min, b.y_min), (b.x_min, b.y_max), (b.x_max, b.y_min), (b.x_max, b.y_max)]
        midpoints = [(mid_x, b.y_min), (mid_x, b.y_max), (b.x_min, mid_y), (b.x_max, mid_y)]
        # One ulp either side of each wall, on the wall's midline.
        ulps = [(f(b.x_min), mid_y) for f in (_below, _above)]
        ulps += [(f(b.x_max), mid_y) for f in (_below, _above)]
        ulps += [(mid_x, f(b.y_min)) for f in (_below, _above)]
        ulps += [(mid_x, f(b.y_max)) for f in (_below, _above)]
        for x, y in corners + midpoints + ulps:
            rays.append((anywhere(), Point(x, y)))
            rays.append((Point(x, y), anywhere()))
        # Axis-parallel rays along walls, across and inside the footprint.
        rays += [
            (Point(b.x_min, b.y_min - 5.0), Point(b.x_min, b.y_max + 5.0)),
            (Point(b.x_max, mid_y), Point(b.x_max, b.y_max + 40.0)),
            (Point(b.x_min - 5.0, b.y_max), Point(b.x_max + 5.0, b.y_max)),
            (Point(b.x_min - 30.0, b.y_min), Point(mid_x, b.y_min)),
            (Point(b.x_min - 30.0, mid_y), Point(b.x_max + 30.0, mid_y)),
        ]
        # Zero-length segments: outside, on a corner, inside.
        outside = anywhere()
        rays += [(outside, outside), (Point(*corners[0]), Point(*corners[0]))]
        rays.append((Point(mid_x, mid_y), Point(mid_x, mid_y)))
        # Indoor receivers, and both ends inside one footprint.
        rays.append((anywhere(), Point(mid_x, mid_y)))
        rays.append((Point(mid_x, mid_y), Point(_above(b.x_min), _below(b.y_max))))
        # Rays that stop an ulp short of a wall: the clip's rounded
        # quotient usually still reaches the wall, so the scalar code
        # counts them although the end lies outside the footprint.
        for length in rng.uniform(1.0, 3000.0, 2).tolist():
            short.append((Point(b.x_min - length, mid_y), Point(_below(b.x_min), mid_y)))
            short.append((Point(mid_x, b.y_max + length), Point(mid_x, _above(b.y_max))))
    return rays + short, short


def _endpoint_arrays(rays):
    ax = np.array([a.x for a, _ in rays])
    ay = np.array([a.y for a, _ in rays])
    bx = np.array([b.x for _, b in rays])
    by = np.array([b.y for _, b in rays])
    return ax, ay, bx, by


class TestWallCrossingKernel:
    """The candidate-pair kernel equals the scalar clip, lane for lane."""

    @pytest.fixture(scope="class")
    def district(self):
        world = build_testbed(SEED, "urban-canyon").world
        assert len(world.buildings) == 227
        rays, short = _adversarial_rays(world.buildings, world.width_m, world.height_m)
        expected = [world.buildings.wall_crossings(a, b) for a, b in rays]
        return world.buildings, rays, short, expected

    def test_counts_match_the_scalar_clip(self, district):
        buildings, rays, _, expected = district
        counts = buildings.wall_crossings_counts(*_endpoint_arrays(rays))
        # Many kernel blocks, and every kind of lane occurs.
        assert len(rays) > 10 * ((1 << 16) // len(buildings))
        assert {0, 1, 2} <= set(expected) and max(expected) > 10
        assert counts.tolist() == expected

    def test_short_rays_the_clip_counts_are_kept(self, district):
        buildings, _, short, _ = district
        counted = [
            (a, b) for a, b in short
            if any(w.wall_crossings(a, b) == 2 and not w.contains(b) for w in buildings)
        ]
        assert len(counted) > 50
        counts = buildings.wall_crossings_counts(*_endpoint_arrays(counted))
        assert counts.tolist() == [buildings.wall_crossings(a, b) for a, b in counted]

    def test_skip_leaves_out_the_receivers_own_building(self, district):
        buildings, rays, _, expected = district
        ax, ay, bx, by = _endpoint_arrays(rays)
        own = buildings.building_indices(bx, by)
        counts = buildings.wall_crossings_counts(ax, ay, bx, by, skip=own)
        expected_skipped = [
            total - (buildings.buildings[i].wall_crossings(a, b) if i >= 0 else 0)
            for (a, b), i, total in zip(rays, own.tolist(), expected)
        ]
        assert (own >= 0).sum() > 100
        assert expected_skipped != expected
        assert counts.tolist() == expected_skipped

    def test_broadcast_matrix_matches_lanes(self, district):
        buildings = district[0]
        rng = np.random.default_rng(5)
        rx_x, rx_y = rng.uniform(0.0, 1500.0, (2, 40))
        tx_x, tx_y = rng.uniform(0.0, 1500.0, (2, 7))
        own = buildings.building_indices(rx_x, rx_y)[:, np.newaxis]
        matrix = buildings.wall_crossings_counts(
            tx_x[np.newaxis, :], tx_y[np.newaxis, :], rx_x[:, np.newaxis], rx_y[:, np.newaxis],
            skip=own,
        )
        assert matrix.shape == (40, 7)
        for i in range(40):
            lanes = buildings.wall_crossings_counts(
                tx_x, tx_y, np.full(7, rx_x[i]), np.full(7, rx_y[i]), skip=own[i]
            )
            assert matrix[i].tolist() == lanes.tolist()

    def test_path_loss_with_masts_inside_buildings(self):
        """Own-building walls leave the LOS test; a shared building saves
        the penetration wall; overlapping footprints take the first match."""
        environment = Environment(
            BuildingMap([
                Building(0.0, 0.0, 40.0, 30.0),
                Building(30.0, 20.0, 70.0, 60.0),
                Building(100.0, 0.0, 120.0, 80.0),
            ]),
            RngFactory(SEED),
        )
        masts = [Point(10.0, 10.0), Point(35.0, 25.0), Point(60.0, 50.0), Point(90.0, 40.0)]
        receivers = [
            Point(x, y)
            for x in (5.0, 30.0, 35.0, 40.0, 50.0, 65.0, 85.0, 110.0, 130.0)
            for y in (5.0, 20.0, 25.0, 45.0, 70.0)
        ]
        x, y = batch.points_to_arrays(receivers)
        for carrier_mhz in (1840.0, 3500.0):
            matrix = batch.path_loss_matrix_db(environment, masts, carrier_mhz, x, y)
            for i, rx in enumerate(receivers):
                for j, tx in enumerate(masts):
                    assert matrix[i, j] == environment.path_loss_db(tx, rx, carrier_mhz), (tx, rx)

    def test_path_loss_on_an_empty_map(self, bed):
        """``Environment(None, ...)`` is an empty map: every query still runs."""
        environment = Environment(None, RngFactory(0))
        masts = [Point(0.0, 0.0), Point(250.0, 40.0), Point(250.0, 40.0)]
        receivers = _random_points(bed.world, 30, seed=9) + [Point(0.0, 0.0)]
        x, y = batch.points_to_arrays(receivers)
        matrix = batch.path_loss_matrix_db(environment, masts, 3500.0, x, y)
        for i, rx in enumerate(receivers):
            for j, tx in enumerate(masts):
                assert matrix[i, j] == environment.path_loss_db(tx, rx, 3500.0), (tx, rx)
        network = RadioNetwork(bed.nr.cells, bed.nr.profile, environment)
        for location in receivers[:5]:
            rsrps = network.rsrp_map_at(location)
            assert list(rsrps.values()) == [
                cell.rsrp_at(location, environment) for cell in network.cells
            ]
        assert network.best_cell_at(receivers[0])[0] in network.cells

    def test_ray_an_ulp_short_of_a_lone_building(self):
        wall = Building(100.0, 0.0, 120.0, 10.0)
        a, b = Point(-1947.1888932322174, 5.0), Point(99.99999999999999, 5.0)
        assert not wall.contains(b)
        assert wall.wall_crossings(a, b) == 2
        counts = BuildingMap([wall]).wall_crossings_counts(
            np.array([a.x]), np.array([a.y]), np.array([b.x]), np.array([b.y])
        )
        assert counts.tolist() == [2]

    def test_empty_map_and_no_lanes(self):
        empty = np.zeros((0, 3))
        assert BuildingMap(()).wall_crossings_counts(0.0, 0.0, 5.0, 5.0).tolist() == 0
        wall = BuildingMap([Building(0.0, 0.0, 1.0, 1.0)])
        assert wall.wall_crossings_counts(empty, empty, empty, empty).shape == (0, 3)


def _rsrq_matrix_per_column(rsrp_matrix, subcarrier_khz, interference_floor_dbm=None):
    """``rsrq_matrix`` as first written: every column re-sums the others."""
    mw = vm.exp10(rsrp_matrix / 10.0)
    n, c = mw.shape
    floor_mw = (
        10.0 ** (interference_floor_dbm / 10.0) if interference_floor_dbm is not None else 0.0
    )
    noise_mw = 10.0 ** (noise_per_re_dbm(subcarrier_khz, 7.0) / 10.0)
    out = np.empty((n, c), dtype=np.float64)
    for j in range(c):
        signal_mw = mw[:, j]
        full = np.zeros(n, dtype=np.float64)
        for i in range(c):
            if i != j:
                full = full + mw[:, i]
        rssi_prb_mw = _RE_PER_PRB * (((signal_mw + full) + floor_mw) + noise_mw)
        rsrq_linear = signal_mw / rssi_prb_mw
        positive = rsrq_linear > 0
        out[:, j] = np.where(
            positive, 10.0 * vm.log10(np.where(positive, rsrq_linear, 1.0)), -np.inf
        )
    return out


class TestRsrqMatrixPrefix:
    @pytest.mark.parametrize("columns", [1, 2, 3, 7, 34])
    @pytest.mark.parametrize("floor_dbm", [None, -95.0])
    def test_bit_identical_to_the_per_column_sum(self, columns, floor_dbm):
        rng = np.random.default_rng(columns)
        rsrp = rng.uniform(-140.0, -60.0, size=(257, columns))
        rsrp[rng.random(rsrp.shape) < 0.1] = -np.inf  # cells out of range
        rsrp[3, :] = -np.inf  # a point no cell reaches
        got = batch.rsrq_matrix(rsrp, 30.0, interference_floor_dbm=floor_dbm)
        want = _rsrq_matrix_per_column(rsrp, 30.0, interference_floor_dbm=floor_dbm)
        assert got.tobytes() == want.tobytes()


# The vecmath kernels as per-element Python lambdas, the form they had
# before becoming numpy operations: the references of TestVecmathKernels.
_LAMBDA_EXP10 = np.frompyfunc(lambda x: 10.0**x, 1, 1)
_LAMBDA_POWF = np.frompyfunc(lambda base, exponent: base**exponent, 2, 1)
_LAMBDA_BEARING = np.frompyfunc(
    lambda dx, dy: math.degrees(math.atan2(dx, dy)) % 360.0, 2, 1
)
_LAMBDA_ANGLE_DIFFERENCE = np.frompyfunc(
    lambda a, b: (a - b + 180.0) % 360.0 - 180.0, 2, 1
)


def _by_lambda(ufunc, *arrays):
    return ufunc(*arrays).astype(np.float64)


def _grid_index_by_lambda(values, grid_m):
    return np.frompyfunc(lambda v: int(v // grid_m), 1, 1)(values).astype(np.int64)


def _with_neighbours(values):
    """Each value and the floats one ulp either side of it."""
    values = np.asarray(values, dtype=np.float64)
    return np.concatenate(
        [values, np.nextafter(values, np.inf), np.nextafter(values, -np.inf)]
    )


#: Signed zeros, infinities, NaN, subnormals and tiny normals, plus the
#: multiples of 360 (and the ±180 folds) with their one-ulp neighbours.
_SPECIALS = np.concatenate(
    [
        [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -5e-324, 1e-310, -1e-310],
        [1e-300, -1e-300],
        _with_neighbours(360.0 * np.arange(-4, 5)),
        _with_neighbours([180.0, -180.0, 540.0]),
    ]
)


def _values(seed, n=4000):
    rng = np.random.default_rng(seed)
    return np.concatenate(
        [
            _SPECIALS,
            rng.uniform(-1000.0, 1000.0, n),
            rng.normal(0.0, 1e6, n // 8),
            rng.uniform(-1.0, 1.0, n // 8),
        ]
    )


class TestVecmathKernels:
    """Each numpy kernel against its old lambda, compared bit for bit."""

    def test_angle_difference(self):
        a = _values(1)
        with np.errstate(invalid="ignore"):  # fmod(±inf, 360) is NaN
            for b in (np.roll(a, 7), 17.5, -120.0, 0.0, -0.0):
                got = vm.angle_difference_deg(a, b)
                assert got.tobytes() == _by_lambda(_LAMBDA_ANGLE_DIFFERENCE, a, b).tobytes()

    def test_bearing(self):
        dx, dy = (grid.ravel() for grid in np.meshgrid(_SPECIALS, _SPECIALS))
        dx = np.concatenate([dx, _values(2)])
        dy = np.concatenate([dy, np.roll(_values(3), 11)])
        with np.errstate(invalid="ignore"):
            got = vm.bearing_deg(dx, dy)
            assert got.tobytes() == _by_lambda(_LAMBDA_BEARING, dx, dy).tobytes()
        # A tiny negative angle folds to exactly 360.0, as Python's % does.
        assert vm.bearing_deg(np.array([-1e-300]), np.array([1.0])).tolist() == [360.0]

    def test_exp10(self):
        finite = _SPECIALS[~np.isfinite(_SPECIALS) | (np.abs(_SPECIALS) < 300.0)]
        rng = np.random.default_rng(4)
        x = np.concatenate(
            [finite, rng.uniform(-30.0, 30.0, 4000), rng.uniform(-320.0, 300.0, 500)]
        )
        assert vm.exp10(x).tobytes() == _by_lambda(_LAMBDA_EXP10, x).tobytes()
        for overflow in ([400.0], [309.0]):
            with pytest.raises(OverflowError):
                vm.exp10(overflow)
            with pytest.raises(OverflowError):
                _by_lambda(_LAMBDA_EXP10, np.array(overflow))

    def test_powf(self):
        rng = np.random.default_rng(5)
        base = np.concatenate([_SPECIALS, rng.uniform(-5.0, 5.0, 4000)])
        for exponent in (2.0, 3.0, 0.0):
            got = vm.powf(base, exponent)
            assert got.tobytes() == _by_lambda(_LAMBDA_POWF, base, exponent).tobytes()
        positive = np.concatenate([[1e-3, 1.0, 1e3], rng.uniform(1e-3, 1e3, 4000)])
        for exponent in (0.5, -1.0, 2.5, rng.uniform(-3.0, 3.0, len(positive))):
            got = vm.powf(positive, exponent)
            assert got.tobytes() == _by_lambda(_LAMBDA_POWF, positive, exponent).tobytes()

    def test_powf_of_a_negative_base_to_a_fraction_raises(self):
        with pytest.raises(ValueError):
            vm.powf(-2.0, 0.5)

    @pytest.mark.parametrize("grid_m", [10.0, 7.0, 0.1])
    def test_shadow_grid_index(self, grid_m):
        rng = np.random.default_rng(6)
        values = np.concatenate(
            [
                [0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310],
                _with_neighbours(grid_m * np.arange(-60, 61)),
                rng.uniform(-2000.0, 2000.0, 4000),
            ]
        )
        want = _grid_index_by_lambda(values, grid_m)
        got = vm.shadow_grid_index(values, grid_m)
        assert got.dtype == np.int64
        assert got.tobytes() == want.tobytes()
        # The values include ones where floor(v / g) and v // g differ.
        assert (np.floor(values / grid_m).astype(np.int64) != want).any()

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan])
    def test_shadow_grid_index_rejects_non_finite(self, bad):
        values = np.array([1.0, bad])
        with pytest.raises((ValueError, OverflowError)):
            _grid_index_by_lambda(values, 10.0)
        with np.errstate(invalid="ignore"), pytest.raises(ValueError):
            vm.shadow_grid_index(values, 10.0)


class TestBatchedShadowDraws:
    def test_misses_drawn_once_and_equal_to_their_streams(self):
        factory = RngFactory(SEED)
        env = Environment(None, rng=factory)
        tx = Point(120.4, -33.6)
        grid_x = np.array([0, 3, -2, 3, 0, 11], dtype=np.int64)
        grid_y = np.array([5, 5, -7, 5, 5, 0], dtype=np.int64)
        keys = [f"shadow:120:-34:{gx}:{gy}:3500" for gx, gy in zip(grid_x, grid_y)]
        want = [float(factory.stream(key).standard_normal()) for key in keys]

        before = rng_streams_drawn()
        got = env.shadow_standard_normals(tx, 3500.0, grid_x, grid_y)
        assert rng_streams_drawn() - before == len(set(keys))
        assert got.tolist() == want

        before = rng_streams_drawn()
        assert env.shadow_standard_normals(tx, 3500.0, grid_x, grid_y).tolist() == want
        assert rng_streams_drawn() == before
