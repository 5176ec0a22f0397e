"""Radio propagation models.

Implements 3GPP TR 38.901-style urban-macro (UMa) path loss with log-normal
shadowing and frequency-dependent wall penetration.  These are the physical
mechanisms behind three of the paper's coverage findings:

* 5G's 3.5 GHz carrier attenuates faster than 4G's 1.84 GHz, so the same
  deployment density leaves more coverage holes (Tab. 2);
* a single gNB's usable radius is ~230 m vs ~520 m for an eNB (Sec. 3.2);
* brick/concrete walls cost roughly 50% of the 5G bit-rate indoors but only
  ~20% for 4G (Fig. 3).

Shadowing is drawn deterministically from the sampling location so repeated
surveys of the same spot observe the same large-scale fade, as in reality.
Each fade is the first normal of the ``RngFactory`` stream keyed by its
transmitter, shadow-grid cell and carrier; the batched path draws all of a
survey's new keys in one :meth:`RngFactory.standard_normals` call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro.core.rng import RngFactory
from repro.geometry.buildings import BuildingMap
from repro.geometry.points import Point

__all__ = [
    "free_space_path_loss_db",
    "uma_los_path_loss_db",
    "uma_nlos_path_loss_db",
    "wall_penetration_loss_db",
    "clutter_loss_db",
    "Environment",
]

#: Shadowing standard deviations (TR 38.901 UMa).
LOS_SHADOW_SIGMA_DB = 4.0
NLOS_SHADOW_SIGMA_DB = 6.5

#: Spatial granularity of shadowing: points within the same grid cell see the
#: same fade, giving short-range spatial correlation.
_SHADOW_GRID_M = 10.0

_MIN_DISTANCE_M = 1.0

#: Dense-urban clutter attenuation (trees, street furniture, people, partial
#: blockage) in dB per meter, as a power law of the carrier frequency in GHz.
#: Together with the path-loss exponents below it is calibrated so the
#: deterministic LoS service radius matches the paper's walks in Sec. 3.2
#: (~230 m at 3.5 GHz, ~520 m at 1.84 GHz) while the blanket road survey
#: reproduces Tab. 1/Tab. 2 (mean RSRP ~ -84 dBm, 5G holes >> 4G holes).
_CLUTTER_COEFF = 0.008
_CLUTTER_EXPONENT = 2.2

#: Path-loss exponents of the calibrated dense-urban model.  TR 38.901 UMa
#: uses 2.2 (LOS) / 3.9 (NLOS); a campus canyon with trees and human
#: activity sits between those extremes on both link classes.
_LOS_EXPONENT = 2.8
_NLOS_EXPONENT = 3.4


def clutter_loss_db(
    distance_m: float,
    carrier_mhz: float,
    coeff: float = _CLUTTER_COEFF,
    exponent: float = _CLUTTER_EXPONENT,
) -> float:
    """Distance-proportional dense-urban clutter loss in dB."""
    f_ghz = carrier_mhz / 1000.0
    return coeff * (f_ghz**exponent) * max(distance_m, 0.0)


def free_space_path_loss_db(distance_m: float, carrier_mhz: float) -> float:
    """Free-space path loss (Friis) in dB."""
    d = max(distance_m, _MIN_DISTANCE_M)
    return 32.45 + 20.0 * math.log10(d / 1000.0) + 20.0 * math.log10(carrier_mhz)


def uma_los_path_loss_db(
    distance_m: float, carrier_mhz: float, exponent: float = _LOS_EXPONENT
) -> float:
    """Line-of-sight path loss of the calibrated dense-urban model.

    Same functional form as TR 38.901 UMa LOS but with a configurable
    exponent (see module calibration note).
    """
    d = max(distance_m, _MIN_DISTANCE_M)
    f_ghz = carrier_mhz / 1000.0
    return 28.0 + 10.0 * exponent * math.log10(d) + 20.0 * math.log10(f_ghz)


def uma_nlos_path_loss_db(
    distance_m: float,
    carrier_mhz: float,
    exponent: float = _NLOS_EXPONENT,
    los_exponent: float = _LOS_EXPONENT,
) -> float:
    """Non-line-of-sight path loss of the calibrated dense-urban model.

    NLOS loss is lower-bounded by the LOS loss at the same distance.
    """
    d = max(distance_m, _MIN_DISTANCE_M)
    f_ghz = carrier_mhz / 1000.0
    nlos = 28.0 + 10.0 * exponent * math.log10(d) + 20.0 * math.log10(f_ghz)
    return max(nlos, uma_los_path_loss_db(d, carrier_mhz, los_exponent))


def wall_penetration_loss_db(carrier_mhz: float, walls: int = 1) -> float:
    """Penetration loss through ``walls`` exterior brick/concrete walls.

    Loss per wall grows with frequency (cf. channel-sounding studies such as
    Koppel et al. 2017 cited by the paper): ~8 dB at 1.84 GHz and ~17 dB at
    3.5 GHz, which yields the measured ~20% (4G) vs ~50% (5G) indoor bit-rate
    drop when pushed through the CQI/MCS chain.
    """
    if walls < 0:
        raise ValueError(f"wall count must be >= 0, got {walls}")
    f_ghz = carrier_mhz / 1000.0
    per_wall = 4.5 + 1.0 * f_ghz**2
    return per_wall * walls


@dataclass(frozen=True)
class PathLossBreakdown:
    """Component-wise path loss for one link, useful for diagnosis."""

    distance_m: float
    line_of_sight: bool
    base_db: float
    penetration_db: float
    shadowing_db: float

    @property
    def total_db(self) -> float:
        """Sum of base, penetration and shadowing losses."""
        return self.base_db + self.penetration_db + self.shadowing_db


class Environment:
    """A propagation environment: buildings plus deterministic shadowing.

    Args:
        buildings: Building map used for LOS tests and penetration loss
            (``None`` means an empty map).
        rng: Factory seeding the shadowing field.  Required — there is
            no hidden seed-0 fallback, so the shadowing realisation
            always inherits the campaign seed (REP010).
        los_sigma_db: Shadowing std-dev on LOS links.
        nlos_sigma_db: Shadowing std-dev on NLOS links.
    """

    def __init__(
        self,
        buildings: BuildingMap | None,
        rng: RngFactory,
        los_sigma_db: float = LOS_SHADOW_SIGMA_DB,
        nlos_sigma_db: float = NLOS_SHADOW_SIGMA_DB,
        los_exponent: float = _LOS_EXPONENT,
        nlos_exponent: float = _NLOS_EXPONENT,
        clutter_coeff: float = _CLUTTER_COEFF,
        clutter_exponent: float = _CLUTTER_EXPONENT,
    ) -> None:
        self.buildings = buildings if buildings is not None else BuildingMap(())
        self._rng = rng
        self.los_sigma_db = los_sigma_db
        self.nlos_sigma_db = nlos_sigma_db
        self.los_exponent = los_exponent
        self.nlos_exponent = nlos_exponent
        self.clutter_coeff = clutter_coeff
        self.clutter_exponent = clutter_exponent
        self._shadow_cache: dict[str, float] = {}

    def breakdown(self, tx: Point, rx: Point, carrier_mhz: float) -> PathLossBreakdown:
        """Full path-loss decomposition between ``tx`` and ``rx``.

        Intermediate buildings turn the link NLOS (their blockage is what
        the steeper NLOS slope models); explicit wall-penetration loss is
        only charged for the walls of the building the receiver itself is
        inside, to avoid double counting.
        """
        distance = tx.distance_to(rx)
        crossings = self.buildings.wall_crossings(tx, rx)
        rx_own_building = self.buildings.building_at(rx)
        if rx_own_building is not None:
            # The receiver's own wall is charged as penetration loss below;
            # it must not also flip the link to the NLOS class.
            crossings -= rx_own_building.wall_crossings(tx, rx)
        los = crossings == 0
        if los:
            base = uma_los_path_loss_db(distance, carrier_mhz, self.los_exponent)
            sigma = self.los_sigma_db
        else:
            base = uma_nlos_path_loss_db(
                distance, carrier_mhz, self.nlos_exponent, self.los_exponent
            )
            sigma = self.nlos_sigma_db
        base += self.clutter_db(distance, carrier_mhz)
        indoor_walls = 0
        if rx_own_building is not None and not rx_own_building.contains(tx):
            indoor_walls = 1
        penetration = wall_penetration_loss_db(carrier_mhz, indoor_walls)
        shadowing = sigma * self._shadow_standard_normal(tx, rx, carrier_mhz)
        return PathLossBreakdown(
            distance_m=distance,
            line_of_sight=los,
            base_db=base,
            penetration_db=penetration,
            shadowing_db=shadowing,
        )

    def clutter_db(self, distance_m: float, carrier_mhz: float) -> float:
        """Clutter loss under this environment's calibration."""
        return clutter_loss_db(
            distance_m, carrier_mhz, self.clutter_coeff, self.clutter_exponent
        )

    def path_loss_db(self, tx: Point, rx: Point, carrier_mhz: float) -> float:
        """Total path loss between ``tx`` and ``rx`` at ``carrier_mhz``."""
        return self.breakdown(tx, rx, carrier_mhz).total_db

    def is_indoor(self, p: Point) -> bool:
        """Whether ``p`` lies inside a building."""
        return self.buildings.is_indoor(p)

    def _shadow_standard_normal(self, tx: Point, rx: Point, carrier_mhz: float) -> float:
        """Deterministic N(0, 1) draw keyed by the link's shadow-grid cells."""
        key = (
            f"shadow:{round(tx.x)}:{round(tx.y)}:"
            f"{int(rx.x // _SHADOW_GRID_M)}:{int(rx.y // _SHADOW_GRID_M)}:"
            f"{round(carrier_mhz)}"
        )
        cached = self._shadow_cache.get(key)
        if cached is None:
            gen: np.random.Generator = self._rng.stream(key)
            cached = float(gen.standard_normal())
            self._shadow_cache[key] = cached
        return cached

    def shadow_standard_normals(
        self,
        tx: Point,
        carrier_mhz: float,
        grid_x: np.ndarray,
        grid_y: np.ndarray,
    ) -> np.ndarray:
        """Array form of :meth:`_shadow_standard_normal` over grid indices.

        ``grid_x``/``grid_y`` are *shadow-grid* indices (``int(x // 10)``)
        rather than coordinates.  The keys missing from the shared cache
        are drawn with one :meth:`RngFactory.standard_normals` call, whose
        values equal the per-key ``stream(key).standard_normal()`` that
        the scalar path draws, so the cache holds the same fade for a key
        in any evaluation order.  A key repeated in the input is drawn
        once.
        """
        prefix = f"shadow:{round(tx.x)}:{round(tx.y)}:"
        suffix = f":{round(carrier_mhz)}"
        keys = [
            f"{prefix}{gx}:{gy}{suffix}" for gx, gy in zip(grid_x.tolist(), grid_y.tolist())
        ]
        cache = self._shadow_cache
        missing = [key for key in dict.fromkeys(keys) if key not in cache]
        if missing:
            cache.update(zip(missing, self._rng.standard_normals(missing).tolist()))
        return np.fromiter(map(cache.__getitem__, keys), dtype=np.float64, count=len(keys))
