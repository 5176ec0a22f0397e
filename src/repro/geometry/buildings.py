"""Building footprints and radio blockage tests.

Buildings matter twice in the study: they block line-of-sight outdoors
(coverage defects at locations D/E in Fig. 2(b)) and their walls attenuate
signals reaching indoor receivers (the indoor/outdoor gap of Fig. 3).  We
model footprints as axis-aligned rectangles — adequate for a campus of
brick-and-concrete blocks — and count wall crossings along a propagation ray.

The scalar :meth:`Building.wall_crossings` is the reference.  The batched
:meth:`BuildingMap.wall_crossings_counts` runs the same clip over
candidate (ray, building) pairs only: a bounding-box test against each
footprint grown by ``_CANDIDATE_MARGIN_M`` drops the pairs the clip
cannot count, and the survivors run its exact IEEE operations.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from repro.geometry.points import Point

__all__ = ["WALL_LOSS_CLASSES", "Building", "BuildingMap"]

#: Recognised wall construction classes, in increasing penetration loss.
#: The paper's campus is brick-and-concrete; procedural stocks draw from
#: the full set by density class.
WALL_LOSS_CLASSES: tuple[str, ...] = ("timber", "glass", "brick", "concrete")

#: How far (m) a footprint is grown before the candidate-pair test.  The
#: clip's quotients carry a relative error of a few ulps, so it can count
#: a ray that stops a hair short of a wall — about 1e-13 m on a km-scale
#: map.  Any margin far above that keeps every pair the clip would count;
#: it only stops being conservative for rays some 1e9 m long.
_CANDIDATE_MARGIN_M = 1e-6
#: (ray, building) pairs per kernel block: bounds the kernel's scratch
#: memory (a few MiB) whatever the survey size.
_BLOCK_PAIRS = 1 << 16


@dataclass(frozen=True)
class Building:
    """An axis-aligned rectangular building footprint.

    Attributes:
        x_min, y_min, x_max, y_max: Footprint bounds in meters.
        name: Optional label for debugging / map rendering.
        height_m: Roof height; metadata for generated stocks (the planar
            radio model does not ray-trace in elevation).
        wall_loss_class: Construction class from :data:`WALL_LOSS_CLASSES`.
    """

    x_min: float
    y_min: float
    x_max: float
    y_max: float
    name: str = ""
    height_m: float = 12.0
    wall_loss_class: str = "brick"

    def __post_init__(self) -> None:
        if self.x_min >= self.x_max or self.y_min >= self.y_max:
            raise ValueError(
                f"degenerate building bounds: "
                f"({self.x_min}, {self.y_min})..({self.x_max}, {self.y_max})"
            )
        if self.height_m <= 0.0:
            raise ValueError(f"building height must be positive, got {self.height_m}")
        if self.wall_loss_class not in WALL_LOSS_CLASSES:
            raise ValueError(
                f"unknown wall loss class {self.wall_loss_class!r}; "
                f"expected one of {WALL_LOSS_CLASSES}"
            )

    def overlaps(self, other: "Building") -> bool:
        """True when the two footprints share interior area (not mere touch)."""
        return (
            self.x_min < other.x_max
            and other.x_min < self.x_max
            and self.y_min < other.y_max
            and other.y_min < self.y_max
        )

    def contains(self, p: Point) -> bool:
        """True if ``p`` lies inside (or on the boundary of) the footprint."""
        return self.x_min <= p.x <= self.x_max and self.y_min <= p.y <= self.y_max

    @property
    def center(self) -> Point:
        """Footprint centroid."""
        return Point((self.x_min + self.x_max) / 2.0, (self.y_min + self.y_max) / 2.0)

    def wall_crossings(self, a: Point, b: Point) -> int:
        """Number of exterior walls the segment ``a``–``b`` crosses.

        A ray passing fully through the building crosses 2 walls; a ray
        ending inside it crosses 1; a ray missing it crosses 0.
        """
        inside_a = self.contains(a)
        inside_b = self.contains(b)
        if inside_a and inside_b:
            return 0
        if inside_a or inside_b:
            return 1 if self._intersects(a, b) else 0
        return 2 if self._intersects(a, b) else 0

    def _intersects(self, a: Point, b: Point) -> bool:
        """Liang-Barsky clip test of segment a-b against the rectangle."""
        dx = b.x - a.x
        dy = b.y - a.y
        t0, t1 = 0.0, 1.0
        for p, q in (
            (-dx, a.x - self.x_min),
            (dx, self.x_max - a.x),
            (-dy, a.y - self.y_min),
            (dy, self.y_max - a.y),
        ):
            if p == 0.0:
                if q < 0.0:
                    return False
                continue
            t = q / p
            if p < 0.0:
                if t > t1:
                    return False
                t0 = max(t0, t)
            else:
                if t < t0:
                    return False
                t1 = min(t1, t)
        return t0 <= t1

    def contains_mask(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`contains` over coordinate arrays (broadcasts)."""
        return (
            (self.x_min <= x) & (x <= self.x_max)
            & (self.y_min <= y) & (y <= self.y_max)
        )


def _pair_crossings(
    ax: np.ndarray,
    ay: np.ndarray,
    bx: np.ndarray,
    by: np.ndarray,
    x_min: np.ndarray,
    y_min: np.ndarray,
    x_max: np.ndarray,
    y_max: np.ndarray,
) -> np.ndarray:
    """:meth:`Building.wall_crossings` for each (segment, footprint) pair.

    Runs the four Liang-Barsky clip steps of :meth:`Building._intersects`
    pair-parallel, each pair against its own footprint bounds: a pair the
    scalar code would have rejected early is masked dead, and its (then
    irrelevant) ``t0``/``t1`` updates are harmless.  Every division and
    comparison is the exact IEEE operation the scalar path performs, so
    the outcome is identical per pair.
    """
    dx = bx - ax
    dy = by - ay
    t0 = np.zeros(ax.shape)
    t1 = np.ones(ax.shape)
    alive = np.ones(ax.shape, dtype=bool)
    for p, q in (
        (-dx, ax - x_min),
        (dx, x_max - ax),
        (-dy, ay - y_min),
        (dy, y_max - ay),
    ):
        zero = p == 0.0
        alive &= ~(zero & (q < 0.0))
        t = q / np.where(zero, 1.0, p)
        neg = p < 0.0
        pos = p > 0.0
        alive &= ~((neg & (t > t1)) | (pos & (t < t0)))
        t0 = np.where(neg, np.maximum(t0, t), t0)
        t1 = np.where(pos, np.minimum(t1, t), t1)
    hits = (alive & (t0 <= t1)).astype(np.int64)
    inside_a = (x_min <= ax) & (ax <= x_max) & (y_min <= ay) & (ay <= y_max)
    inside_b = (x_min <= bx) & (bx <= x_max) & (y_min <= by) & (by <= y_max)
    return np.where(inside_a & inside_b, 0, np.where(inside_a | inside_b, hits, 2 * hits))


class BuildingMap:
    """A queryable collection of building footprints."""

    def __init__(self, buildings: Iterable[Building]) -> None:
        self._buildings: tuple[Building, ...] = tuple(buildings)
        bounds = np.array(
            [(b.x_min, b.y_min, b.x_max, b.y_max) for b in self._buildings],
            dtype=np.float64,
        ).reshape(-1, 4)
        # One contiguous column per bound: the kernels gather from these.
        self._x_min, self._y_min, self._x_max, self._y_max = (
            np.ascontiguousarray(column) for column in bounds.T
        )

    def __len__(self) -> int:
        return len(self._buildings)

    def __iter__(self):
        return iter(self._buildings)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BuildingMap):
            return NotImplemented
        return self._buildings == other._buildings

    def __hash__(self) -> int:
        return hash(self._buildings)

    @property
    def buildings(self) -> Sequence[Building]:
        """The building tuple (read-only)."""
        return self._buildings

    def is_indoor(self, p: Point) -> bool:
        """True if ``p`` falls inside any building footprint."""
        return any(b.contains(p) for b in self._buildings)

    def building_at(self, p: Point) -> Building | None:
        """The building containing ``p``, or None."""
        for b in self._buildings:
            if b.contains(p):
                return b
        return None

    def wall_crossings(self, a: Point, b: Point) -> int:
        """Total exterior-wall crossings along the ray ``a``–``b``."""
        return sum(b_.wall_crossings(a, b) for b_ in self._buildings)

    def has_line_of_sight(self, a: Point, b: Point) -> bool:
        """True if no building wall obstructs the direct path."""
        return self.wall_crossings(a, b) == 0

    def contains_mask(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`is_indoor` over coordinate arrays."""
        x, y = np.broadcast_arrays(x, y)
        mask = np.zeros(x.shape, dtype=bool)
        for building in self._buildings:
            mask |= building.contains_mask(x, y)
        return mask

    def building_indices(self, x: np.ndarray, y: np.ndarray) -> np.ndarray:
        """Vectorized :meth:`building_at`: first containing index, or -1.

        Iterating in reverse and overwriting preserves the scalar
        first-match semantics when footprints overlap.
        """
        x, y = np.broadcast_arrays(x, y)
        indices = np.full(x.shape, -1, dtype=np.int64)
        for i in range(len(self._buildings) - 1, -1, -1):
            indices = np.where(self._buildings[i].contains_mask(x, y), i, indices)
        return indices

    def _contains_indexed(
        self, index: np.ndarray, x: np.ndarray, y: np.ndarray
    ) -> np.ndarray:
        """Whether each point lies inside building ``index`` (broadcasts).

        ``index`` holds building indices as :meth:`building_indices`
        returns them; a lane whose index is -1 is inside none.
        """
        index, x, y = np.broadcast_arrays(index, x, y)
        if not self._buildings:
            return np.zeros(index.shape, dtype=bool)
        chosen = np.maximum(index, 0)
        return (index >= 0) & (
            (self._x_min[chosen] <= x) & (x <= self._x_max[chosen])
            & (self._y_min[chosen] <= y) & (y <= self._y_max[chosen])
        )

    def wall_crossings_counts(
        self,
        ax: np.ndarray,
        ay: np.ndarray,
        bx: np.ndarray,
        by: np.ndarray,
        skip: np.ndarray | int = -1,
    ) -> np.ndarray:
        """Vectorized :meth:`wall_crossings` over segment-endpoint arrays.

        Every lane (broadcast endpoint pair) is tested against every
        footprint in blocks of about ``_BLOCK_PAIRS`` (lane, building)
        pairs.  A pair survives when the lane's bounding box meets the
        footprint grown by ``_CANDIDATE_MARGIN_M``; a ray whose box
        misses it by more than that lies wholly beyond one side of the
        footprint, which the clip rejects at that side's step, so the
        dropped pairs would all have counted 0.  Surviving pairs run the
        scalar clip's exact operations and their counts are summed per
        lane, so the result equals :meth:`wall_crossings` lane for lane.

        Args:
            skip: Building index per lane (broadcasting with the
                endpoints) whose walls are left out, as
                :meth:`building_indices` returns it: -1 leaves out none.
                The radio core passes the receiver's own building, whose
                wall it charges as penetration loss instead.
        """
        ax, ay, bx, by = np.broadcast_arrays(ax, ay, bx, by)
        shape = ax.shape
        ax, ay, bx, by = (v.ravel() for v in (ax, ay, bx, by))
        skip = np.broadcast_to(skip, shape).ravel()
        lanes = len(ax)
        total = np.zeros(lanes, dtype=np.int64)
        if not self._buildings:
            return total.reshape(shape)
        lo_x, hi_x = np.minimum(ax, bx), np.maximum(ax, bx)
        lo_y, hi_y = np.minimum(ay, by), np.maximum(ay, by)
        grown_x_min = self._x_min - _CANDIDATE_MARGIN_M
        grown_x_max = self._x_max + _CANDIDATE_MARGIN_M
        grown_y_min = self._y_min - _CANDIDATE_MARGIN_M
        grown_y_max = self._y_max + _CANDIDATE_MARGIN_M
        step = max(1, _BLOCK_PAIRS // len(self._buildings))
        for start in range(0, lanes, step):
            stop = min(start + step, lanes)
            near = (
                (lo_x[start:stop, np.newaxis] <= grown_x_max)
                & (hi_x[start:stop, np.newaxis] >= grown_x_min)
                & (lo_y[start:stop, np.newaxis] <= grown_y_max)
                & (hi_y[start:stop, np.newaxis] >= grown_y_min)
            )
            offset, building = np.nonzero(near)
            lane = offset + start
            kept = building != skip[lane]
            offset, lane, building = offset[kept], lane[kept], building[kept]
            counts = _pair_crossings(
                ax[lane], ay[lane], bx[lane], by[lane],
                self._x_min[building], self._y_min[building],
                self._x_max[building], self._y_max[building],
            )
            # Each count is 0-2, so the float bin sums are exact integers.
            total[start:stop] = np.bincount(offset, weights=counts, minlength=stop - start)
        return total.reshape(shape)
