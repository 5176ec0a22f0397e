"""Planar geometry, buildings and the abstract world model.

``SectorSpec``/``SiteSpec`` and the map type itself (``WorldModel``) live
in :mod:`repro.geometry.world`; :mod:`repro.geometry.campus` merely
produces the hand-crafted paper replica.
"""

from repro.geometry.buildings import WALL_LOSS_CLASSES, Building, BuildingMap
from repro.geometry.campus import build_campus
from repro.geometry.points import GeoPoint, Point, Segment, haversine_km
from repro.geometry.world import (
    JUNCTION_TOLERANCE_M,
    RoadGraph,
    SectorSpec,
    SiteSpec,
    WorldModel,
    distance_point_to_segment,
    world_to_dict,
)

__all__ = [
    "Building",
    "BuildingMap",
    "GeoPoint",
    "JUNCTION_TOLERANCE_M",
    "Point",
    "RoadGraph",
    "SectorSpec",
    "Segment",
    "SiteSpec",
    "WALL_LOSS_CLASSES",
    "WorldModel",
    "build_campus",
    "distance_point_to_segment",
    "haversine_km",
    "world_to_dict",
]
