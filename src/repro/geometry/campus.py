"""The synthetic measurement campus.

The paper's campaign ran on a 0.5 km x 0.92 km university campus containing
6 5G gNB sites (13 NR cells), 13 4G eNB sites (34 LTE cells, 6 of them
co-sited with the gNBs), 6.019 km of walkable roads and dense brick/concrete
buildings.  This module builds a deterministic planar replica with the same
aggregate statistics so coverage experiments run against comparable geometry:

* area 500 m x 920 m (0.46 km^2),
* gNB density 6 / 0.46 km^2 = 13.0 per km^2 (paper: 12.99),
* eNB density 13 / 0.46 km^2 = 28.3 per km^2 (paper: 28.14),
* road network ~6.0 km.

The map type itself is :class:`~repro.geometry.world.WorldModel`, and this
module is the producer behind the ``paper-campus`` topology generator preset
(:mod:`repro.topology.generate`).  Procedural districts come from the other
presets; everything downstream consumes the abstract world model.
"""

from __future__ import annotations

from repro.geometry.buildings import Building, BuildingMap
from repro.geometry.points import Point, Segment
from repro.geometry.world import SectorSpec, SiteSpec, WorldModel

__all__ = ["SectorSpec", "SiteSpec", "build_campus"]

#: Campus bounds in meters.
WIDTH_M = 500.0
HEIGHT_M = 920.0


def _grid_roads() -> tuple[Segment, ...]:
    """Four north-south avenues and five east-west streets (~6.02 km)."""
    verticals = [30.0, 140.0, 360.0, 470.0]
    horizontals = [40.0, 260.0, 480.0, 700.0, 880.0]
    roads: list[Segment] = []
    for x in verticals:
        roads.append(Segment(Point(x, 0.0), Point(x, HEIGHT_M)))
    for y in horizontals:
        roads.append(Segment(Point(0.0, y), Point(WIDTH_M, y)))
    return tuple(roads)


def _campus_buildings() -> BuildingMap:
    """Brick/concrete blocks filling the spaces between roads.

    One or two buildings per city block, leaving a >=10 m sidewalk margin so
    road samples stay outdoors.
    """
    x_blocks = [(40.0, 130.0), (150.0, 350.0), (370.0, 460.0)]
    y_blocks = [(50.0, 250.0), (270.0, 470.0), (490.0, 690.0), (710.0, 870.0)]
    buildings: list[Building] = []
    idx = 0
    for xi, (x0, x1) in enumerate(x_blocks):
        for yi, (y0, y1) in enumerate(y_blocks):
            idx += 1
            if xi == 1:
                # Wide central blocks hold two buildings with a courtyard.
                mid = (y0 + y1) / 2.0
                buildings.append(
                    Building(x0 + 10, y0 + 10, x1 - 10, mid - 15, name=f"B{idx}a")
                )
                buildings.append(
                    Building(x0 + 10, mid + 15, x1 - 10, y1 - 10, name=f"B{idx}b")
                )
            else:
                buildings.append(
                    Building(x0 + 8, y0 + 12, x1 - 8, y1 - 12, name=f"B{idx}")
                )
    return BuildingMap(buildings)


def _gnb_sites() -> tuple[SiteSpec, ...]:
    """Six gNB sites, 13 NR cells; PCIs follow Fig. 2(a) where possible."""
    return (
        SiteSpec(
            "gnb-SE",
            Point(460.0, 120.0),
            (SectorSpec(60, 300.0), SectorSpec(61, 60.0)),
        ),
        SiteSpec("gnb-SW", Point(35.0, 180.0), (SectorSpec(63, 30.0), SectorSpec(64, 210.0))),
        SiteSpec("gnb-W", Point(60.0, 500.0), (SectorSpec(68, 0.0), SectorSpec(69, 150.0))),
        SiteSpec(
            "gnb-C",
            Point(250.0, 480.0),
            (SectorSpec(72, 90.0), SectorSpec(73, 210.0), SectorSpec(74, 330.0)),
        ),
        SiteSpec("gnb-NE", Point(460.0, 640.0), (SectorSpec(79, 315.0), SectorSpec(80, 135.0))),
        SiteSpec("gnb-N", Point(200.0, 875.0), (SectorSpec(115, 45.0), SectorSpec(116, 225.0))),
    )


#: Positions of the seven 4G-only infill sites (also used as candidate
#: locations when a scenario densifies the gNB grid).
_INFILL_POSITIONS: tuple[tuple[str, Point], ...] = (
    ("enb-7", Point(250.0, 45.0)),
    ("enb-8", Point(470.0, 350.0)),
    ("enb-9", Point(30.0, 330.0)),
    ("enb-10", Point(250.0, 260.0)),
    ("enb-11", Point(470.0, 820.0)),
    ("enb-12", Point(40.0, 760.0)),
    ("enb-13", Point(140.0, 600.0)),
)


def _extra_gnb_sites(count: int) -> tuple[SiteSpec, ...]:
    """Densification gNBs co-sited at the first ``count`` infill positions.

    Two sectors each, PCIs from 130 upward (clear of the measured NR PCIs
    and below the LTE range starting at 200).
    """
    if count > len(_INFILL_POSITIONS):
        raise ValueError(
            f"extra_gnb_sites supports at most {len(_INFILL_POSITIONS)} sites, got {count}"
        )
    sites: list[SiteSpec] = []
    pci = 130
    for i, (_, pos) in enumerate(_INFILL_POSITIONS[:count]):
        sectors = (SectorSpec(pci, 0.0), SectorSpec(pci + 1, 180.0))
        pci += 2
        sites.append(SiteSpec(f"gnb-x{i + 1}", pos, sectors))
    return tuple(sites)


def _enb_sites() -> tuple[SiteSpec, ...]:
    """Thirteen eNB sites, 34 LTE cells.

    The first six share positions with the gNB sites (the NSA anchors); the
    remaining seven are 4G-only, which is why the measured 4G coverage is
    denser than 5G (Sec. 3.1).
    """
    gnbs = _gnb_sites()
    extra_positions = _INFILL_POSITIONS
    sites: list[SiteSpec] = []
    pci = 200
    # Co-sited anchors: 3 sectors each except the last (2) -> 17 cells.
    for i, gnb in enumerate(gnbs):
        n_sec = 3 if i < 5 else 2
        sectors = tuple(
            SectorSpec(pci + k, (k * 360.0 / n_sec) % 360.0) for k in range(n_sec)
        )
        pci += n_sec
        sites.append(SiteSpec(f"enb-{i + 1}", gnb.position, sectors))
    # Stand-alone eNBs: 3+3+3+2+2+2+2 -> 17 cells (34 total).
    extra_sector_counts = [3, 3, 3, 2, 2, 2, 2]
    for (name, pos), n_sec in zip(extra_positions, extra_sector_counts):
        sectors = tuple(
            SectorSpec(pci + k, (k * 360.0 / n_sec + 30.0) % 360.0) for k in range(n_sec)
        )
        pci += n_sec
        sites.append(SiteSpec(name, pos, sectors, power_class="micro"))
    return tuple(sites)


def build_campus(extra_gnb_sites: int = 0) -> WorldModel:
    """Construct the deterministic campus replica.

    Args:
        extra_gnb_sites: Densification gNBs (0-7) co-sited at the 4G-only
            infill positions, as requested by ``Scenario.topology``.  The
            default 0 reproduces the measured deployment exactly.

    Returns:
        A :class:`WorldModel` whose aggregate statistics (area, densities, road
        length, cell counts) match the paper's Tab. 1 and Sec. 2/3.
    """
    campus = WorldModel(
        width_m=WIDTH_M,
        height_m=HEIGHT_M,
        roads=_grid_roads(),
        buildings=_campus_buildings(),
        gnb_sites=_gnb_sites() + _extra_gnb_sites(extra_gnb_sites),
        enb_sites=_enb_sites(),
        landmarks={
            # Location "A" of Fig. 2(b): ~230 m down a LoS path from cell 72.
            "A": Point(480.0, 480.0),
            # Indoor/outdoor sampling spots ~100 m from cell 72 (Fig. 3).
            "F": Point(250.0, 580.0),
            "G": Point(160.0, 480.0),
            "H": Point(340.0, 480.0),
            "I": Point(250.0, 380.0),
        },
    )
    return campus
