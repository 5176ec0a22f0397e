"""Cells, base stations and the campus radio network.

A :class:`Cell` is one sector of a site bound to a radio profile and a
propagation environment; a :class:`RadioNetwork` is all co-channel cells of
one RAT, and answers the questions the measurement campaign asks at every
sampled location: who is the best server, what RSRP/RSRQ/SINR does it give,
and what bit-rate does link adaptation deliver there.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from collections.abc import Iterable, Sequence

import numpy as np

from repro.core.config import RadioProfile
from repro.geometry.world import SiteSpec, WorldModel
from repro.geometry.points import Point
from repro.radio import batch
from repro.radio.antenna import SectorAntenna
from repro.radio.phy import TRANSPORT_EFFICIENCY, phy_bit_rate, phy_bit_rate_array
from repro.radio.propagation import Environment
from repro.radio.signal import (
    MIN_SERVICE_RSRP_DBM,
    SignalSample,
    _RE_PER_PRB,
    combine_signal,
    rsrp_dbm,
)

__all__ = ["Cell", "RadioNetwork"]


@dataclass(frozen=True)
class Cell:
    """One sector of a base-station site.

    ``tx_power_dbm`` defaults to the profile's power but can differ per
    cell (macro vs micro sites).
    """

    pci: int
    site_name: str
    position: Point
    antenna: SectorAntenna
    profile: RadioProfile
    tx_power_dbm: float | None = None

    @property
    def effective_tx_power_dbm(self) -> float:
        """The cell's transmit power (per-cell override or profile)."""
        if self.tx_power_dbm is not None:
            return self.tx_power_dbm
        return self.profile.tx_power_dbm

    def rsrp_at(self, location: Point, environment: Environment) -> float:
        """RSRP (dBm) this cell delivers at ``location``."""
        direction = self.position.bearing_to(location)
        gain = self.antenna.gain_dbi(direction)
        loss = environment.path_loss_db(self.position, location, self.profile.carrier_mhz)
        return rsrp_dbm(
            tx_power_dbm=self.effective_tx_power_dbm,
            num_prb=self.profile.num_prb,
            antenna_gain_dbi=gain,
            path_loss_db=loss,
        )

    def distance_to(self, location: Point) -> float:
        """Distance from the cell mast to ``location``."""
        return self.position.distance_to(location)


class RadioNetwork:
    """All co-channel cells of one radio access technology.

    Args:
        cells: The sector list.
        profile: Shared radio profile.
        environment: Propagation environment.
        interference_activity: Fraction of resource elements on which
            neighbouring cells actually transmit.  Reuse-1 networks are not
            fully loaded in practice; the measured campus network was
            nearly idle (the paper's UE received almost every PRB), so
            neighbour cells radiate little beyond reference signals.
        interference_floor_dbm: Residual per-RE impairment floor (see
            :func:`repro.radio.signal.combine_signal`).  Defaults are
            calibrated so link adaptation spans its full MCS range across
            the serving area, reproducing the Fig. 2(b) rate contour and
            the Fig. 3 indoor/outdoor gap: -105 dBm (NR), -112 dBm (LTE).
    """

    _DEFAULT_FLOOR_DBM = {4: -112.0, 5: -105.0}

    def __init__(
        self,
        cells: Iterable[Cell],
        profile: RadioProfile,
        environment: Environment,
        interference_activity: float = 0.01,
        interference_floor_dbm: float | None = None,
    ) -> None:
        self.cells: tuple[Cell, ...] = tuple(cells)
        if not self.cells:
            raise ValueError("a radio network needs at least one cell")
        if not 0.0 <= interference_activity <= 1.0:
            raise ValueError(
                f"interference_activity must be in [0, 1], got {interference_activity}"
            )
        self.profile = profile
        self.environment = environment
        self.interference_activity = interference_activity
        if interference_floor_dbm is None:
            interference_floor_dbm = self._DEFAULT_FLOOR_DBM[profile.generation]
        self.interference_floor_dbm = interference_floor_dbm
        self._by_pci = {cell.pci: cell for cell in self.cells}
        if len(self._by_pci) != len(self.cells):
            raise ValueError("duplicate PCIs in cell list")
        self._pcis = tuple(cell.pci for cell in self.cells)
        self._pci_index = {pci: i for i, pci in enumerate(self._pcis)}

    #: Micro (street small cell) EIRP deltas vs the profile's macro values.
    MICRO_TX_BACKOFF_DB = 12.0
    MICRO_GAIN_DBI = 6.0

    @classmethod
    def from_sites(
        cls,
        sites: Sequence[SiteSpec],
        profile: RadioProfile,
        environment: Environment,
        max_gain_dbi: float = 17.0,
        **kwargs: float,
    ) -> "RadioNetwork":
        """Build a network from campus site specs.

        Micro sites transmit ``MICRO_TX_BACKOFF_DB`` below the profile's
        macro power through a small ``MICRO_GAIN_DBI`` antenna.
        """
        cells = []
        for site in sites:
            micro = site.power_class == "micro"
            gain = cls.MICRO_GAIN_DBI if micro else max_gain_dbi
            tx = profile.tx_power_dbm - (cls.MICRO_TX_BACKOFF_DB if micro else 0.0)
            for sector in site.sectors:
                cells.append(
                    Cell(
                        pci=sector.pci,
                        site_name=site.name,
                        position=site.position,
                        antenna=SectorAntenna(
                            azimuth_deg=sector.azimuth_deg, max_gain_dbi=gain
                        ),
                        profile=profile,
                        tx_power_dbm=tx,
                    )
                )
        return cls(cells, profile, environment, **kwargs)

    @classmethod
    def from_world(
        cls,
        world: WorldModel,
        profile: RadioProfile,
        environment: Environment,
        **kwargs: float,
    ) -> "RadioNetwork":
        """Build the world's 4G or 5G network according to the profile.

        gNB sectors default to a 24 dBi massive-MIMO beamformed panel, eNB
        sectors to a conventional 15 dBi passive antenna.
        """
        sites = world.gnb_sites if profile.generation == 5 else world.enb_sites
        kwargs.setdefault("max_gain_dbi", 24.0 if profile.generation == 5 else 15.0)
        return cls.from_sites(sites, profile, environment, **kwargs)

    def cell(self, pci: int) -> Cell:
        """Look a cell up by PCI."""
        try:
            return self._by_pci[pci]
        except KeyError:
            raise KeyError(f"no cell with PCI {pci}") from None

    def rsrp_matrix_at(self, points: Sequence[Point]) -> np.ndarray:
        """RSRP of every cell at every point: an (N, C) matrix in dBm.

        Columns follow ``self.cells`` order (``pcis`` names them).  This
        is the batched core every other query builds on; the per-UE
        methods are N=1 views of it.
        """
        x, y = batch.points_to_arrays(points)
        loss = batch.path_loss_matrix_db(
            self.environment,
            [cell.position for cell in self.cells],
            self.profile.carrier_mhz,
            x,
            y,
        )
        gain = batch.sector_gain_matrix(self.cells, x, y)
        per_re_tx = np.array(
            [
                cell.effective_tx_power_dbm
                - 10.0 * math.log10(cell.profile.num_prb * _RE_PER_PRB)
                for cell in self.cells
            ],
            dtype=np.float64,
        )
        return (per_re_tx[np.newaxis, :] + gain) - loss

    @property
    def pcis(self) -> tuple[int, ...]:
        """PCIs in ``cells`` (= RSRP-matrix column) order."""
        return self._pcis

    def _sample_arrays(
        self, points: Sequence[Point], serving_pci: int | None = None
    ) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
        """(serving column, RSRP, RSRQ, SINR) arrays for ``points``."""
        rsrp_matrix = self.rsrp_matrix_at(points)
        if serving_pci is None:
            serving_index = np.argmax(rsrp_matrix, axis=1)
        else:
            if serving_pci not in self._pci_index:
                raise KeyError(f"no cell with PCI {serving_pci}")
            serving_index = np.full(len(rsrp_matrix), self._pci_index[serving_pci])
        rsrp, rsrq, sinr = batch.combine_matrix(
            rsrp_matrix,
            serving_index,
            subcarrier_khz=self.profile.subcarrier_khz,
            interference_floor_dbm=self.interference_floor_dbm,
            interference_activity=self.interference_activity,
        )
        return serving_index, rsrp, rsrq, sinr

    def samples_at(
        self, points: Sequence[Point], serving_pci: int | None = None
    ) -> list[SignalSample]:
        """Batched :meth:`sample_at` over many points at once."""
        _, rsrp, rsrq, sinr = self._sample_arrays(points, serving_pci)
        return [
            SignalSample(rsrp_dbm=rsrp_dbm, rsrq_db=rsrq_db, sinr_db=sinr_db)
            for rsrp_dbm, rsrq_db, sinr_db in zip(
                rsrp.tolist(), rsrq.tolist(), sinr.tolist()
            )
        ]

    def bit_rates_at(
        self,
        points: Sequence[Point],
        direction: str = "dl",
        prb_fraction: float = 1.0,
        serving_pci: int | None = None,
        include_transport_overhead: bool = False,
    ) -> np.ndarray:
        """Batched :meth:`bit_rate_at`: deliverable bit-rates in bits/s."""
        _, rsrp, _, sinr = self._sample_arrays(points, serving_pci)
        rates = phy_bit_rate_array(
            self.profile, sinr, direction=direction, prb_fraction=prb_fraction
        )
        rates = np.where(rsrp >= MIN_SERVICE_RSRP_DBM, rates, 0.0)
        if include_transport_overhead:
            rates = rates * TRANSPORT_EFFICIENCY
        return rates

    def rsrp_map_at(self, location: Point) -> dict[int, float]:
        """RSRP of every cell at ``location``, keyed by PCI."""
        row = self.rsrp_matrix_at((location,))[0]
        return dict(zip(self._pcis, row.tolist()))

    def best_cell_at(self, location: Point) -> tuple[Cell, float]:
        """The strongest cell at ``location`` and its RSRP."""
        rsrps = self.rsrp_map_at(location)
        best_pci = max(rsrps, key=lambda pci: rsrps[pci])
        return self._by_pci[best_pci], rsrps[best_pci]

    def sample_at(self, location: Point, serving_pci: int | None = None) -> SignalSample:
        """Joint RSRP/RSRQ/SINR observation at ``location``.

        Args:
            location: Sampling point.
            serving_pci: Lock onto this cell (the frequency-lock experiment
                of Sec. 3.2); default is the strongest cell.
        """
        return self.sample_from_rsrps(self.rsrp_map_at(location), serving_pci)

    def sample_from_rsrps(
        self, rsrps: dict[int, float], serving_pci: int | None = None
    ) -> SignalSample:
        """Like :meth:`sample_at` but reusing a precomputed RSRP map.

        The hand-off engine evaluates every candidate serving cell at every
        report; recomputing path loss per candidate would be quadratic.
        """
        rsrps = dict(rsrps)
        if serving_pci is None:
            serving_pci = max(rsrps, key=lambda pci: rsrps[pci])
        elif serving_pci not in rsrps:
            raise KeyError(f"no cell with PCI {serving_pci}")
        serving = rsrps.pop(serving_pci)
        return combine_signal(
            serving_rsrp_dbm=serving,
            interferer_rsrps_dbm=list(rsrps.values()),
            subcarrier_khz=self.profile.subcarrier_khz,
            interference_floor_dbm=self.interference_floor_dbm,
            interference_activity=self.interference_activity,
        )

    def bit_rate_at(
        self,
        location: Point,
        direction: str = "dl",
        prb_fraction: float = 1.0,
        serving_pci: int | None = None,
        include_transport_overhead: bool = False,
    ) -> float:
        """Deliverable bit-rate (bits/s) at ``location``.

        With ``include_transport_overhead`` the rate is scaled down to UDP
        goodput the way iperf would observe it.
        """
        sample = self.sample_at(location, serving_pci=serving_pci)
        return self.bit_rate_from_sample(
            sample,
            direction=direction,
            prb_fraction=prb_fraction,
            include_transport_overhead=include_transport_overhead,
        )

    def bit_rate_from_sample(
        self,
        sample: SignalSample,
        direction: str = "dl",
        prb_fraction: float = 1.0,
        include_transport_overhead: bool = False,
    ) -> float:
        """Bit-rate from an already-computed :class:`SignalSample`.

        Lets survey code evaluate the RSRP map once per point and derive
        serving choice, signal quality and bit-rate from the same map.
        """
        if not sample.in_service:
            return 0.0
        rate = phy_bit_rate(
            self.profile, sample.sinr_db, direction=direction, prb_fraction=prb_fraction
        )
        if include_transport_overhead:
            rate *= TRANSPORT_EFFICIENCY
        return rate

