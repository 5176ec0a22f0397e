"""Link adaptation: SINR -> CQI -> MCS -> spectral efficiency.

Uses the 3GPP 256-QAM CQI table (TS 36.213 Tab. 7.2.3-2 / TS 38.214
Tab. 5.2.2.1-3) with an attenuated-Shannon mapping from SINR to achievable
efficiency.  The paper routinely observes MCS index 27 (256-QAM, code rate
0.925) near the gNB, which is the top entry of this table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from repro import instruments
from repro.core import vecmath as vm

__all__ = [
    "CQI_TABLE",
    "MAX_SPECTRAL_EFFICIENCY",
    "LinkAdaptation",
    "cqi_from_sinr",
    "cqi_from_sinr_array",
    "spectral_efficiency_from_sinr",
    "spectral_efficiency_from_sinr_array",
]


@dataclass(frozen=True)
class CqiEntry:
    """One row of the CQI table."""

    cqi: int
    modulation: str
    modulation_order: int
    code_rate: float
    efficiency: float  # bits per resource element


#: 3GPP 256-QAM CQI table, CQI 1..15.
CQI_TABLE: tuple[CqiEntry, ...] = (
    CqiEntry(1, "QPSK", 2, 0.0762, 0.1523),
    CqiEntry(2, "QPSK", 2, 0.1885, 0.3770),
    CqiEntry(3, "QPSK", 2, 0.4385, 0.8770),
    CqiEntry(4, "16QAM", 4, 0.3691, 1.4766),
    CqiEntry(5, "16QAM", 4, 0.4785, 1.9141),
    CqiEntry(6, "16QAM", 4, 0.6016, 2.4063),
    CqiEntry(7, "64QAM", 6, 0.4551, 2.7305),
    CqiEntry(8, "64QAM", 6, 0.5537, 3.3223),
    CqiEntry(9, "64QAM", 6, 0.6504, 3.9023),
    CqiEntry(10, "64QAM", 6, 0.7539, 4.5234),
    CqiEntry(11, "64QAM", 6, 0.8525, 5.1152),
    CqiEntry(12, "256QAM", 8, 0.6943, 5.5547),
    CqiEntry(13, "256QAM", 8, 0.7783, 6.2266),
    CqiEntry(14, "256QAM", 8, 0.8643, 6.9141),
    CqiEntry(15, "256QAM", 8, 0.9258, 7.4063),
)

MAX_SPECTRAL_EFFICIENCY = CQI_TABLE[-1].efficiency

#: Implementation-loss factor of the attenuated Shannon bound.
_SHANNON_ATTENUATION = 0.75

#: Below this SINR the link cannot sustain even CQI 1.
MIN_DECODABLE_SINR_DB = -6.5

#: Table efficiencies as an ascending float64 vector, for batched lookups.
_EFFICIENCIES = np.array([entry.efficiency for entry in CQI_TABLE], dtype=np.float64)


def _achievable_efficiency(sinr_db: float) -> float:
    """Attenuated Shannon efficiency in bits per resource element."""
    sinr_linear = 10.0 ** (sinr_db / 10.0)
    return _SHANNON_ATTENUATION * math.log2(1.0 + sinr_linear)


def cqi_from_sinr(sinr_db: float) -> int:
    """Largest CQI whose efficiency is achievable at ``sinr_db`` (0 = none)."""
    if sinr_db < MIN_DECODABLE_SINR_DB:
        return 0
    achievable = _achievable_efficiency(sinr_db)
    best = 0
    for entry in CQI_TABLE:
        if entry.efficiency <= achievable:
            best = entry.cqi
    return best


def spectral_efficiency_from_sinr(sinr_db: float) -> float:
    """Scheduled spectral efficiency (bits per RE) at ``sinr_db``.

    Returns 0.0 when the SINR is below the decodable floor — the condition
    the paper describes as "communication service cannot be triggered".
    """
    cqi = cqi_from_sinr(sinr_db)
    if cqi == 0:
        return 0.0
    return CQI_TABLE[cqi - 1].efficiency


def cqi_from_sinr_array(sinr_db: np.ndarray) -> np.ndarray:
    """Vectorized :func:`cqi_from_sinr` over an SINR array (int64).

    ``searchsorted(..., side="right")`` counts the table entries whose
    efficiency is ``<=`` the achievable one — exactly the scalar linear
    scan, table-edge values included.
    """
    sinr_db = vm.as_float_array(sinr_db)
    sinr_linear = vm.exp10(sinr_db / 10.0)
    achievable = _SHANNON_ATTENUATION * vm.log2(1.0 + sinr_linear)
    cqi = np.searchsorted(_EFFICIENCIES, achievable, side="right")
    return np.where(sinr_db < MIN_DECODABLE_SINR_DB, 0, cqi).astype(np.int64)


def spectral_efficiency_from_sinr_array(sinr_db: np.ndarray) -> np.ndarray:
    """Vectorized :func:`spectral_efficiency_from_sinr` (bits per RE)."""
    cqi = cqi_from_sinr_array(sinr_db)
    padded = np.concatenate(([0.0], _EFFICIENCIES))
    return padded[cqi]


@dataclass(frozen=True)
class LinkAdaptation:
    """The full link-adaptation decision for one channel state."""

    sinr_db: float
    cqi: int
    mcs_index: int
    modulation: str
    code_rate: float
    efficiency: float

    @classmethod
    def for_sinr(cls, sinr_db: float) -> "LinkAdaptation":
        """Adapt to ``sinr_db``; CQI 0 maps to an unusable link."""
        cqi = cqi_from_sinr(sinr_db)
        tracer = instruments.current().tracer
        if cqi == 0:
            tracer.counter("radio.mcs", None, -1.0)
            return cls(
                sinr_db=sinr_db,
                cqi=0,
                mcs_index=-1,
                modulation="none",
                code_rate=0.0,
                efficiency=0.0,
            )
        entry = CQI_TABLE[cqi - 1]
        # The 28-entry MCS table spans the 15 CQI levels roughly linearly;
        # CQI 15 corresponds to the MCS 27 the paper observes near the cell.
        mcs = min(27, round(entry.cqi * 27 / 15))
        tracer.counter("radio.mcs", None, float(mcs))
        return cls(
            sinr_db=sinr_db,
            cqi=cqi,
            mcs_index=mcs,
            modulation=entry.modulation,
            code_rate=entry.code_rate,
            efficiency=entry.efficiency,
        )

    @property
    def usable(self) -> bool:
        """Whether any MCS decodes at this SINR."""
        return self.cqi > 0
