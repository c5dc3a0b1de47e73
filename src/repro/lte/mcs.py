"""CQI / MCS rate model for the LTE substrate.

The scheduler needs per-RB instantaneous rates ``r_{i,b}``.  We derive them
from SINR through the standard LTE CQI table (36.213 Table 7.2.3-1): each CQI
index maps to a modulation order and code rate, i.e. a spectral efficiency in
bits per resource element.  Rates are then ``efficiency * data REs per RB /
subframe duration``.

CQI selection thresholds are derived from Shannon capacity with an
implementation-efficiency margin: CQI ``c`` is usable at the lowest SINR
where the RB's capacity, derated by ``IMPLEMENTATION_EFFICIENCY``, covers
the table entry's information bits.  This construction guarantees the
physical invariant that no CQI-model rate ever exceeds channel capacity
(verified by property tests), while tracking published link-level LTE
thresholds within ~1 dB.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from repro.lte import consts

__all__ = [
    "CqiEntry",
    "CQI_TABLE",
    "sinr_to_cqi",
    "sinr_to_cqi_array",
    "cqi_to_efficiency",
    "sinr_to_efficiency",
    "rb_rate_bps",
    "rb_rate_bps_array",
    "min_sinr_db_for_rate",
    "shannon_rb_rate_bps",
]


@dataclass(frozen=True)
class CqiEntry:
    """One row of the LTE CQI table."""

    index: int
    modulation: str
    bits_per_symbol: int
    code_rate: float

    @property
    def efficiency(self) -> float:
        """Spectral efficiency in information bits per resource element."""
        return self.bits_per_symbol * self.code_rate


#: LTE CQI table (36.213 Table 7.2.3-1).  Index 0 means out of range.
CQI_TABLE = (
    CqiEntry(0, "none", 0, 0.0),
    CqiEntry(1, "QPSK", 2, 78 / 1024),
    CqiEntry(2, "QPSK", 2, 120 / 1024),
    CqiEntry(3, "QPSK", 2, 193 / 1024),
    CqiEntry(4, "QPSK", 2, 308 / 1024),
    CqiEntry(5, "QPSK", 2, 449 / 1024),
    CqiEntry(6, "QPSK", 2, 602 / 1024),
    CqiEntry(7, "16QAM", 4, 378 / 1024),
    CqiEntry(8, "16QAM", 4, 490 / 1024),
    CqiEntry(9, "16QAM", 4, 616 / 1024),
    CqiEntry(10, "64QAM", 6, 466 / 1024),
    CqiEntry(11, "64QAM", 6, 567 / 1024),
    CqiEntry(12, "64QAM", 6, 666 / 1024),
    CqiEntry(13, "64QAM", 6, 772 / 1024),
    CqiEntry(14, "64QAM", 6, 873 / 1024),
    CqiEntry(15, "64QAM", 6, 948 / 1024),
)

#: Fraction of Shannon capacity a practical LTE link achieves.
IMPLEMENTATION_EFFICIENCY = 0.75


def _cqi_threshold_db(entry: CqiEntry) -> float:
    """Lowest SINR (dB) at which ``entry`` fits under derated capacity.

    The entry delivers ``efficiency * DATA_RE_PER_RB`` bits per subframe;
    derated capacity delivers ``0.75 * RB_BW * 1 ms * log2(1 + snr)`` bits.
    Solving for equality gives the threshold.
    """
    bits_needed = entry.efficiency * consts.DATA_RE_PER_RB
    capacity_scale = (
        IMPLEMENTATION_EFFICIENCY
        * consts.RB_BANDWIDTH_HZ
        * consts.SUBFRAME_DURATION_S
    )
    snr_linear = 2.0 ** (bits_needed / capacity_scale) - 1.0
    return 10.0 * float(np.log10(snr_linear))


_CQI_SINR_THRESHOLDS_DB = tuple(
    _cqi_threshold_db(entry) for entry in CQI_TABLE[1:]
)

# The thresholds ascend with the CQI index (capacity is monotone in the
# entry's bits), which is what lets CQI selection be a bisection instead of
# a linear scan — both for scalars and for whole SINR arrays at once.
assert all(
    a < b
    for a, b in zip(_CQI_SINR_THRESHOLDS_DB, _CQI_SINR_THRESHOLDS_DB[1:])
), "CQI thresholds must ascend"

_THRESHOLDS_ARRAY = np.asarray(_CQI_SINR_THRESHOLDS_DB)
_EFFICIENCY_ARRAY = np.asarray([entry.efficiency for entry in CQI_TABLE])
_RB_RATE_ARRAY = (
    _EFFICIENCY_ARRAY * consts.DATA_RE_PER_RB / consts.SUBFRAME_DURATION_S
)
# Python-list mirror for the scalar hot path: list indexing beats ndarray
# scalar indexing, and the values are the identical float64 results.
_RB_RATE_LIST = [float(rate) for rate in _RB_RATE_ARRAY]


def sinr_to_cqi(sinr_db: float) -> int:
    """Return the highest CQI index supported at ``sinr_db`` (0 if none)."""
    return bisect_right(_CQI_SINR_THRESHOLDS_DB, sinr_db)


def sinr_to_cqi_array(sinr_db: np.ndarray) -> np.ndarray:
    """:func:`sinr_to_cqi` over an SINR array."""
    return np.searchsorted(_THRESHOLDS_ARRAY, sinr_db, side="right")


def cqi_to_efficiency(cqi: int) -> float:
    """Spectral efficiency (bits per resource element) for a CQI index."""
    if not 0 <= cqi < len(CQI_TABLE):
        raise ValueError(f"CQI index out of range: {cqi}")
    return CQI_TABLE[cqi].efficiency


def sinr_to_efficiency(sinr_db: float) -> float:
    """Spectral efficiency achieved at a given SINR via CQI selection."""
    return cqi_to_efficiency(sinr_to_cqi(sinr_db))


def rb_rate_bps(sinr_db: float) -> float:
    """Instantaneous rate of one RB for one subframe, in bits per second.

    This is the rate model used for ``r_{i,b}`` throughout the schedulers:
    the CQI-table spectral efficiency at the measured SINR, applied to the
    data-bearing resource elements of the RB.  Implemented as a CQI
    bisection plus a precomputed per-CQI rate table; the values are
    bit-identical to computing ``efficiency * DATA_RE_PER_RB /
    SUBFRAME_DURATION_S`` on the fly.
    """
    return _RB_RATE_LIST[bisect_right(_CQI_SINR_THRESHOLDS_DB, sinr_db)]


def rb_rate_bps_array(sinr_db: np.ndarray) -> np.ndarray:
    """:func:`rb_rate_bps` over an SINR array.

    Element-for-element identical to the scalar function: CQI selection is
    the same bisection, and the per-CQI rates are precomputed with the same
    ``efficiency * DATA_RE_PER_RB / SUBFRAME_DURATION_S`` arithmetic.
    """
    return _RB_RATE_ARRAY[sinr_to_cqi_array(sinr_db)]


#: Per-CQI rate tables with a rate scale pre-applied, keyed by the scale.
_SCALED_RATE_ARRAYS: dict = {}


def scaled_rb_rate_bps_array(sinr_db: np.ndarray, scale: float) -> np.ndarray:
    """``scale * rb_rate_bps_array(sinr_db)`` with the multiply hoisted.

    Bit-identical to scaling the result array: the scale is applied once
    per CQI table entry instead of once per element, and each element's
    value is the product of the same two float64 operands either way —
    IEEE multiplication does not care when it runs.  This removes a
    full-size elementwise pass from the per-burst table computation.
    """
    if scale == 1.0:
        return _RB_RATE_ARRAY[sinr_to_cqi_array(sinr_db)]
    table = _SCALED_RATE_ARRAYS.get(scale)
    if table is None:
        table = scale * _RB_RATE_ARRAY
        if len(_SCALED_RATE_ARRAYS) > 64:
            _SCALED_RATE_ARRAYS.clear()
        _SCALED_RATE_ARRAYS[scale] = table
    return table[sinr_to_cqi_array(sinr_db)]


def min_sinr_db_for_rate(rate_bps: float) -> float:
    """Smallest per-RB SINR (dB) whose CQI sustains ``rate_bps``.

    The inverse of :func:`rb_rate_bps` (rates between CQI steps round up to
    the next step's threshold).  Used by HARQ to derive the soft-combining
    target of a failed transport block.
    """
    if rate_bps <= 0:
        raise ValueError(f"rate must be positive: {rate_bps}")
    for index, threshold in enumerate(_CQI_SINR_THRESHOLDS_DB, start=1):
        if rb_rate_bps(threshold) + 1e-9 >= rate_bps:
            return threshold
    raise ValueError(
        f"rate {rate_bps:.0f} bps exceeds the top CQI's per-RB capability"
    )


def shannon_rb_rate_bps(sinr_db: float, bandwidth_efficiency: float = 0.75) -> float:
    """Shannon-bound RB rate with an implementation-efficiency factor.

    Provided as an alternative smooth rate model (useful in property tests to
    check the CQI model is sane: the CQI rate must never exceed capacity).
    """
    sinr = 10.0 ** (sinr_db / 10.0)
    capacity = consts.RB_BANDWIDTH_HZ * np.log2(1.0 + sinr)
    return float(bandwidth_efficiency * capacity)
