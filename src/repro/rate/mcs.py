"""IEEE 802.11ad modulation-and-coding-scheme (MCS) tables.

The paper converts measured SNRs to data rates "by substituting the
SNRs measurements into standard rate tables based on the 802.11ad
modulation and code rates".  This module encodes those tables: the
control PHY (MCS 0), the single-carrier PHY (MCS 1-12) and the OFDM
PHY (MCS 13-24, topping out at 6.76 Gbps).

SNR thresholds are derived from the standard's receiver sensitivity
targets, which assume a 10 dB noise figure and 5 dB implementation
loss over the 2.16 GHz channel (noise floor -81 dBm + 15 dB =
-66 dBm reference): ``snr_threshold = sensitivity_dbm + 66``.  This
reproduces the paper's statement that ~20 dB of SNR is needed for the
maximum data rate.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple


class PhyType(Enum):
    """The three 802.11ad PHYs."""

    CONTROL = "control"
    SINGLE_CARRIER = "sc"
    OFDM = "ofdm"


#: Offset converting standard sensitivity (dBm) to an SNR threshold (dB):
#: thermal noise over 2.16 GHz (-81 dBm) + 10 dB NF + 5 dB impl. loss.
SENSITIVITY_TO_SNR_DB = 66.0


@dataclass(frozen=True)
class Mcs:
    """One row of the 802.11ad rate table."""

    index: int
    phy: PhyType
    modulation: str
    code_rate: str
    data_rate_mbps: float
    sensitivity_dbm: float

    @property
    def snr_threshold_db(self) -> float:
        """Minimum SNR at which this MCS sustains its rate."""
        return self.sensitivity_dbm + SENSITIVITY_TO_SNR_DB

    @property
    def data_rate_gbps(self) -> float:
        return self.data_rate_mbps / 1000.0


#: The full 802.11ad MCS table (IEEE 802.11ad-2012, Tables 21-3/21-13/21-19).
MCS_TABLE: List[Mcs] = [
    Mcs(0, PhyType.CONTROL, "DBPSK", "1/2 (x32 spread)", 27.5, -78.0),
    Mcs(1, PhyType.SINGLE_CARRIER, "BPSK", "1/2 (x2 rep)", 385.0, -68.0),
    Mcs(2, PhyType.SINGLE_CARRIER, "BPSK", "1/2", 770.0, -66.0),
    Mcs(3, PhyType.SINGLE_CARRIER, "BPSK", "5/8", 962.5, -65.0),
    Mcs(4, PhyType.SINGLE_CARRIER, "BPSK", "3/4", 1155.0, -64.0),
    Mcs(5, PhyType.SINGLE_CARRIER, "BPSK", "13/16", 1251.25, -62.0),
    Mcs(6, PhyType.SINGLE_CARRIER, "QPSK", "1/2", 1540.0, -63.0),
    Mcs(7, PhyType.SINGLE_CARRIER, "QPSK", "5/8", 1925.0, -62.0),
    Mcs(8, PhyType.SINGLE_CARRIER, "QPSK", "3/4", 2310.0, -61.0),
    Mcs(9, PhyType.SINGLE_CARRIER, "QPSK", "13/16", 2502.5, -59.0),
    Mcs(10, PhyType.SINGLE_CARRIER, "16-QAM", "1/2", 3080.0, -55.0),
    Mcs(11, PhyType.SINGLE_CARRIER, "16-QAM", "5/8", 3850.0, -54.0),
    Mcs(12, PhyType.SINGLE_CARRIER, "16-QAM", "3/4", 4620.0, -53.0),
    Mcs(13, PhyType.OFDM, "SQPSK", "1/2", 693.0, -66.0),
    Mcs(14, PhyType.OFDM, "SQPSK", "5/8", 866.25, -64.0),
    Mcs(15, PhyType.OFDM, "QPSK", "1/2", 1386.0, -63.0),
    Mcs(16, PhyType.OFDM, "QPSK", "5/8", 1732.5, -62.0),
    Mcs(17, PhyType.OFDM, "QPSK", "3/4", 2079.0, -60.0),
    Mcs(18, PhyType.OFDM, "16-QAM", "1/2", 2772.0, -58.0),
    Mcs(19, PhyType.OFDM, "16-QAM", "5/8", 3465.0, -56.0),
    Mcs(20, PhyType.OFDM, "16-QAM", "3/4", 4158.0, -54.0),
    Mcs(21, PhyType.OFDM, "16-QAM", "13/16", 4504.5, -53.0),
    Mcs(22, PhyType.OFDM, "64-QAM", "5/8", 5197.5, -51.0),
    Mcs(23, PhyType.OFDM, "64-QAM", "3/4", 6237.0, -49.0),
    Mcs(24, PhyType.OFDM, "64-QAM", "13/16", 6756.75, -47.0),
]

#: Highest rate in the standard: OFDM MCS 24, 6.76 Gbps.
MAX_RATE_MBPS = max(m.data_rate_mbps for m in MCS_TABLE)


def mcs_by_index(index: int) -> Mcs:
    """Look up an MCS by its standard index."""
    for m in MCS_TABLE:
        if m.index == index:
            return m
    raise KeyError(f"no 802.11ad MCS with index {index}")


#: Per PHY set: the ascending distinct SNR thresholds of its MCSs, and
#: the best MCS usable at each.  See :func:`_ladder`.
_LADDERS: Dict[FrozenSet[PhyType], Tuple[List[float], List[Mcs]]] = {}


def _ladder(phys: Sequence[PhyType]) -> Tuple[List[float], List[Mcs]]:
    """The rate ladder of a PHY set, built on its first use.

    The best MCS at a threshold is the highest rate (then the lowest
    threshold) among the rows that threshold clears, chosen as
    :func:`best_mcs_for_snr` defines it; an SNR between two thresholds
    gets the lower one's.
    """
    key = frozenset(phys)
    ladder = _LADDERS.get(key)
    if ladder is None:
        rows = [m for m in MCS_TABLE if m.phy in key]
        thresholds = sorted({m.snr_threshold_db for m in rows})
        best = [
            max(
                (m for m in rows if m.snr_threshold_db <= threshold),
                key=lambda m: (m.data_rate_mbps, -m.snr_threshold_db),
            )
            for threshold in thresholds
        ]
        ladder = _LADDERS[key] = (thresholds, best)
    return ladder


def best_mcs_for_snr(
    snr_db: float,
    phys: Sequence[PhyType] = (PhyType.CONTROL, PhyType.SINGLE_CARRIER, PhyType.OFDM),
    margin_db: float = 0.0,
) -> Optional[Mcs]:
    """Highest-rate MCS whose threshold is met at ``snr_db - margin``.

    Returns ``None`` when even the control PHY cannot decode (deep
    outage) — the situation the paper describes as "no connectivity" —
    and for a NaN SNR, which meets no threshold.  The answer is looked
    up by bisection in the PHY set's precomputed ladder.

    >>> best_mcs_for_snr(20.0).index
    24
    >>> best_mcs_for_snr(float("nan")) is None
    True
    """
    thresholds, best = _ladder(phys)
    snr = snr_db - margin_db
    # Written so a NaN SNR (which compares False) finds no MCS.
    if not (thresholds and snr >= thresholds[0]):
        return None
    return best[bisect_right(thresholds, snr) - 1]


def data_rate_mbps_for_snr(snr_db: float, **kwargs) -> float:
    """Deliverable data rate at an SNR (0 when nothing decodes)."""
    mcs = best_mcs_for_snr(snr_db, **kwargs)
    return 0.0 if mcs is None else mcs.data_rate_mbps


def required_snr_db_for_rate(rate_mbps: float) -> float:
    """Minimum SNR able to sustain at least ``rate_mbps``.

    Raises ``ValueError`` if the standard has no MCS that fast.
    """
    if rate_mbps <= 0.0:
        raise ValueError(f"rate must be positive, got {rate_mbps}")
    candidates = [m for m in MCS_TABLE if m.data_rate_mbps >= rate_mbps]
    if not candidates:
        raise ValueError(
            f"no 802.11ad MCS reaches {rate_mbps} Mbps "
            f"(max is {MAX_RATE_MBPS} Mbps)"
        )
    return min(m.snr_threshold_db for m in candidates)
