"""Noise figures, noise floors, and SNR arithmetic.

The receiver noise floor is ``kTB + NF``; cascaded stages (the MoVR
relay path has two radio hops plus the reflector's amplifier) combine
via the Friis cascade formula.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

from repro.utils.units import IEEE80211AD_BANDWIDTH_HZ, thermal_noise_dbm
from repro.utils.validation import require_non_negative, require_positive


@dataclass(frozen=True)
class ReceiverNoise:
    """A receiver's noise parameters."""

    bandwidth_hz: float = IEEE80211AD_BANDWIDTH_HZ
    noise_figure_db: float = 6.0

    def __post_init__(self) -> None:
        require_positive(self.bandwidth_hz, "bandwidth_hz")
        require_non_negative(self.noise_figure_db, "noise_figure_db")

    @cached_property
    def noise_floor_dbm(self) -> float:
        """Total input-referred noise power: kTB + NF (computed once: the
        receiver is frozen)."""
        return thermal_noise_dbm(self.bandwidth_hz) + self.noise_figure_db

    def snr_db(self, received_power_dbm: float) -> float:
        """SNR for a given received signal power."""
        return received_power_dbm - self.noise_floor_dbm


#: Default 802.11ad-class receiver.
DEFAULT_RECEIVER_NOISE = ReceiverNoise()


def friis_cascade_nf_db(stages: Sequence[tuple]) -> float:
    """Cascade noise figure via the Friis formula.

    ``stages`` is a sequence of ``(noise_figure_db, gain_db)`` pairs in
    signal-flow order.  The gain of the final stage is irrelevant but
    accepted for uniformity.

    >>> round(friis_cascade_nf_db([(3.0, 20.0), (10.0, 10.0)]), 2)
    3.19
    """
    if not stages:
        raise ValueError("need at least one stage")
    total_f = 0.0
    cumulative_gain = 1.0
    for i, (nf_db, gain_db) in enumerate(stages):
        require_non_negative(nf_db, f"stage {i} noise figure")
        f = 10.0 ** (nf_db / 10.0)
        if i == 0:
            total_f = f
        else:
            total_f += (f - 1.0) / cumulative_gain
        cumulative_gain *= 10.0 ** (gain_db / 10.0)
        if cumulative_gain <= 0.0:
            raise ValueError("stage gain underflow in cascade")
    return 10.0 * math.log10(total_f)


def relay_path_snr_db(
    first_hop_snr_db: float,
    second_hop_snr_db: float,
) -> float:
    """End-to-end SNR of an amplify-and-forward two-hop path.

    An analog repeater amplifies its input *noise* along with the
    signal, so the end-to-end SNR combines the per-hop SNRs
    harmonically (in the linear domain):
    ``1/snr = 1/snr1 + 1/snr2``.

    >>> round(relay_path_snr_db(30.0, 30.0), 2)
    26.99
    """
    s1 = 10.0 ** (first_hop_snr_db / 10.0)
    s2 = 10.0 ** (second_hop_snr_db / 10.0)
    if s1 <= 0.0 or s2 <= 0.0:
        return -math.inf
    combined = 1.0 / (1.0 / s1 + 1.0 / s2)
    return 10.0 * math.log10(combined)
