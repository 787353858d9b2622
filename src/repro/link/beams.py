"""Beam codebooks and beam-search algorithms.

The paper's Opt-NLOS baseline "tries every combination of beam angle
for both transmitter and receiver antennas, with 1 degree increments"
(section 3).  This module provides that exhaustive joint sweep, the
one-sided sweep pose-assisted tracking refines with, and the cost
model (number of probes, search latency) used by the ablation
benchmarks.  Every sweep takes one batched metric that evaluates its
whole probe grid in a single call.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Tuple

import numpy as np

from repro.utils.validation import require_positive

#: Time to retune the analog phase shifters and take one power
#: measurement.  Phase shifters settle in sub-microseconds (the paper,
#: section 6); the measurement (preamble detection + RSSI) dominates at a
#: few microseconds per probe.
DEFAULT_PROBE_TIME_S = 5e-6


@dataclass(frozen=True)
class Codebook:
    """A discrete set of steering angles."""

    angles_deg: Tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.angles_deg:
            raise ValueError("codebook must contain at least one angle")

    def __len__(self) -> int:
        return len(self.angles_deg)

    def __iter__(self):
        return iter(self.angles_deg)

    @classmethod
    def uniform(cls, start_deg: float, stop_deg: float, step_deg: float) -> "Codebook":
        """Uniformly spaced angles from ``start``, none past ``stop``.

        ``stop`` itself is included (up to float rounding) when the
        step divides the span.

        >>> len(Codebook.uniform(40.0, 140.0, 1.0))
        101
        """
        require_positive(step_deg, "step_deg")
        if stop_deg < start_deg:
            raise ValueError("stop_deg must be >= start_deg")
        # Floor, so no entry passes ``stop``; the tolerance keeps the
        # endpoint of spans that are float multiples of the step.
        count = math.floor((stop_deg - start_deg) / step_deg + 1e-9) + 1
        return cls(tuple(start_deg + i * step_deg for i in range(count)))

    def nearest(self, angle_deg: float) -> float:
        """The codebook entry closest to ``angle_deg``."""
        return min(self.angles_deg, key=lambda a: abs(a - angle_deg))


@dataclass(frozen=True)
class SweepResult:
    """Outcome of a joint two-sided beam search."""

    best_tx_deg: float
    best_rx_deg: float
    best_metric: float
    num_probes: int

    def search_time_s(self, probe_time_s: float = DEFAULT_PROBE_TIME_S) -> float:
        """Wall-clock search latency under the probe cost model."""
        return self.num_probes * probe_time_s


#: Batched metric: called once with broadcastable (tx, rx) angle grids,
#: returns the metric for every pair.  NaN entries (e.g. an unstable
#: reflector probe) are unusable.
SweepMetric = Callable[[np.ndarray, np.ndarray], np.ndarray]


def _best_usable(values: np.ndarray) -> Tuple[int, float]:
    """Flat index and value of the best usable entry of a metric grid.

    NaN counts as ``-inf``; ties go to the first entry in row-major
    order, the order a sequential protocol probes them in.  When
    nothing is usable the first entry wins with ``-inf``.
    """
    usable = np.where(np.isnan(values), -np.inf, values)
    index = int(np.argmax(usable))
    return index, float(usable.flat[index])


def exhaustive_joint_sweep(
    tx_codebook: Codebook,
    rx_codebook: Codebook,
    metric: SweepMetric,
) -> SweepResult:
    """Try every (tx, rx) angle pair; return the argmax of the metric.

    ``metric(tx_deg, rx_deg)`` receives the ``(T, 1)`` and ``(1, R)``
    codebook grids and returns the ``(T, R)`` metric — typically a
    measured SNR or, during MoVR's angle search, the reflected sideband
    power at the AP.  The probe count (the *hardware* cost the search
    models) is the grid size.
    """
    tx = np.asarray(tx_codebook.angles_deg, dtype=float)
    rx = np.asarray(rx_codebook.angles_deg, dtype=float)
    values = np.asarray(metric(tx[:, None], rx[None, :]), dtype=float)
    values = np.broadcast_to(values, (len(tx), len(rx)))
    index, best_value = _best_usable(values)
    i, j = np.unravel_index(index, values.shape)
    return SweepResult(
        best_tx_deg=float(tx[i]),
        best_rx_deg=float(rx[j]),
        best_metric=best_value,
        num_probes=values.size,
    )


def single_sided_sweep(
    codebook: Codebook,
    metric: Callable[[np.ndarray], np.ndarray],
) -> Tuple[float, float, int]:
    """Sweep one beam with the other held fixed.

    ``metric`` receives the codebook as one angle vector and returns a
    value per angle.  Returns ``(best_angle, best_metric, num_probes)``
    — the primitive used by pose-assisted tracking, which only needs to
    refine one side.
    """
    angles = np.asarray(codebook.angles_deg, dtype=float)
    values = np.broadcast_to(np.asarray(metric(angles), dtype=float), angles.shape)
    index, best_value = _best_usable(values)
    return float(angles[index]), best_value, int(angles.size)
