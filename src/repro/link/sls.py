"""802.11ad sector-level sweep (SLS) beam training.

The standard's own beam acquisition protocol, provided as the
"what existing mmWave gear does" baseline for MoVR's search/tracking
ablations.  SLS is one-sided-at-a-time: the initiator sweeps its
sectors while the responder listens quasi-omni, then they swap — O(N+M)
probes instead of the O(N*M) joint sweep, but it measures each side
against a quasi-omni pattern, so weak links that only close with both
beams aligned (exactly the reflector-echo case) fall below the
detection floor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.link.beams import Codebook, SweepMetric, single_sided_sweep
from repro.utils.exactmath import left_sum
from repro.utils.validation import require_positive

#: An 802.11ad SSW frame takes ~15.8 us on the air (control PHY).
SSW_FRAME_TIME_S = 15.8e-6

#: Gain of the quasi-omni listening pattern relative to a focused beam.
QUASI_OMNI_PENALTY_DB = 15.0


@dataclass(frozen=True)
class SlsResult:
    """Outcome of one sector-level sweep."""

    initiator_sector_deg: float
    responder_sector_deg: float
    best_metric_db: float
    num_frames: int
    detected: bool

    def sweep_time_s(self, frame_time_s: float = SSW_FRAME_TIME_S) -> float:
        return self.num_frames * frame_time_s


def sector_level_sweep(
    initiator_codebook: Codebook,
    responder_codebook: Codebook,
    metric: SweepMetric,
    detection_floor_db: float = 0.0,
) -> SlsResult:
    """Run an SLS exchange.

    ``metric(initiator_deg, responder_deg)`` returns the link metric
    (SNR-like, dB) with both beams set; each one-sided phase evaluates
    its whole codebook in one call (NaN marks an unusable probe).
    During each phase the other side listens quasi-omni, modeled as
    the best beam of that side minus :data:`QUASI_OMNI_PENALTY_DB`.
    Probes whose quasi-omni metric falls below ``detection_floor_db``
    are missed — the initiator cannot tell that sector was good.
    """
    # Phase 1: initiator sweeps, responder quasi-omni (approximated as
    # the responder's central sector minus the omni penalty).
    responder_center = responder_codebook.nearest(
        left_sum(responder_codebook.angles_deg) / len(responder_codebook)
    )
    best_initiator, best_metric, frames1 = single_sided_sweep(
        initiator_codebook,
        lambda sectors: np.asarray(metric(sectors, responder_center))
        - QUASI_OMNI_PENALTY_DB,
    )
    detected = best_metric >= detection_floor_db
    if not detected:
        # Nothing detected: fall back to the codebook center.
        best_initiator = initiator_codebook.nearest(
            left_sum(initiator_codebook.angles_deg) / len(initiator_codebook)
        )
    # Phase 2: responder sweeps with the initiator's winner fixed.
    best_responder, best_metric2, frames2 = single_sided_sweep(
        responder_codebook, lambda sectors: metric(best_initiator, sectors)
    )
    if best_metric2 == float("-inf"):
        # Nothing usable: the responder stays on its central sector.
        best_responder = responder_center
    return SlsResult(
        initiator_sector_deg=best_initiator,
        responder_sector_deg=best_responder,
        best_metric_db=best_metric2,
        num_frames=frames1 + frames2,
        detected=detected,
    )


def sls_probe_count(initiator_sectors: int, responder_sectors: int) -> int:
    """Frames an SLS exchange costs (both phases)."""
    require_positive(initiator_sectors, "initiator_sectors")
    require_positive(responder_sectors, "responder_sectors")
    return initiator_sectors + responder_sectors
