"""Blockage attenuation: absorption through obstacles plus diffraction.

At 24 GHz and above, the human body is effectively opaque: tissue
absorption is several dB per centimeter, so any energy that reaches the
receiver past a hand or head arrives by *diffracting around* the
obstacle.  The attenuation of a blocked path is therefore the parallel
combination of

* a **through** component — absorption over the chord the path cuts
  inside the obstacle, and
* an **around** component — single knife-edge diffraction loss, which
  depends on how deeply the path is shadowed *and* on the distances to
  the obstacle (an obstacle close to an endpoint subtends a larger
  angle and blocks more — this is why a small hand at 25 cm costs as
  much as a whole person at 2.5 m, matching Fig. 3 of the paper).

Calibration against the paper's measurements (section 3):
hand >= 14 dB, head ~ 20 dB, walking person ~ 18-22 dB.

The model evaluates a whole obstruction table at once
(:meth:`BlockageModel.path_blockages_db`), in the rounding of the
scalar formulas it states.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from repro.geometry.raytrace import Obstruction, ObstructionTable
from repro.utils import exactmath
from repro.utils.units import MOVR_CARRIER_HZ, wavelength
from repro.utils.validation import require_non_negative, require_positive


#: Cuts on one leg within this distance (meters) of the previous one
#: along the leg shadow it as one occluder.
MERGE_DISTANCE_M = 0.5


@dataclass(frozen=True)
class BlockageModel:
    """Converts :class:`Obstruction` records into attenuation in dB.

    ``absorption_db_per_m`` is the through-tissue absorption rate
    (human muscle at 24 GHz: hundreds of dB/m; the default 400 dB/m
    makes anything thicker than ~5 cm dominated by diffraction, which
    is physically right).  ``max_blockage_db`` caps the total loss —
    multipath scattering in a furnished room leaks a floor of energy
    around any single obstacle.
    """

    carrier_hz: float = MOVR_CARRIER_HZ
    absorption_db_per_m: float = 400.0
    max_blockage_db: float = 28.0

    def __post_init__(self) -> None:
        require_positive(self.carrier_hz, "carrier_hz")
        require_non_negative(self.absorption_db_per_m, "absorption_db_per_m")
        require_positive(self.max_blockage_db, "max_blockage_db")

    # ------------------------------------------------------------------

    def knife_edge_loss_db(
        self,
        shadow_depth_m: float,
        dist_to_a_m: float,
        dist_to_b_m: float,
    ) -> float:
        """Single knife-edge diffraction loss (ITU-R P.526 approximation).

        ``shadow_depth_m`` is how far the edge extends past the direct
        ray (positive = blocked, negative = clear).  ``dist_to_a_m`` /
        ``dist_to_b_m`` are distances from the edge to each endpoint.

        Uses the standard approximation
        ``J(v) = 6.9 + 20 log10(sqrt((v-0.1)^2 + 1) + v - 0.1)`` for
        ``v > -0.78`` and 0 otherwise.  The one-edge form of
        :meth:`knife_edge_losses_db`.
        """
        return float(
            self.knife_edge_losses_db(
                np.array([shadow_depth_m], dtype=float),
                np.array([dist_to_a_m], dtype=float),
                np.array([dist_to_b_m], dtype=float),
            )[0]
        )

    def knife_edge_losses_db(
        self, shadow_depth_m: np.ndarray, dist_to_a_m: np.ndarray, dist_to_b_m: np.ndarray
    ) -> np.ndarray:
        """:meth:`knife_edge_loss_db` of every edge at once."""
        d1 = np.maximum(dist_to_a_m, 1e-3)
        d2 = np.maximum(dist_to_b_m, 1e-3)
        lam = wavelength(self.carrier_hz)
        v = shadow_depth_m * np.sqrt(2.0 * (d1 + d2) / (lam * d1 * d2))
        loss = np.zeros_like(v)
        shadowed = ~(v <= -0.78)
        w = v[shadowed]
        edge = np.sqrt(exactmath.square(w - 0.1) + 1.0) + w - 0.1
        loss[shadowed] = 6.9 + 20.0 * exactmath.log10(edge)
        return loss

    def path_blockage_db(self, obstructions: Sequence[Obstruction]) -> float:
        """Total blockage attenuation for one path's obstruction list:
        the one-path form of :meth:`path_blockages_db`."""
        table = ObstructionTable.of_records([(0, o) for o in obstructions])
        return float(self.path_blockages_db(table, 1)[0])

    def path_blockages_db(self, cuts: ObstructionTable, num_paths: int) -> np.ndarray:
        """Total blockage attenuation of each of ``num_paths`` paths,
        from their obstruction table.

        Each cut loses the stronger of diffraction around the occluder
        and absorption through it, combined incoherently and capped at
        ``max_blockage_db``.  Cuts that overlap on the same leg (e.g.
        the torso and head circles of one person) shadow the path as a
        *union*: sorted by distance along the leg, a cut more than
        0.5 m past the previous one starts a new cluster, and only each
        cluster's strongest cut counts.  Spatially separate obstacles (a
        hand near the headset plus a person mid-room) attenuate
        independently: a path's cluster maxima add, legs in order of
        their first cut and clusters along the leg, summed left to right
        (:func:`~repro.utils.exactmath.left_sum`).  Total loss is capped
        at ``2 * max_blockage_db``.
        """
        totals = np.zeros(num_paths)
        if not len(cuts.path):
            return totals
        loss = self._cut_losses_db(cuts)
        # Order: path, leg by first appearance, along the leg, then row
        # (the sort is stable).  A traced table lists each path's legs in
        # ascending order, so there the (path, leg) key itself ranks the
        # legs by first appearance; otherwise the row of each leg's first
        # cut does.
        group = cuts.path * (int(cuts.leg.max()) + 1) + cuts.leg
        if (group[1:] < group[:-1]).any():
            _, first, inverse = np.unique(group, return_index=True, return_inverse=True)
            group = first[inverse]
        order = np.lexsort((cuts.along, group, cuts.path))
        group, along = group[order], cuts.along[order]
        starts = np.flatnonzero(
            np.concatenate(
                ([True], (group[1:] != group[:-1]) | (along[1:] - along[:-1] > MERGE_DISTANCE_M))
            )
        )
        maxima = np.maximum.reduceat(loss[order], starts).tolist()
        path = cuts.path[order][starts]
        edges = np.flatnonzero(np.concatenate(([True], path[1:] != path[:-1]))).tolist()
        bounds = zip(edges, edges[1:] + [len(maxima)])
        totals[path[edges]] = [exactmath.left_sum(maxima[lo:hi]) for lo, hi in bounds]
        return _capped(totals, 2.0 * self.max_blockage_db)

    def _cut_losses_db(self, cuts: ObstructionTable) -> np.ndarray:
        """Each cut's attenuation: diffraction around and absorption
        through, combined incoherently, capped at ``max_blockage_db``."""
        depth = cuts.depth
        if not (np.isfinite(depth) & (depth >= 0.0)).all():
            raise ValueError("obstruction depths must be finite and non-negative")
        around = self.knife_edge_losses_db(
            -cuts.clearance, cuts.along, cuts.leg_length - cuts.along
        )
        through = self.absorption_db_per_m * depth
        # -db_sum_powers([-around, -through]): linear powers add, and a
        # dark total is infinitely lossy.
        total = exactmath.exp10(-around / 10.0) + exactmath.exp10(-through / 10.0)
        combined = np.full_like(total, np.inf)
        lit = ~(total <= 0.0)
        combined[lit] = -(10.0 * exactmath.log10(total[lit]))
        return _capped(combined, self.max_blockage_db)


def _capped(values: np.ndarray, cap: float) -> np.ndarray:
    """Elementwise ``min(cap, value)``, Python's choice included."""
    return np.where(values < cap, values, cap)


#: Shared default instance used throughout the library.
DEFAULT_BLOCKAGE_MODEL = BlockageModel()
