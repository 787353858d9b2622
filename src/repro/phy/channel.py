"""mmWave channel model: path loss, reflections, blockage, fading.

The channel converts geometric propagation paths into path *gains* in
dB (always negative) in two parts:

* the **unshadowed gain** (:meth:`MmWaveChannel.unshadowed_gains_db`):
  free-space spreading loss over the traveled distance, atmospheric
  absorption, per-bounce reflection loss, wall penetration and
  blockage attenuation from the obstruction table, one array formula
  over a whole :class:`~repro.geometry.raytrace.PathSet`;
* an optional log-normal **shadowing** term
  (:meth:`MmWaveChannel.shadowed_db`), drawn afresh on every query,
  one draw per path in path order, which models the run-to-run spread
  visible in the paper's measurements.

Link columns
------------

Every link evaluation reads a path list's **link columns**
(:meth:`MmWaveChannel.link_columns`): one read-only ``(3, P)`` array
of each path's departure azimuth, arrival azimuth and unshadowed gain.
The unshadowed gain is a pure function of the paths, the carrier and
the blockage model, so the columns are a memo on the list's
:class:`~repro.geometry.raytrace.PathSet` (``PathSet.of``), keyed by
``(carrier_hz, blockage_model)``:

* a traced list (a scene cache's, a copy of it, the one-path list of
  a LOS hop) reads its traced set's columns, built on first use and
  rebuilt when the channel's carrier or blockage model changes; they
  live as long as the set, that is, as long as any of its paths;
* any other list (a caller's candidates, a slice) is gathered into a
  set of its own, and its columns go with it;
* :meth:`MmWaveChannel.link_columns_many` builds the sets that lack
  columns with one :meth:`~MmWaveChannel.unshadowed_gains_db` call over
  their joined set (``PathSet.concat``), so a tick's new scenes cost
  one formula; a set listed twice is built once.  Traced sets are
  still pending then: joining them computes their per-path arrays and
  obstruction tables in one pass (``PathSet.resolve``), whose joined
  arrays and table the formula reads as they are.

:meth:`MmWaveChannel.path_gains_db` adds one shadowing draw per path to
the columns' gains; :meth:`MmWaveChannel.path_gain_db` is its one-path
form.  Shadowing is never part of the memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.geometry.raytrace import PathSet, PropagationPath
from repro.phy.blockage import BlockageModel
from repro.utils import exactmath
from repro.utils.rng import make_rng
from repro.utils.units import MOVR_CARRIER_HZ, wavelength
from repro.utils.validation import require_non_negative, require_positive


def free_space_path_loss_db(distance_m: float, carrier_hz: float) -> float:
    """Friis free-space path loss in dB.

    >>> round(free_space_path_loss_db(1.0, 24.0e9), 1)   # ~60 dB at 1 m
    60.1
    """
    require_positive(carrier_hz, "carrier_hz")
    if distance_m <= 0.0:
        raise ValueError(f"distance must be positive, got {distance_m}")
    return float(_free_space_db(np.array([distance_m], dtype=float), carrier_hz)[0])


def _free_space_db(distance_m: np.ndarray, carrier_hz: float) -> np.ndarray:
    """:func:`free_space_path_loss_db` of every (positive) distance."""
    return 20.0 * exactmath.log10(4.0 * math.pi * distance_m / wavelength(carrier_hz))


def atmospheric_loss_db(distance_m: float, carrier_hz: float) -> float:
    """Gaseous absorption over the path.

    Negligible indoors at 24 GHz (~0.1 dB/km) but significant at the
    60 GHz oxygen line (~15 dB/km); modeled so the library remains
    correct if configured for 802.11ad's 60 GHz band.
    """
    require_non_negative(distance_m, "distance_m")
    return float(_atmospheric_db(np.array([distance_m], dtype=float), carrier_hz)[0])


def _atmospheric_db(distance_m: np.ndarray, carrier_hz: float) -> np.ndarray:
    """:func:`atmospheric_loss_db` of every distance."""
    ghz = carrier_hz / 1e9
    if ghz < 45.0:
        db_per_km = 0.1
    elif ghz < 70.0:
        # Crude triangular model of the 60 GHz oxygen absorption peak.
        db_per_km = 15.0 * max(0.0, 1.0 - abs(ghz - 60.0) / 15.0) + 0.5
    else:
        db_per_km = 0.5
    return db_per_km * distance_m / 1000.0


@dataclass
class MmWaveChannel:
    """End-to-end channel gain calculator for one carrier frequency.

    ``shadowing_sigma_db`` adds i.i.d. log-normal variation per query
    (0 disables it; experiments that need per-*run* rather than
    per-query variation should sample their own offsets).
    """

    carrier_hz: float = MOVR_CARRIER_HZ
    blockage_model: BlockageModel = field(default_factory=BlockageModel)
    shadowing_sigma_db: float = 0.0
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        require_positive(self.carrier_hz, "carrier_hz")
        require_non_negative(self.shadowing_sigma_db, "shadowing_sigma_db")
        if self.blockage_model.carrier_hz != self.carrier_hz:
            # Keep the diffraction model on the same carrier.
            self.blockage_model = BlockageModel(
                carrier_hz=self.carrier_hz,
                absorption_db_per_m=self.blockage_model.absorption_db_per_m,
                max_blockage_db=self.blockage_model.max_blockage_db,
            )
        if self.rng is None:
            self.rng = make_rng(None)

    @property
    def wavelength_m(self) -> float:
        return wavelength(self.carrier_hz)

    def unshadowed_gains_db(self, path_set: PathSet) -> np.ndarray:
        """Deterministic channel gain (negative dB) along every path of
        a set.

        Spreading loss over the *total* path length (each reflection
        leg adds distance — the reason NLOS paths are weak even off
        good reflectors), gaseous absorption, per-bounce reflection
        loss, wall penetration and blockage: everything but shadowing.
        It depends only on the paths, the carrier and the blockage
        model, which is what lets :meth:`link_columns_many` keep it on
        the path set.  Each term is subtracted in that order, path by path.
        """
        length = path_set.length  # traced lengths are positive and finite
        gain = -_free_space_db(length, self.carrier_hz)
        gain -= _atmospheric_db(length, self.carrier_hz)
        gain -= path_set.reflection_db
        gain -= path_set.penetration_db
        if len(path_set.cuts.path):
            gain -= self.blockage_model.path_blockages_db(path_set.cuts, len(path_set))
        return gain

    def shadowed_db(self, unshadowed_db: np.ndarray) -> np.ndarray:
        """Add one shadowing draw per entry of ``unshadowed_db``, in order.

        One vector draw takes the same values from ``rng``, and leaves
        it in the same state, as one scalar draw per entry.  Without
        shadowing the input comes back as it is.
        """
        if self.shadowing_sigma_db > 0.0:
            return unshadowed_db + self.rng.normal(
                0.0, self.shadowing_sigma_db, size=np.shape(unshadowed_db)
            )
        return unshadowed_db

    def link_columns(self, paths: Sequence[PropagationPath]) -> np.ndarray:
        """The read-only ``(3, P)`` link columns of ``paths``: departure
        azimuths, arrival azimuths and unshadowed gains, one column per
        path.  The one-list case of :meth:`link_columns_many`.

        >>> from repro.geometry.raytrace import RayTracer
        >>> from repro.geometry.room import rectangular_room
        >>> from repro.geometry.vectors import Vec2
        >>> tracer = RayTracer(rectangular_room(5.0, 5.0))
        >>> paths = tracer.all_paths(Vec2(1.0, 1.0), Vec2(1.0, 4.0))
        >>> columns = MmWaveChannel().link_columns(paths)
        >>> columns.shape == (3, len(paths))
        True
        >>> float(columns[0, 0]), float(columns[1, 0])  # the LOS: north, back south
        (90.0, -90.0)
        """
        return self.link_columns_many((paths,))[0]

    def link_columns_many(
        self, path_lists: Sequence[Sequence[PropagationPath]]
    ) -> List[np.ndarray]:
        """:meth:`link_columns` of each list in ``path_lists``, read from
        the memo on each list's :class:`PathSet`.

        The sets lacking columns under this carrier and blockage model
        get them from one :meth:`unshadowed_gains_db` call over their
        joined set, each keeping its own slice of one read-only array;
        the pending among them are resolved in one pass as they are
        joined (:meth:`PathSet.concat`).
        """
        key = (self.carrier_hz, self.blockage_model)
        sets = [PathSet.of(paths) for paths in path_lists]
        # Each set lacking columns once, in first-seen order.
        lacking: Dict[int, PathSet] = {}
        for path_set in sets:
            memo = path_set.columns_memo
            if memo is None or memo[0] != key:
                lacking[id(path_set)] = path_set
        if lacking:
            built = list(lacking.values())
            joined = PathSet.concat(built)
            columns = np.empty((3, len(joined)))
            columns[0], columns[1] = joined.departure, joined.arrival
            columns[2] = self.unshadowed_gains_db(joined)
            columns.flags.writeable = False
            start = 0
            for path_set in built:
                stop = start + len(path_set)
                path_set.columns_memo = (key, columns[:, start:stop])
                start = stop
        return [path_set.columns_memo[1] for path_set in sets]

    def path_gains_db(self, paths: Sequence[PropagationPath]) -> np.ndarray:
        """Channel gain (negative dB) per path: the link columns' gains,
        shadowing drawn in path order.  Without shadowing this is the
        read-only gain row of the columns."""
        return self.shadowed_db(self.link_columns(paths)[2])

    def path_gain_db(self, path: PropagationPath) -> float:
        """Channel gain (negative dB) along one path: the unshadowed
        gain plus one shadowing draw."""
        return float(self.path_gains_db((path,))[0])

    def complex_gain(self, path: PropagationPath) -> complex:
        """Complex baseband channel coefficient for the path.

        Magnitude from :meth:`path_gain_db`; phase from the carrier
        cycle count over the path length (deterministic, so coherent
        multi-path combining is physically consistent).
        """
        gain_db = self.path_gain_db(path)
        amplitude = 10.0 ** (gain_db / 20.0)
        phase = -2.0 * math.pi * (path.total_length_m / self.wavelength_m)
        return amplitude * complex(math.cos(phase), math.sin(phase))
