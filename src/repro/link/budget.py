"""Link-budget engine: from geometry and steering to received SNR.

Combines a TX :class:`Radio`, an RX :class:`Radio`, a channel model and
a set of :class:`PropagationPath` objects into received power and SNR.
When several paths arrive inside the receive beam they are combined
incoherently (beamformed mmWave links are dominated by a single path,
and glitch-scale analysis does not track sub-wavelength phase).

Two evaluation surfaces are offered:

* scalar :meth:`LinkBudget.measure` for single steering pairs, and
* batched :meth:`LinkBudget.sweep` / :meth:`LinkBudget.sweep_pairs`,
  which trace the scene once (through a :class:`SceneCache`) and
  evaluate whole steering grids with the vectorized antenna kernels.

The scalar path is a thin wrapper over the batched one, so sweeps and
single measurements agree bit-for-bit.
"""

from __future__ import annotations

import math
import time
from itertools import accumulate
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.geometry.raytrace import PropagationPath, RayTracer
from repro.geometry.room import Occluder
from repro.link.radios import Radio
from repro.phy.antenna import panel_gains_dbi
from repro.phy.channel import MmWaveChannel
from repro import telemetry
from repro.sim.cache import SceneCache
from repro.utils.db import db_sum_powers, linear_to_db
from repro.utils.validation import require_same_length


@dataclass(frozen=True)
class LinkMeasurement:
    """Result of one link-budget evaluation.

    An outage (no decodable energy at all) is represented structurally:
    ``in_outage`` is True, ``dominant_path`` is None, and the power and
    SNR fields are ``-inf``.  Callers should branch on ``in_outage``
    rather than comparing floats against infinity.
    """

    received_power_dbm: float
    snr_db: float
    dominant_path: Optional[PropagationPath]
    tx_steer_deg: float
    rx_steer_deg: float

    @property
    def in_outage(self) -> bool:
        """No decodable energy at all."""
        return self.received_power_dbm == -math.inf

    @classmethod
    def outage(cls, tx_steer_deg: float, rx_steer_deg: float) -> "LinkMeasurement":
        """The canonical dead-link measurement at a steering pair."""
        return cls(
            received_power_dbm=-math.inf,
            snr_db=-math.inf,
            dominant_path=None,
            tx_steer_deg=tx_steer_deg,
            rx_steer_deg=rx_steer_deg,
        )

    @classmethod
    def of_total(
        cls,
        total_dbm: float,
        noise_floor_dbm: float,
        dominant_path: PropagationPath,
        tx_steer_deg: float,
        rx_steer_deg: float,
    ) -> "LinkMeasurement":
        """The measurement of ``total_dbm`` received over a noise floor:
        an outage when it is ``-inf``, else SNR ``total_dbm -
        noise_floor_dbm`` with ``dominant_path``."""
        if total_dbm == -math.inf:
            return cls.outage(tx_steer_deg, rx_steer_deg)
        return cls(
            received_power_dbm=total_dbm,
            snr_db=total_dbm - noise_floor_dbm,
            dominant_path=dominant_path,
            tx_steer_deg=tx_steer_deg,
            rx_steer_deg=rx_steer_deg,
        )


class LinkBudget:
    """Evaluates links inside one room/channel context.

    Scene geometry is queried through the budget's own
    :class:`SceneCache` over ``tracer``, so repeated evaluations at
    fixed endpoints re-trace nothing.
    """

    def __init__(self, tracer: RayTracer, channel: MmWaveChannel) -> None:
        self.tracer = tracer
        self.channel = channel
        self.cache = SceneCache(tracer)

    # ------------------------------------------------------------------

    def path_rx_power_dbm(
        self,
        tx: Radio,
        rx: Radio,
        path: PropagationPath,
        tx_steer_deg: Optional[float] = None,
        rx_steer_deg: Optional[float] = None,
    ) -> float:
        """Received power over one path with given (or current) steering."""
        tx_gain = tx.array.gain_dbi(path.departure_angle_deg, steer_override_deg=tx_steer_deg)
        rx_gain = rx.array.gain_dbi(path.arrival_angle_deg, steer_override_deg=rx_steer_deg)
        gain = self.channel.path_gain_db(path)
        return (
            tx.config.tx_power_dbm
            + tx_gain
            + rx_gain
            + gain
            - tx.config.implementation_loss_db
        )

    # -- batched evaluation ---------------------------------------------

    def path_powers_dbm(
        self,
        tx: Radio,
        rx: Radio,
        paths: Sequence[PropagationPath],
        tx_steer_deg,
        rx_steer_deg,
    ) -> np.ndarray:
        """Per-path received power over broadcast steering grids.

        Returns shape ``(P,) + broadcast(tx_steer, rx_steer).shape``;
        ``axis=0`` holds the paths.  Angles and unshadowed channel gains
        come from the paths' link columns
        (:meth:`MmWaveChannel.link_columns`); shadowing is drawn per
        call, one draw per path.  Each side's antenna kernel evaluates
        every path and steering in one call, with the paths on a new
        leading axis.
        """
        tx_steer = np.asarray(tx_steer_deg, dtype=float)
        rx_steer = np.asarray(rx_steer_deg, dtype=float)
        shape = np.broadcast(tx_steer, rx_steer).shape
        # Paths along axis 0, broadcasting against every steering axis.
        per_path = (len(paths),) + (1,) * len(shape)
        departures, arrivals, unshadowed = self.channel.link_columns(paths)
        channel = self.channel.shadowed_db(unshadowed).reshape(per_path)
        const = tx.config.tx_power_dbm - tx.config.implementation_loss_db
        tx_gain = tx.array.gain_dbi_batch(departures.reshape(per_path), tx_steer)
        rx_gain = rx.array.gain_dbi_batch(arrivals.reshape(per_path), rx_steer)
        return const + channel + tx_gain + rx_gain

    def hop_columns_many(
        self, hops: Sequence[PropagationPath]
    ) -> Tuple[List[float], List[float], List[float]]:
        """Departure azimuths, arrival azimuths and channel gains (dB) of
        traced hops, read from their link columns.

        Each hop is what :meth:`SceneCache.line_of_sight` returned, the
        one path of its traced set, so a hop read again costs one
        shadowing draw; the hops lacking columns get them from one array
        formula (:meth:`MmWaveChannel.link_columns_many`).
        Shadowing is one draw per hop, in hop order.  A gain is what
        :meth:`MmWaveChannel.path_gain_db` would give.
        """
        columns = self.channel.link_columns_many([(hop,) for hop in hops])
        joined = np.concatenate(columns, axis=1)
        departures, arrivals = joined[:2].tolist()
        return departures, arrivals, self.channel.shadowed_db(joined[2]).tolist()

    def sweep(
        self,
        tx: Radio,
        rx: Radio,
        tx_steer_deg,
        rx_steer_deg,
        extra_occluders: Sequence[Occluder] = (),
        max_bounces: int = 2,
        paths: Optional[Sequence[PropagationPath]] = None,
    ) -> np.ndarray:
        """Total received power (dBm) over the steering outer product.

        ``tx_steer_deg`` (length T) and ``rx_steer_deg`` (length R) are
        absolute steering azimuths; the result has shape ``(T, R)``.
        The scene is traced once (via the cache) and every path/angle
        combination is evaluated with the batched antenna kernels —
        this is the engine behind exhaustive beam searches and the
        Fig. 8 joint sweeps.
        """
        tx_angles = np.atleast_1d(np.asarray(tx_steer_deg, dtype=float))
        rx_angles = np.atleast_1d(np.asarray(rx_steer_deg, dtype=float))
        return self.sweep_pairs(
            tx,
            rx,
            tx_angles[:, None],
            rx_angles[None, :],
            extra_occluders=extra_occluders,
            max_bounces=max_bounces,
            paths=paths,
        )

    def sweep_pairs(
        self,
        tx: Radio,
        rx: Radio,
        tx_steer_deg,
        rx_steer_deg,
        extra_occluders: Sequence[Occluder] = (),
        max_bounces: int = 2,
        paths: Optional[Sequence[PropagationPath]] = None,
    ) -> np.ndarray:
        """Total received power (dBm) over broadcast steering pairs.

        Element-wise companion to :meth:`sweep`: the steering inputs
        broadcast against each other (pass equal-length vectors to
        evaluate N independent pairs, or an outer-product layout to
        recover :meth:`sweep`).  Entries with no surviving energy are
        ``-inf``.
        """
        if paths is None:
            paths = self.cache.all_paths(
                tx.position,
                rx.position,
                max_bounces=max_bounces,
                extra_occluders=extra_occluders,
            )
        telemetry.inc("link.sweeps")
        started = time.perf_counter()
        shape = np.broadcast(
            np.asarray(tx_steer_deg, dtype=float), np.asarray(rx_steer_deg, dtype=float)
        ).shape
        if not paths:
            result = np.full(shape, -np.inf)
        else:
            powers = self.path_powers_dbm(tx, rx, paths, tx_steer_deg, rx_steer_deg)
            result = np.asarray(db_sum_powers(powers, axis=0))
        telemetry.observe(
            "link.sweep_ms", (time.perf_counter() - started) * 1000.0
        )
        return result

    # -- scalar evaluation ----------------------------------------------

    def measure(
        self,
        tx: Radio,
        rx: Radio,
        tx_steer_deg: float,
        rx_steer_deg: float,
        extra_occluders: Sequence[Occluder] = (),
        max_bounces: int = 2,
    ) -> LinkMeasurement:
        """Total received power/SNR with explicit steering angles.

        All paths (LOS plus reflections, each attenuated by its own
        obstructions and the actual antenna gains along its departure/
        arrival angles) contribute; the strongest is reported as the
        dominant path.
        """
        paths = self.cache.all_paths(
            tx.position, rx.position, max_bounces=max_bounces, extra_occluders=extra_occluders
        )
        return self.measure_with_paths(tx, rx, paths, tx_steer_deg, rx_steer_deg)

    def measure_with_paths(
        self,
        tx: Radio,
        rx: Radio,
        paths: Sequence[PropagationPath],
        tx_steer_deg: float,
        rx_steer_deg: float,
    ) -> LinkMeasurement:
        """Like :meth:`measure` over a pre-traced path set.

        Path geometry depends only on node positions, so callers that
        sweep steering angles at fixed positions (beam searches,
        trackers) should trace once and reuse — or better, call
        :meth:`sweep` and evaluate the whole grid at once.
        """
        if not paths:
            return LinkMeasurement.outage(tx_steer_deg, rx_steer_deg)
        powers = self.path_powers_dbm(
            tx, rx, paths, float(tx_steer_deg), float(rx_steer_deg)
        )
        return LinkMeasurement.of_total(
            float(db_sum_powers(powers, axis=0)),
            rx.config.noise_floor_dbm,
            paths[int(np.argmax(powers))],
            tx_steer_deg,
            rx_steer_deg,
        )

    def measure_aligned(
        self,
        tx: Radio,
        rx: Radio,
        extra_occluders: Sequence[Occluder] = (),
    ) -> LinkMeasurement:
        """Measure with both beams steered onto the LOS path: the
        one-receiver case of :meth:`measure_aligned_many`."""
        return self.measure_aligned_many(tx, (rx,), (extra_occluders,))[0]

    def measure_aligned_many(
        self,
        tx: Radio,
        rxs: Sequence[Radio],
        occluder_lists: Sequence[Sequence[Occluder]],
    ) -> List[LinkMeasurement]:
        """:meth:`measure_aligned` from one transmitter to each receiver,
        ``rxs[i]`` among ``occluder_lists[i]``, as one array pass.

        One scene lookup per receiver, in order, serves both the
        steering and the sum: the LOS that steers the beams is the first
        path of the set, and its angles are the set's first link
        columns.  Sets lacking columns get them from one array formula.
        ``tx`` and then each receiver steer onto their LOS in receiver
        order (scan-range clipping and phase quantization included, so
        an unreachable path shows up as low gain), which leaves ``tx``
        steered at the last receiver.  Every path's
        transmit and receive gains are one :func:`panel_gains_dbi` call
        (one antenna-kernel call per array pattern), each side on the
        panel that serves its steering.  Shadowing is one draw per path
        in receiver and path order.
        """
        require_same_length(rxs, occluder_lists, "rxs", "occluder_lists")
        if not rxs:
            return []
        path_lists = [
            self.cache.all_paths(tx.position, rx.position, extra_occluders=occluders)
            for rx, occluders in zip(rxs, occluder_lists)
        ]
        columns = self.channel.link_columns_many(path_lists)
        tx_steers, rx_steers, tx_panels, rx_panels = [], [], [], []
        for rx, block in zip(rxs, columns):
            departure, arrival = block[:2, 0].tolist()
            tx_steer, rx_steer = tx.steer_to(departure), rx.steer_to(arrival)
            tx_steers.append(tx_steer)
            rx_steers.append(rx_steer)
            tx_panels.append(tx.array.panel_for(tx_steer))
            rx_panels.append(rx.array.panel_for(rx_steer))
        counts = [len(paths) for paths in path_lists]
        joined = np.concatenate(columns, axis=1)
        # Departures toward the transmit panels, then arrivals toward
        # the receive panels.
        gains = panel_gains_dbi(
            tx_panels + rx_panels,
            joined[:2].ravel(),
            tx_steers + rx_steers,
            counts + counts,
        )
        n = joined.shape[1]
        const = tx.config.tx_power_dbm - tx.config.implementation_loss_db
        # Per path: const + channel + tx gain + rx gain, in that order.
        powers = const + self.channel.shadowed_db(joined[2]) + gains[:n]
        powers += gains[n:]
        bounds = [0, *accumulate(counts)]
        spans = list(zip(bounds, bounds[1:]))
        # db_sum_powers per receiver: each slice sums as its own array.
        linear = np.power(10.0, powers / 10.0)
        totals = linear_to_db(np.array([linear[a:b].sum() for a, b in spans])).tolist()
        return [
            LinkMeasurement.of_total(
                totals[i],
                rx.config.noise_floor_dbm,
                path_lists[i][int(powers[start:stop].argmax())],
                tx_steers[i],
                rx_steers[i],
            )
            for i, (rx, (start, stop)) in enumerate(zip(rxs, spans))
        ]

    def best_alignment(
        self,
        tx: Radio,
        rx: Radio,
        extra_occluders: Sequence[Occluder] = (),
        include_los: bool = True,
        max_bounces: int = 2,
        candidate_paths: Optional[Sequence[PropagationPath]] = None,
    ) -> LinkMeasurement:
        """Best SNR over all candidate path alignments.

        With ``include_los=False`` this is the paper's *Opt-NLOS*
        procedure restricted to environmental reflections — the
        exhaustive beam sweep that ignores the direct direction.
        ``candidate_paths`` restricts the alignments tried (e.g. only
        paths bouncing off a mirror panel); the received power at each
        alignment still includes every traced path's contribution.

        The scene is traced once; all candidate alignments (both beams
        steered onto each path, through the arrays' clipping and
        quantization) are evaluated in one batched pass.  Without
        ``candidate_paths`` the steering angles are the set's link
        columns (the LOS is its first path, the only one without a
        bounce).  As the
        batched stand-in for a physical joint sweep it feeds the same
        ``link.sweeps`` / ``link.sweep_ms`` metrics as :meth:`sweep`.
        """
        telemetry.inc("link.sweeps")
        started = time.perf_counter()
        all_paths = self.cache.all_paths(
            tx.position, rx.position, max_bounces=max_bounces, extra_occluders=extra_occluders
        )
        if candidate_paths is None:
            angles = self.channel.link_columns(all_paths)[:2]
            if not include_los:
                angles = angles[:, 1:]
        else:
            candidates = [
                p for p in candidate_paths if include_los or not p.is_line_of_sight
            ]
            angles = np.array(
                [
                    [p.departure_angle_deg for p in candidates],
                    [p.arrival_angle_deg for p in candidates],
                ]
            ).reshape(2, -1)
        if not angles.shape[1] or not all_paths:
            result = LinkMeasurement.outage(tx.steering_deg, rx.steering_deg)
        else:
            tx_steers = tx.array.steer_to_batch(angles[0])
            rx_steers = rx.array.steer_to_batch(angles[1])
            powers = self.path_powers_dbm(tx, rx, all_paths, tx_steers, rx_steers)
            totals = np.asarray(db_sum_powers(powers, axis=0))
            best = int(np.argmax(totals))
            result = LinkMeasurement.of_total(
                float(totals[best]),
                rx.config.noise_floor_dbm,
                all_paths[int(np.argmax(powers[:, best]))],
                float(tx_steers[best]),
                float(rx_steers[best]),
            )
        telemetry.observe(
            "link.sweep_ms", (time.perf_counter() - started) * 1000.0
        )
        return result
