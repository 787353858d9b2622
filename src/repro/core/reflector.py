"""The MoVR programmable mmWave reflector (section 4, Figs. 4-6 of the paper).

A reflector is two phased arrays joined by a variable-gain amplifier —
no transmit or receive basebands.  It captures the AP's signal on its
receive array, amplifies it, and re-radiates it from its transmit
array toward the headset, with both beam angles independently
programmable (unlike a mirror, incidence need not equal reflection).

The class models the complete analog signal path, including the
positive feedback loop through the TX-to-RX leakage: closed-loop gain
peaking as the loop approaches instability, output saturation, and the
supply-current signature that MoVR's gain controller senses.

Two angle conventions coexist:

* **scene azimuths** — absolute directions in the room frame, used by
  the controller to aim at the AP/headset;
* **prototype angles** — degrees in [40, 140] with 90 = broadside,
  used by the leakage model and matching the paper's Figs. 7/8.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from repro.core.leakage import (
    BROADSIDE_DEG,
    MAX_ANGLE_DEG,
    MIN_ANGLE_DEG,
    ReflectorLeakageModel,
)
from repro.geometry.vectors import Vec2, bearing_deg
from repro.phy.amplifier import (
    MOVR_AMPLIFIER,
    AmplifierSpec,
    VariableGainAmplifier,
    feedback_peaking_db,
    loop_is_stable,
)
from repro.phy.antenna import PhasedArray, PhasedArrayConfig
from repro.phy.noise import ReceiverNoise
from repro.utils import exactmath
from repro.utils.units import (
    IEEE80211AD_BANDWIDTH_HZ,
    angle_difference_deg,
    angle_difference_deg_batch,
)
from repro.utils.validation import (
    require_all_finite,
    require_finite,
    require_same_length,
)

#: The reflector arrays scan +/-50 degrees, i.e. prototype angles 40-140
#: (the sweep range of Figs. 7 and 8 of the paper).
REFLECTOR_SCAN_DEG = (MAX_ANGLE_DEG - MIN_ANGLE_DEG) / 2.0

#: Array configuration for the reflector boards.
REFLECTOR_ARRAY = PhasedArrayConfig(max_scan_deg=REFLECTOR_SCAN_DEG)


@dataclass(frozen=True)
class ReflectorState:
    """A snapshot of a reflector's control state."""

    rx_azimuth_deg: float
    tx_azimuth_deg: float
    gain_db: float
    modulation_on: bool


class MoVRReflector:
    """One wall-mounted MoVR reflector.

    ``boresight_deg`` is the outward wall-normal direction of the
    mounting position; both arrays share it.
    """

    def __init__(
        self,
        position: Vec2,
        boresight_deg: float,
        array: PhasedArrayConfig = REFLECTOR_ARRAY,
        amplifier: AmplifierSpec = MOVR_AMPLIFIER,
        leakage: Optional[ReflectorLeakageModel] = None,
        name: str = "movr",
    ) -> None:
        self.position = position
        self.boresight_deg = float(boresight_deg)
        self.name = name
        self.rx_array = PhasedArray(array, boresight_deg=self.boresight_deg)
        self.tx_array = PhasedArray(array, boresight_deg=self.boresight_deg)
        self.amplifier = VariableGainAmplifier(amplifier)
        self.leakage_model = (
            leakage if leakage is not None else ReflectorLeakageModel(array=array)
        )
        # The amplifier's front-end noise (what an amplify-and-forward
        # relay adds to the signal it forwards).
        self.front_end_noise = ReceiverNoise(
            bandwidth_hz=IEEE80211AD_BANDWIDTH_HZ,
            noise_figure_db=amplifier.noise_figure_db,
        )
        self.modulation_on = False

    # -- angle conventions ------------------------------------------------

    def azimuth_to_prototype(self, azimuth_deg: float) -> float:
        """Scene azimuth -> prototype angle (90 = broadside), clipped."""
        relative = angle_difference_deg(azimuth_deg, self.boresight_deg)
        proto = BROADSIDE_DEG + relative
        return min(MAX_ANGLE_DEG, max(MIN_ANGLE_DEG, proto))

    def azimuth_to_prototype_batch(self, azimuth_deg) -> np.ndarray:
        """Vectorized :meth:`azimuth_to_prototype`."""
        relative = angle_difference_deg_batch(azimuth_deg, self.boresight_deg)
        return np.clip(BROADSIDE_DEG + relative, MIN_ANGLE_DEG, MAX_ANGLE_DEG)

    def prototype_to_azimuth(self, proto_deg: float) -> float:
        """Prototype angle -> scene azimuth."""
        return self.boresight_deg + (proto_deg - BROADSIDE_DEG)

    # -- beam control -------------------------------------------------------

    def set_beams(self, rx_azimuth_deg: float, tx_azimuth_deg: float) -> Tuple[float, float]:
        """Steer receive and transmit beams to scene azimuths.

        Returns the achieved azimuths (after scan clipping).
        """
        achieved_rx = self.rx_array.steer_to(rx_azimuth_deg)
        achieved_tx = self.tx_array.steer_to(tx_azimuth_deg)
        return achieved_rx, achieved_tx

    def bearings_to(self, rx_target: Vec2, tx_target: Vec2) -> Tuple[float, float]:
        """Scene azimuths from the reflector to its receive and transmit
        targets: what :meth:`point_at` steers to and :meth:`can_serve`
        checks."""
        return bearing_deg(self.position, rx_target), bearing_deg(self.position, tx_target)

    def point_at(self, rx_target: Vec2, tx_target: Vec2) -> Tuple[float, float]:
        """Aim the receive beam at one point and the transmit beam at
        another (AP and headset, respectively)."""
        return self.set_beams(*self.bearings_to(rx_target, tx_target))

    @property
    def rx_azimuth_deg(self) -> float:
        return self.rx_array.steering_deg

    @property
    def tx_azimuth_deg(self) -> float:
        return self.tx_array.steering_deg

    def can_serve(self, rx_target: Vec2, tx_target: Vec2) -> bool:
        """Are both targets within the arrays' scan range?"""
        return self.can_steer(*self.bearings_to(rx_target, tx_target))

    def can_steer(self, rx_azimuth_deg: float, tx_azimuth_deg: float) -> bool:
        """Are both scene azimuths within the arrays' scan range?"""
        return self.rx_array.can_steer_to(rx_azimuth_deg) and self.tx_array.can_steer_to(
            tx_azimuth_deg
        )

    def state(self) -> ReflectorState:
        return ReflectorState(
            rx_azimuth_deg=self.rx_azimuth_deg,
            tx_azimuth_deg=self.tx_azimuth_deg,
            gain_db=self.amplifier.gain_db,
            modulation_on=self.modulation_on,
        )

    # -- feedback loop ------------------------------------------------------
    #
    # One method per analog-chain quantity, each with one signature:
    # the input power at the RX array port where the quantity depends on
    # it, then ``leakage_db`` and ``gain_db``.  ``None`` means the current
    # beams' leakage (one leakage-model read, two kernel calls) and the
    # amplifier's own gain; an explicit value is checked finite on entry
    # and nowhere below.  Each call applies the loop's stability
    # criterion exactly once.  :meth:`current_draw_ma` also takes an
    # array of gains (gain calibration's whole ramp): one criterion over
    # the array, the chain over its stable gains, the scalar formulas'
    # rounding at each.

    def leakage_db(self) -> float:
        """TX->RX coupling at the current beam angles (negative dB).

        Each call evaluates the leakage model (two antenna-kernel
        calls).  Callers that ask many questions at fixed beams (gain
        calibration, the oracle gain) read it once and pass it as
        ``leakage_db``; the relay pass and fleet calibration read many
        beam states at once through :func:`leakages_db_many`.
        """
        return self.leakage_model.leakage_db(
            self.azimuth_to_prototype(self.tx_azimuth_deg),
            self.azimuth_to_prototype(self.rx_azimuth_deg),
        )

    def _loop(self, leakage_db, gain_db):
        """The loop's ``(leakage_db, gain_db, stable)``: the one stability
        decision of an evaluation (one per gain of a gain array)."""
        if leakage_db is None:
            leakage_db = self.leakage_db()
        else:
            require_finite(leakage_db, "leakage_db")
        if gain_db is None:
            gain_db = self.amplifier.gain_db
        elif isinstance(gain_db, np.ndarray):
            require_all_finite(gain_db.tolist(), "gain_db")
        else:
            require_finite(gain_db, "gain_db")
        return leakage_db, gain_db, loop_is_stable(gain_db, leakage_db)

    def is_stable(self, leakage_db=None, gain_db=None) -> bool:
        """Is the feedback loop stable at this gain and coupling?"""
        return self._loop(leakage_db, gain_db)[2]

    def effective_gain_db(self, leakage_db=None, gain_db=None) -> Optional[float]:
        """Closed-loop amplifier gain including feedback peaking.

        ``None`` when the loop is unstable (the amplifier would emit
        garbage, not an amplified copy of the input).
        """
        leakage_db, gain_db, stable = self._loop(leakage_db, gain_db)
        if not stable:
            return None
        return gain_db + feedback_peaking_db(gain_db, leakage_db)

    def _output_dbm(self, input_power_dbm: float, effective_db):
        """Amplifier output at closed-loop gain ``effective_db`` (a float
        or an array): the signal and the amplifier's own front-end
        noise, both peaked by the loop (near instability the
        recirculating noise alone drives the amplifier into compression
        — the current signature the gain controller detects), their
        powers summed as the list form of :func:`db_sum_powers` sums two
        finite powers, then soft-capped at the saturation power."""
        xm = exactmath.ops(effective_db)
        signal = xm.exp10((input_power_dbm + effective_db) / 10.0)
        noise = xm.exp10((self.front_end_noise.noise_floor_dbm + effective_db) / 10.0)
        return self.amplifier.output_power_dbm(
            10.0 * xm.log10(signal + noise), gain_db=0.0
        )

    def output_power_dbm(self, input_power_dbm: float, leakage_db=None, gain_db=None) -> float:
        """Amplifier output power for a given power at the RX array port.
        An oscillating loop pins the output at saturation."""
        require_finite(input_power_dbm, "input_power_dbm")
        effective = self.effective_gain_db(leakage_db, gain_db)
        if effective is None:
            return self.amplifier.spec.psat_dbm
        return self._output_dbm(input_power_dbm, effective)

    def is_saturated_at(self, input_power_dbm: float, leakage_db=None, gain_db=None) -> bool:
        """Is the amplifier compressing (or oscillating) at this input?

        True when the loop is unstable, or when the closed-loop output
        has been driven past the 1 dB compression point — either way
        the forwarded waveform is distorted and unusable for 802.11ad
        modulation.
        """
        require_finite(input_power_dbm, "input_power_dbm")
        effective = self.effective_gain_db(leakage_db, gain_db)
        return (
            effective is None
            or self._output_dbm(input_power_dbm, effective)
            > self.amplifier.spec.output_p1db_dbm
        )

    def current_draw_ma(self, input_power_dbm: float, leakage_db=None, gain_db=None):
        """DC supply current at this operating point: what gain
        calibration senses, evaluated over its whole ramp at the
        installed beams without setting the gain.  An array of gains
        gives an array of currents; an oscillating loop draws the
        saturation current."""
        require_finite(input_power_dbm, "input_power_dbm")
        leakage_db, gain_db, stable = self._loop(leakage_db, gain_db)
        saturation_ma = self.amplifier.spec.saturation_current_ma
        if isinstance(stable, np.ndarray):
            currents = np.full(stable.shape, saturation_ma)
            currents[stable] = self._stable_current_ma(
                input_power_dbm, leakage_db, gain_db[stable]
            )
            return currents
        if not stable:
            return saturation_ma
        return self._stable_current_ma(input_power_dbm, leakage_db, gain_db)

    def _stable_current_ma(self, input_power_dbm: float, leakage_db: float, gain_db):
        """The current at stable gains (a float or an array)."""
        effective = gain_db + feedback_peaking_db(gain_db, leakage_db)
        return self.amplifier.current_draw_ma(self._output_dbm(input_power_dbm, effective))

    # -- relay gain (for the link budget) ------------------------------------

    def through_gain_db(
        self,
        from_azimuth_deg: float,
        to_azimuth_deg: float,
    ) -> Optional[float]:
        """End-to-end power gain of the reflector between two directions
        at the current beams: the one-probe case of
        :meth:`through_gain_db_batch`.  ``None`` when the loop is
        unstable.
        """
        through = float(self.through_gain_db_batch(from_azimuth_deg, to_azimuth_deg))
        return None if math.isnan(through) else through

    def through_gain_db_batch(
        self,
        from_azimuth_deg,
        to_azimuth_deg,
        rx_steer_azimuth_deg=None,
        tx_steer_azimuth_deg=None,
    ) -> np.ndarray:
        """End-to-end power gain of the reflector over broadcast grids of
        directions and trial beam settings.

        RX-array gain toward the incoming signal, plus the closed-loop
        amplifier gain, plus TX-array gain toward the outgoing
        direction.  ``rx_steer_azimuth_deg``/``tx_steer_azimuth_deg``
        are commanded steerings, clipped and quantized as
        :meth:`set_beams` would, but the beams do not move (a sweep
        probes candidate steerings without committing to one); ``None``
        is the current beam.  Entries whose leakage would make the loop
        unstable come back as ``NaN`` — callers decide what an
        oscillating probe is worth.  Each entry is what one probe with
        those beams gives, bit for bit: the leakage is one
        :meth:`ReflectorLeakageModel.leakage_db_pairs` call over the
        broadcast beam pairs, the peaking :func:`feedback_peaking_db`
        over the stable ones.
        """
        achieved_rx = (
            self.rx_array.steering_deg
            if rx_steer_azimuth_deg is None
            else self.rx_array.steer_to_batch(rx_steer_azimuth_deg)
        )
        achieved_tx = (
            self.tx_array.steering_deg
            if tx_steer_azimuth_deg is None
            else self.tx_array.steer_to_batch(tx_steer_azimuth_deg)
        )
        rx_gain = self.rx_array.gain_dbi_batch(from_azimuth_deg, steer_deg=achieved_rx)
        tx_gain = self.tx_array.gain_dbi_batch(to_azimuth_deg, steer_deg=achieved_tx)
        tx_proto, rx_proto = np.broadcast_arrays(
            self.azimuth_to_prototype_batch(achieved_tx),
            self.azimuth_to_prototype_batch(achieved_rx),
        )
        leakage = np.reshape(
            self.leakage_model.leakage_db_pairs(
                tx_proto.ravel().tolist(), rx_proto.ravel().tolist()
            ),
            tx_proto.shape,
        )
        gain = self.amplifier.gain_db
        stable = loop_is_stable(gain, leakage)
        effective = np.full(leakage.shape, np.nan)
        effective[stable] = gain + feedback_peaking_db(gain, leakage[stable])
        return rx_gain + effective + tx_gain

    def __repr__(self) -> str:
        return (
            f"MoVRReflector({self.name!r}, pos=({self.position.x:.2f}, "
            f"{self.position.y:.2f}), boresight={self.boresight_deg:.1f} deg, "
            f"gain={self.amplifier.gain_db:.1f} dB)"
        )


def leakages_db_many(
    reflectors: Sequence[MoVRReflector],
    steerings: Sequence[Tuple[float, float]],
) -> List[float]:
    """The TX->RX coupling (negative dB) of ``reflectors[i]`` with its
    beams at the (receive, transmit) scene azimuths ``steerings[i]``:
    what :meth:`MoVRReflector.leakage_db` gives with the beams set
    there.  A reflector may appear any number of times.

    A pure function of the beam states: no beam moves and no memo is
    read or written.  Pairs whose leakage models are equal are one
    :meth:`ReflectorLeakageModel.leakage_db_pairs` call (two kernel
    calls): equal models give equal values, pair by pair.
    """
    require_same_length(reflectors, steerings, "reflectors", "steerings")
    # Per group: its model, its pairs' indices, TX and RX prototype angles.
    groups: List[Tuple[ReflectorLeakageModel, List[int], List[float], List[float]]] = []
    for k, (reflector, (rx_azimuth, tx_azimuth)) in enumerate(
        zip(reflectors, steerings)
    ):
        model = reflector.leakage_model
        group = next((g for g in groups if g[0] is model or g[0] == model), None)
        if group is None:
            group = (model, [], [], [])
            groups.append(group)
        group[1].append(k)
        group[2].append(reflector.azimuth_to_prototype(tx_azimuth))
        group[3].append(reflector.azimuth_to_prototype(rx_azimuth))
    out = [0.0] * len(reflectors)
    for model, members, tx_angles, rx_angles in groups:
        for k, value in zip(members, model.leakage_db_pairs(tx_angles, rx_angles)):
            out[k] = value
    return out
