"""Phased-array antenna model.

MoVR's antennas are phased arrays of patch elements with analog phase
shifters (Hittite HMC-933 in the prototype): small enough to be "half
the size of a credit card" yet directional enough for a ~10-degree beam
(section 5.1 of the paper).  The model here is a uniform linear array (ULA)
with an ideal patch element pattern and optionally-quantized phase
shifters; its array factor supplies both the in-beam gain used in the
link budget and the sidelobe structure that drives the reflector's
TX-to-RX leakage (Fig. 7).

Angle conventions: azimuths in degrees in the scene frame.  An array
has a ``boresight_deg`` (mechanical mounting direction) and a steering
angle; steering is limited to +/-``max_scan_deg`` around boresight, as
real phased arrays cannot scan to endfire without severe gain loss.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from repro import telemetry
from repro.utils.units import (
    MOVR_CARRIER_HZ,
    angle_difference_deg,
    angle_difference_deg_batch,
    deg_to_rad,
    wavelength,
)
from repro.utils.validation import require_int, require_positive


@dataclass(frozen=True)
class PhasedArrayConfig:
    """Physical parameters of a phased array.

    ``num_elements`` elements at ``spacing_wavelengths`` pitch; each
    element contributes ``element_gain_dbi`` of its own.  A 16-element
    half-wavelength ULA gives roughly a 10-degree 3 dB beamwidth (the paper's
    figure) in our convention (beamwidth ~ 102 deg / N at broadside for
    a uniform ULA measured in sin-space, somewhat wider off broadside).
    ``phase_shifter_bits`` of 0 means ideal (continuous) phase control.
    """

    num_elements: int = 16
    spacing_wavelengths: float = 0.5
    element_gain_dbi: float = 5.0
    carrier_hz: float = MOVR_CARRIER_HZ
    phase_shifter_bits: int = 0
    max_scan_deg: float = 60.0
    num_panels: int = 1

    def __post_init__(self) -> None:
        require_int(self.num_elements, "num_elements", minimum=1)
        require_positive(self.spacing_wavelengths, "spacing_wavelengths")
        require_positive(self.carrier_hz, "carrier_hz")
        if self.phase_shifter_bits < 0:
            raise ValueError("phase_shifter_bits must be >= 0")
        require_positive(self.max_scan_deg, "max_scan_deg")
        require_int(self.num_panels, "num_panels", minimum=1)

    @property
    def wavelength_m(self) -> float:
        return wavelength(self.carrier_hz)

    @property
    def boresight_gain_dbi(self) -> float:
        """Peak gain when steered to broadside: array gain + element gain."""
        return 10.0 * math.log10(self.num_elements) + self.element_gain_dbi

    @property
    def beamwidth_deg(self) -> float:
        """Approximate 3 dB beamwidth at broadside for a uniform ULA."""
        return 101.8 / (self.num_elements * self.spacing_wavelengths * 2.0)

    @property
    def pattern_key(self) -> Tuple[int, float, float]:
        """The fields the gain pattern reads.

        Scan range, phase quantization, carrier and panel count shape
        steering, not the pattern, so two arrays whose keys are equal
        differ in gain only by their boresight and steering, and one
        kernel call can evaluate both (:func:`panel_gains_dbi`).
        """
        return (self.num_elements, self.spacing_wavelengths, self.element_gain_dbi)


#: The MoVR prototype array: ~17 dBi peak gain, ~6.4 degree beamwidth —
#: consistent with the paper's "~10 degrees" including steering loss.
MOVR_ARRAY = PhasedArrayConfig()

#: Wider-beam, lower-gain array for ablations.
SMALL_ARRAY = PhasedArrayConfig(num_elements=8)


class PhasedArray:
    """A steerable phased array mounted at a fixed orientation.

    The array computes its realized gain toward an arbitrary azimuth
    given the current electronic steering angle.  Steering is
    instantaneous at the simulation's time scale (the paper: analog
    phase shifters reconfigure in sub-microseconds).
    """

    def __init__(
        self,
        config: PhasedArrayConfig = MOVR_ARRAY,
        boresight_deg: float = 0.0,
    ) -> None:
        self.config = config
        self.boresight_deg = float(boresight_deg)
        self._steer_deg = 0.0  # relative to boresight

    # -- steering ------------------------------------------------------

    @property
    def steering_deg(self) -> float:
        """Current steering angle in the *scene* frame (absolute azimuth)."""
        return self.boresight_deg + self._steer_deg

    def steer_to(self, azimuth_deg: float) -> float:
        """Steer the beam toward an absolute azimuth.

        The commanded angle is clipped to the scan range and quantized
        to the phase-shifter resolution; the *achieved* absolute
        azimuth is returned.
        """
        relative = angle_difference_deg(azimuth_deg, self.boresight_deg)
        relative = max(-self.config.max_scan_deg, min(self.config.max_scan_deg, relative))
        self._steer_deg = self._quantize(relative)
        return self.steering_deg

    def can_steer_to(self, azimuth_deg: float) -> bool:
        """True iff the azimuth is inside the scan range."""
        relative = angle_difference_deg(azimuth_deg, self.boresight_deg)
        return abs(relative) <= self.config.max_scan_deg

    def _quantize(self, relative_deg: float) -> float:
        bits = self.config.phase_shifter_bits
        if bits == 0:
            return relative_deg
        # Quantizing element phases quantizes the steer angle in
        # sin-space with 2^bits levels across the scan range.
        levels = 2 ** bits
        span = math.sin(deg_to_rad(self.config.max_scan_deg))
        s = math.sin(deg_to_rad(relative_deg))
        step = 2.0 * span / levels
        s_q = round(s / step) * step
        s_q = max(-span, min(span, s_q))
        return math.degrees(math.asin(s_q))

    def steer_to_batch(self, azimuth_deg: np.ndarray, boresight_deg=None) -> np.ndarray:
        """Achieved absolute steering for a whole batch of commands.

        The vectorized counterpart of :meth:`steer_to` — scan-range
        clipping and phase quantization included — except the array's
        own state is left untouched: sweeps probe candidate steerings
        without committing to one.  ``boresight_deg`` mounts each
        command's array at its own boresight (default: this array's),
        as for :meth:`gain_dbi_batch`.
        """
        boresight = self.boresight_deg if boresight_deg is None else boresight_deg
        relative = angle_difference_deg_batch(azimuth_deg, boresight)
        # The scalar wrap's edge: a difference that rounds to +180 is -180.
        relative = np.where(relative == 180.0, -180.0, relative)
        relative = np.clip(relative, -self.config.max_scan_deg, self.config.max_scan_deg)
        if self.config.phase_shifter_bits:
            # The scalar quantizer per command: its sines are math's.
            quantized = map(self._quantize, relative.ravel().tolist())
            relative = np.fromiter(quantized, dtype=float, count=relative.size).reshape(
                relative.shape
            )
        return boresight + relative

    def panel_for(self, steer_deg: float) -> "PhasedArray":
        """The panel that serves a beam steered at ``steer_deg``: a
        single array is its own one panel."""
        return self

    # -- gain pattern ---------------------------------------------------

    def gain_dbi(self, toward_deg: float, steer_override_deg: Optional[float] = None) -> float:
        """Realized gain (dBi) toward an absolute azimuth.

        Combines the array factor (steered to the current or overridden
        angle) with the element pattern.  Angles behind the array plane
        (> 90 degrees off boresight) fall to the backlobe floor.
        """
        steer_abs = self.steering_deg if steer_override_deg is None else steer_override_deg
        theta = angle_difference_deg(toward_deg, self.boresight_deg)
        steer = angle_difference_deg(steer_abs, self.boresight_deg)
        return float(self._gain_dbi(theta, steer))

    def gain_dbi_batch(self, toward_deg, steer_deg, boresight_deg=None) -> np.ndarray:
        """Realized gain (dBi) over whole grids of angles in one call.

        ``toward_deg`` and ``steer_deg`` are absolute azimuths (scene
        frame) and may be any broadcastable mix of scalars and arrays:
        sweep targets at a fixed steering, sweep steerings at a fixed
        target, or both at once.  It shares its kernel with the scalar
        :meth:`gain_dbi`, so the two agree exactly.

        ``boresight_deg`` (default: this array's) mounts each element
        at its own boresight: the gain pattern reads only the
        configuration, so arrays or panels sharing one
        :attr:`~PhasedArrayConfig.pattern_key` are one call, each
        element equal to its own array's.  It must broadcast into the
        (toward, steer) grid without widening it.
        """
        ndim, theta, steer = self._relative(toward_deg, steer_deg, boresight_deg)
        return _shaped(self._gain_dbi(theta, steer), ndim)

    def _relative(self, toward_deg, steer_deg, boresight_deg):
        """``(ndim, theta, steer)``: target and steering relative to the
        mounting boresight (default: this array's), through
        :func:`_one_pair`."""
        if boresight_deg is None:
            boresight_deg = self.boresight_deg
        ndim, toward, steer, boresight = _one_pair(toward_deg, steer_deg, boresight_deg)
        return (
            ndim,
            angle_difference_deg_batch(toward, boresight),
            angle_difference_deg_batch(steer, boresight),
        )

    def _pattern_db(self, theta_deg, steer_deg) -> Tuple[np.ndarray, np.ndarray]:
        """Array factor and element pattern (dB) over broadcast angle grids.

        ``theta_deg``/``steer_deg`` are *relative to boresight*.  The
        array factor is the normalized ULA ``20*log10(|AF|/N)`` over the
        per-element phase mismatch ``psi``, with the removable
        singularity at ``psi = 0`` (main-lobe peak) handled explicitly.
        The element pattern is a patch's cos^1.2 falloff relative to its
        peak, floored at -72 dB.  Targets behind the array are evaluated
        at +/-90 degrees.  This is the one antenna kernel: each call is
        one ``kernel.batches``.
        """
        cfg = self.config
        n = cfg.num_elements
        theta = np.minimum(np.maximum(theta_deg, -90.0), 90.0)
        sin_steer = np.sin(np.radians(np.asarray(steer_deg, dtype=float)))
        psi = 2.0 * np.pi * cfg.spacing_wavelengths * (np.sin(np.radians(theta)) - sin_steer)
        telemetry.inc("kernel.batches")
        telemetry.inc("kernel.angles", psi.size)
        peak = np.abs(psi) < 1e-12
        safe = np.where(peak, 1.0, psi)
        af = np.abs(np.sin(n * safe / 2.0) / (n * np.sin(safe / 2.0)))
        af_db = 20.0 * np.log10(np.maximum(np.where(peak, 1.0, af), 1e-9))
        cos_t = np.cos(np.radians(np.abs(theta)))
        return af_db, 12.0 * np.log10(np.maximum(cos_t, 1e-6))

    def _gain_dbi(self, theta_deg, steer_deg) -> np.ndarray:
        """Realized gain over boresight-relative grids.

        Floored at the backlobe level.  Behind the array the element
        pattern sits at its -72 dB floor, 42 dB under the backlobe
        floor, so every such target gets exactly the floor.
        """
        af_db, element_db = self._pattern_db(theta_deg, steer_deg)
        cfg = self.config
        gain = (
            10.0 * math.log10(cfg.num_elements) + af_db + (cfg.element_gain_dbi + element_db)
        )
        return np.maximum(gain, self.backlobe_level_dbi())

    def relative_pattern_db(
        self,
        toward_deg: float,
        steer_deg: float,
        floor_db: float = -40.0,
    ) -> float:
        """Pattern level relative to peak gain, with a custom floor.

        Unlike :meth:`gain_dbi` (whose floor models the realized
        backlobe including scattering off the platform), this exposes
        the raw array-factor sidelobe structure down to ``floor_db`` —
        needed by the reflector leakage model, where deep sidelobe
        nulls are observable.
        """
        return float(self.relative_pattern_db_batch(toward_deg, steer_deg, floor_db))

    def relative_pattern_db_batch(
        self,
        toward_deg,
        steer_deg,
        floor_db: float = -40.0,
        boresight_deg=None,
    ) -> np.ndarray:
        """Vectorized :meth:`relative_pattern_db` over broadcast grids,
        with per-element boresights as in :meth:`gain_dbi_batch`."""
        ndim, theta, steer = self._relative(toward_deg, steer_deg, boresight_deg)
        af_db, element_db = self._pattern_db(theta, steer)
        return _shaped(np.maximum(floor_db, af_db + element_db), ndim)

    def backlobe_level_dbi(self) -> float:
        """Gain floor behind/beside the array.

        Patch arrays on a ground plane typically show 25-35 dB
        front-to-back ratio; we use 30 dB below peak.
        """
        return self.config.boresight_gain_dbi - 30.0

    def pattern(self, steer_deg: float, resolution_deg: float = 1.0) -> np.ndarray:
        """Full 360-degree gain cut at the given steering angle.

        Returns an array of shape (num_angles, 2): absolute azimuth and
        gain in dBi.  Useful for plotting and for the leakage model's
        calibration tests.
        """
        azimuths = np.arange(-180.0, 180.0, resolution_deg) + self.boresight_deg
        gains = self.gain_dbi_batch(azimuths, steer_deg)
        return np.stack([azimuths, gains], axis=1)


def _one_pair(toward_deg, steer_deg, boresight_deg):
    """``(ndim, toward, steer, boresight)``: one angle pair comes back as
    three floats with the broadcast rank of the inputs, anything else as
    arrays with rank 0.

    Arithmetic on scalars gives the values NumPy gives on arrays, about
    twice as fast as on one-element arrays.  A per-element
    ``boresight_deg`` that would widen the (toward, steer) grid is
    refused: the kernel evaluates, and ``kernel.angles`` counts,
    exactly that grid.
    """
    toward = np.asarray(toward_deg, dtype=float)
    steer = np.asarray(steer_deg, dtype=float)
    if not isinstance(boresight_deg, float):
        boresight_deg = np.asarray(boresight_deg, dtype=float)
        grid = np.broadcast(toward, steer).shape
        if np.broadcast(toward, steer, boresight_deg).shape != grid:
            raise ValueError(
                f"boresight_deg of shape {boresight_deg.shape} widens the "
                f"{grid} grid of toward_deg and steer_deg"
            )
    if toward.size == 1 and steer.size == 1:
        if isinstance(boresight_deg, float):
            boresight_deg = float(boresight_deg)
        else:
            boresight_deg = boresight_deg.item()
        return max(toward.ndim, steer.ndim), toward.item(), steer.item(), boresight_deg
    return 0, toward, steer, boresight_deg


def _shaped(values, ndim: int):
    """``values`` as an array of ``ndim`` axes of length one, unless
    ``ndim`` is 0."""
    return np.array(values, ndmin=ndim) if ndim else values


def panel_gains_dbi(panels, toward_deg, steer_deg, counts=None) -> np.ndarray:
    """Realized gain (dBi) of many arrays at once, one kernel call per
    pattern.

    ``panels[i]`` is a :class:`PhasedArray` (for a multi-panel array,
    the panel :meth:`MultiPanelArray.panel_for` picks) steered at
    ``steer_deg[i]``; it is evaluated toward the next ``counts[i]``
    entries of the flat ``toward_deg`` (one each by default), and the
    gains come back in that order.  Arrays whose configurations share a
    :attr:`~PhasedArrayConfig.pattern_key` differ only by boresight, so
    each distinct key is one :meth:`PhasedArray.gain_dbi_batch` call
    with per-element boresights, and every value equals its own array's
    ``gain_dbi_batch``.
    """
    toward = np.asarray(toward_deg, dtype=float)
    steer = np.asarray(steer_deg, dtype=float)
    boresight = np.array([panel.boresight_deg for panel in panels])
    # Each panel's group is the index of the first panel with its key.
    leaders: Dict[tuple, int] = {}
    group_of = np.array(
        [leaders.setdefault(p.config.pattern_key, i) for i, p in enumerate(panels)]
    )
    if counts is not None:
        steer, boresight, group_of = (
            steer.repeat(counts), boresight.repeat(counts), group_of.repeat(counts)
        )
    gains = np.empty(toward.shape)
    for leader in leaders.values():
        sel = group_of == leader if len(leaders) > 1 else slice(None)
        gains[sel] = panels[leader].gain_dbi_batch(
            toward[sel], steer[sel], boresight_deg=boresight[sel]
        )
    return gains


class MultiPanelArray:
    """Several phased-array panels facing different directions.

    Headset receivers combine panels around the faceplate so a beam is
    available toward any azimuth (panel switching plus per-panel
    steering).  ``boresight_deg`` is the mounting orientation of panel
    0; the remaining panels are spaced uniformly around the circle.
    Steering selects the panel whose boresight is closest to the
    target, so with ``num_panels >= 180 / max_scan_deg`` coverage is
    seamless.

    The interface mirrors :class:`PhasedArray` so radios can hold
    either.
    """

    def __init__(
        self,
        config: PhasedArrayConfig,
        boresight_deg: float = 0.0,
    ) -> None:
        if config.num_panels < 2:
            raise ValueError("MultiPanelArray needs num_panels >= 2")
        self.config = config
        self._panel_offsets = [
            i * 360.0 / config.num_panels for i in range(config.num_panels)
        ]
        self._boresight_deg = float(boresight_deg)
        self._panels = [
            PhasedArray(config, boresight_deg=self._boresight_deg + off)
            for off in self._panel_offsets
        ]
        self._active = 0

    # -- orientation ------------------------------------------------------

    @property
    def boresight_deg(self) -> float:
        return self._boresight_deg

    @boresight_deg.setter
    def boresight_deg(self, value: float) -> None:
        """Rotate the whole assembly (head rotation)."""
        self._boresight_deg = float(value)
        for panel, offset in zip(self._panels, self._panel_offsets):
            steer = panel.steering_deg
            panel.boresight_deg = self._boresight_deg + offset
            if panel.can_steer_to(steer):
                panel.steer_to(steer)
            else:
                panel.steer_to(panel.boresight_deg)

    # -- steering ----------------------------------------------------------

    def _best_panel_for(self, azimuth_deg: float) -> int:
        """Index of the panel whose boresight is closest to an azimuth,
        the first of equally close ones."""
        best, best_offset = 0, math.inf
        for i, panel in enumerate(self._panels):
            # |angle_difference_deg(azimuth, boresight)|, inline: its
            # -180 for a wrapped 180 does not change the magnitude.
            offset = abs((azimuth_deg - panel.boresight_deg + 180.0) % 360.0 - 180.0)
            if offset < best_offset:
                best, best_offset = i, offset
        return best

    @property
    def steering_deg(self) -> float:
        return self._panels[self._active].steering_deg

    def steer_to(self, azimuth_deg: float) -> float:
        self._active = self._best_panel_for(azimuth_deg)
        return self._panels[self._active].steer_to(azimuth_deg)

    def can_steer_to(self, azimuth_deg: float) -> bool:
        panel = self._panels[self._best_panel_for(azimuth_deg)]
        return panel.can_steer_to(azimuth_deg)

    # -- gain ---------------------------------------------------------------

    def gain_dbi(self, toward_deg: float, steer_override_deg: Optional[float] = None) -> float:
        """Realized gain toward an azimuth.

        With a steering override, the panel that *would* serve that
        steering direction is evaluated (matching how panel selection
        follows the commanded beam).
        """
        if steer_override_deg is None:
            return self._panels[self._active].gain_dbi(toward_deg)
        panel = self.panel_for(steer_override_deg)
        return panel.gain_dbi(toward_deg, steer_override_deg=steer_override_deg)

    def panel_for(self, steer_deg: float) -> PhasedArray:
        """The panel that serves a beam steered at ``steer_deg``: the one
        whose boresight is closest to it."""
        return self._panels[self._best_panel_for(steer_deg)]

    def _serving_boresights(self, steer_deg: np.ndarray) -> np.ndarray:
        """Boresight of the serving panel of each steering (vectorized
        :meth:`panel_for`)."""
        boresights = np.array([p.boresight_deg for p in self._panels])
        offsets = np.abs(
            angle_difference_deg_batch(
                np.asarray(steer_deg, dtype=float)[..., None], boresights
            )
        )
        return boresights[np.argmin(offsets, axis=-1)]

    def gain_dbi_batch(self, toward_deg, steer_deg) -> np.ndarray:
        """Vectorized gain with per-steering panel selection.

        Mirrors :meth:`gain_dbi` with a steering override: each steering
        angle is served by the panel closest to it, and that panel's
        pattern is evaluated toward the (broadcast) targets.  The panels
        share one configuration, so the whole grid is one kernel call
        with each steering's panel boresight.
        """
        steer = np.asarray(steer_deg, dtype=float)
        return self._panels[0].gain_dbi_batch(
            toward_deg, steer, boresight_deg=self._serving_boresights(steer)
        )

    def steer_to_batch(self, azimuth_deg: np.ndarray) -> np.ndarray:
        """Achieved steering per command, with panel selection.

        State-free like :meth:`PhasedArray.steer_to_batch`.
        """
        azimuth = np.asarray(azimuth_deg, dtype=float)
        return self._panels[0].steer_to_batch(
            azimuth, boresight_deg=self._serving_boresights(azimuth)
        )

    def backlobe_level_dbi(self) -> float:
        return self._panels[0].backlobe_level_dbi()


@dataclass(frozen=True)
class OmniAntenna:
    """An isotropic (0 dBi) antenna — the WiFi baseline's antenna."""

    gain_dbi_value: float = 0.0

    def gain_dbi(self, toward_deg: float, steer_override_deg: Optional[float] = None) -> float:
        return self.gain_dbi_value

    def gain_dbi_batch(self, toward_deg, steer_deg) -> np.ndarray:
        return np.full(np.broadcast(
            np.asarray(toward_deg, dtype=float), np.asarray(steer_deg, dtype=float)
        ).shape, self.gain_dbi_value)

    def steer_to(self, azimuth_deg: float) -> float:
        return azimuth_deg

    def steer_to_batch(self, azimuth_deg: np.ndarray) -> np.ndarray:
        return np.asarray(azimuth_deg, dtype=float)

    def can_steer_to(self, azimuth_deg: float) -> bool:
        return True
