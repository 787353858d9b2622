"""Backscatter beam-alignment protocol (section 4.1, Fig. 8 of the paper).

MoVR can neither transmit nor receive, so it cannot run standard
mmWave beam training.  Instead the AP measures for it:

1. The reflector sets *both* its beams to the same trial angle
   ``theta_1`` so whatever it captures is re-radiated back where it
   came from; the AP sets both its beams to a trial angle ``theta_2``.
2. The AP transmits a tone at ``f1`` while the reflector on/off
   modulates its amplifier at ``f2``, shifting the reflection to
   ``f1 + f2``.
3. The AP filters around ``f1 + f2``, which rejects both its own
   TX-to-RX leakage and all static environmental reflections (both
   remain at ``f1``), and records the sideband power.
4. The ``(theta_1, theta_2)`` pair maximizing the sideband power is
   the AP-to-reflector alignment.  The reflector-to-headset angle is
   found analogously with the headset measuring.

Two fidelity levels are provided and verified against each other in
the test suite:

* ``signal_level=True`` — synthesizes the actual complex-baseband
  capture (leakage line + OOK sidebands + noise) and measures band
  power with an FFT, exactly as the AP's hardware would;
* ``signal_level=False`` — draws the band-power estimate from its
  analytic distribution (non-central chi-square), hundreds of times
  faster, used for the 100-run Fig. 8 experiment and parameter sweeps.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro import telemetry
from repro.core.reflector import MoVRReflector
from repro.geometry.raytrace import RayTracer
from repro.geometry.vectors import bearing_deg
from repro.link.beams import Codebook, exhaustive_joint_sweep
from repro.link.radios import Radio
from repro.phy.channel import MmWaveChannel
from repro.phy.signals import ToneProbe, add_awgn, band_power, ook_modulate, tone
from repro.utils.rng import RngLike, make_rng
from repro.utils.units import angle_difference_deg, thermal_noise_dbm

#: Fraction of a tone's power landing in EACH first-order OOK sideband
#: for a 50% duty square-wave gate: |c1|^2 with c1 = 1/pi.
OOK_SIDEBAND_FRACTION = 1.0 / math.pi**2


def _filter_noise_dbm(probe: ToneProbe, noise_figure_db: float) -> float:
    """Noise inside the sideband measurement filter of a receiver with
    noise figure ``noise_figure_db``."""
    return thermal_noise_dbm(probe.measurement_bw_hz) + noise_figure_db


def _measured_sideband_dbm(rng: np.random.Generator, echo_dbm, noise_dbm: float):
    """Noisy band-power readings, in dBm, of the first OOK sideband of
    echoes of power ``echo_dbm`` (one probe, or a grid of them).

    Each entry is |sqrt(P_s) e^{j phi} + CN(0, P_n)|^2 — the
    non-central chi-square the FFT-bin estimator obeys — with one
    noise pair drawn per probe.
    """
    sideband_dbm = echo_dbm + 10.0 * math.log10(OOK_SIDEBAND_FRACTION)
    p_signal = 10.0 ** (sideband_dbm / 10.0)
    p_noise = 10.0 ** (noise_dbm / 10.0)
    noise = rng.normal(0.0, math.sqrt(p_noise / 2.0), (2,) + np.shape(p_signal))
    estimate = (np.sqrt(p_signal) + noise[0]) ** 2 + noise[1] ** 2
    return 10.0 * np.log10(np.maximum(estimate, 1e-30))


@dataclass(frozen=True)
class AngleSearchResult:
    """Outcome of one backscatter alignment search."""

    reflector_angle_deg: float
    ap_angle_deg: float
    peak_sideband_dbm: float
    num_probes: int
    ground_truth_reflector_deg: Optional[float] = None
    ground_truth_ap_deg: Optional[float] = None

    @property
    def reflector_error_deg(self) -> Optional[float]:
        if self.ground_truth_reflector_deg is None:
            return None
        return abs(self.reflector_angle_deg - self.ground_truth_reflector_deg)

    @property
    def ap_error_deg(self) -> Optional[float]:
        if self.ground_truth_ap_deg is None:
            return None
        return abs(angle_difference_deg(self.ap_angle_deg, self.ground_truth_ap_deg))


class BackscatterAngleSearch:
    """Runs the section 4.1 protocol between one AP and one reflector."""

    def __init__(
        self,
        ap: Radio,
        reflector: MoVRReflector,
        tracer: RayTracer,
        channel: MmWaveChannel,
        probe: ToneProbe = ToneProbe(),
        search_gain_db: float = 30.0,
        signal_level: bool = False,
        rng: RngLike = None,
    ) -> None:
        self.ap = ap
        self.reflector = reflector
        self.tracer = tracer
        self.channel = channel
        self.probe = probe
        self.search_gain_db = search_gain_db
        self.signal_level = signal_level
        self._rng = make_rng(rng)
        # Round-trip geometry is fixed for a given deployment.
        self._path = tracer.line_of_sight(ap.position, reflector.position)
        self._bearing_ap_to_refl = bearing_deg(ap.position, reflector.position)
        self._bearing_refl_to_ap = bearing_deg(reflector.position, ap.position)

    # ------------------------------------------------------------------
    # Probe physics
    # ------------------------------------------------------------------

    def round_trip_power_dbm(self, ap_steer_deg: float, reflector_proto_deg: float) -> float:
        """Received power of the AP -> reflector -> AP echo (pre-OOK),
        with the reflector's beams set where the protocol sets them: the
        one-probe case of :meth:`round_trip_power_dbm_batch`."""
        refl_azimuth = self.reflector.prototype_to_azimuth(reflector_proto_deg)
        self.reflector.set_beams(refl_azimuth, refl_azimuth)
        return float(self.round_trip_power_dbm_batch(ap_steer_deg, reflector_proto_deg))

    def round_trip_power_dbm_batch(self, ap_steer_deg, reflector_proto_deg) -> np.ndarray:
        """Received power of the AP -> reflector -> AP echo (pre-OOK)
        over broadcast grids of AP steerings and reflector trial angles.

        Both reflector beams sit at the same trial angle, so the
        captured signal is re-emitted back along the receive direction;
        both AP beams sit at ``ap_steer_deg``.  The reflector's beam
        state is not mutated; trial steerings go through the same scan
        clipping and quantization as ``set_beams`` via the state-free
        batch kernels.
        """
        self.reflector.amplifier.set_gain_db(self.search_gain_db)
        proto = np.asarray(reflector_proto_deg, dtype=float)
        refl_azimuth = self.reflector.prototype_to_azimuth(proto)
        one_way_gain = self.channel.path_gain_db(self._path)
        ap_gain = self.ap.array.gain_dbi_batch(
            self._bearing_ap_to_refl, np.asarray(ap_steer_deg, dtype=float)
        )
        through = self.reflector.through_gain_db_batch(
            self._bearing_refl_to_ap,
            self._bearing_refl_to_ap,
            rx_steer_azimuth_deg=refl_azimuth,
            tx_steer_azimuth_deg=refl_azimuth,
        )
        # NaN marks a loop unstable at the search gain: the echo is
        # garbage, modeled as saturated broadband output, which the
        # sideband filter mostly rejects — a weak echo.
        through = np.where(np.isnan(through), 0.0, through)
        return (
            self.ap.config.tx_power_dbm
            + 2.0 * ap_gain
            + 2.0 * one_way_gain
            + through
            - self.ap.config.implementation_loss_db
        )

    def _noise_in_band_dbm(self) -> float:
        """AP noise power inside the sideband measurement filter."""
        return _filter_noise_dbm(self.probe, self.ap.config.noise_figure_db)

    def measure_sideband_dbm(
        self, ap_steer_deg: float, reflector_proto_deg: float
    ) -> float:
        """One probe: sideband power at ``f1 + f2`` as the AP sees it."""
        echo_dbm = self.round_trip_power_dbm(ap_steer_deg, reflector_proto_deg)
        noise_dbm = self._noise_in_band_dbm()
        if self.signal_level:
            return self._measure_signal_level(echo_dbm, noise_dbm)
        return float(_measured_sideband_dbm(self._rng, echo_dbm, noise_dbm))

    def measure_sideband_dbm_batch(self, ap_steer_deg, reflector_proto_deg) -> np.ndarray:
        """Whole probe grids at once (analytic noise model only).

        Every entry follows the same non-central chi-square
        distribution as :meth:`measure_sideband_dbm`.
        """
        echo_dbm = self.round_trip_power_dbm_batch(ap_steer_deg, reflector_proto_deg)
        return _measured_sideband_dbm(self._rng, echo_dbm, self._noise_in_band_dbm())

    def _measure_signal_level(self, echo_dbm: float, noise_in_band_dbm: float) -> float:
        """Full DSP probe: synthesize the capture and FFT-filter it."""
        probe = self.probe
        # Reference scale: unit-power corresponds to 0 dBm.
        carrier = tone(probe.tone_hz, probe.sample_rate_hz, probe.num_samples)
        echo_amp = 10.0 ** (echo_dbm / 20.0)
        echo = ook_modulate(
            carrier * echo_amp, probe.switch_hz, probe.sample_rate_hz
        )
        # The AP's own TX->RX leakage: vastly stronger than the echo,
        # but parked at f1 where the filter ignores it.
        ap_leak_dbm = self.ap.config.tx_power_dbm - 30.0
        leak = carrier * 10.0 ** (ap_leak_dbm / 20.0)
        # Wideband noise: total power spread across the capture
        # bandwidth; the filter keeps measurement_bw/sample_rate of it.
        total_noise_dbm = noise_in_band_dbm + 10.0 * math.log10(
            probe.sample_rate_hz / probe.measurement_bw_hz
        )
        capture = add_awgn(echo + leak, 10.0 ** (total_noise_dbm / 10.0), self._rng)
        p = band_power(
            capture,
            center_hz=probe.sideband_hz,
            width_hz=probe.measurement_bw_hz,
            sample_rate_hz=probe.sample_rate_hz,
        )
        return 10.0 * math.log10(max(p, 1e-30))

    # ------------------------------------------------------------------
    # The joint search
    # ------------------------------------------------------------------

    def estimate_incidence_angle(
        self,
        reflector_step_deg: float = 1.0,
        ap_step_deg: float = 1.0,
    ) -> AngleSearchResult:
        """Sweep (theta_1, theta_2) and return the best alignment.

        The reflector codebook covers its full prototype range
        (40-140 degrees); the AP codebook covers its scan range.
        """
        refl_codebook = Codebook.uniform(40.0, 140.0, reflector_step_deg)
        scan = self.ap.config.array.max_scan_deg
        ap_codebook = Codebook.uniform(
            self.ap.boresight_deg - scan, self.ap.boresight_deg + scan, ap_step_deg
        )

        with telemetry.span(
            "angle_search.sweep", protocol="backscatter", signal_level=self.signal_level
        ) as sp:
            started = time.perf_counter()
            if self.signal_level:
                # The DSP probe synthesizes one capture at a time, in
                # the sequential protocol's order.  ``otypes`` stops
                # NumPy from spending an extra (RNG-drawing) probe to
                # infer the output type.
                metric = np.vectorize(self.measure_sideband_dbm, otypes=[float])
            else:
                metric = self.measure_sideband_dbm_batch
            sweep = exhaustive_joint_sweep(ap_codebook, refl_codebook, metric)
            sp.attrs["probes"] = sweep.num_probes
            telemetry.observe(
                "angle_search.sweep_ms", (time.perf_counter() - started) * 1000.0
            )
            telemetry.inc("angle_search.probes", sweep.num_probes)
        truth_refl = self.reflector.azimuth_to_prototype(self._bearing_refl_to_ap)
        truth_ap = self._bearing_ap_to_refl
        return AngleSearchResult(
            reflector_angle_deg=sweep.best_rx_deg,
            ap_angle_deg=sweep.best_tx_deg,
            peak_sideband_dbm=sweep.best_metric,
            num_probes=sweep.num_probes,
            ground_truth_reflector_deg=truth_refl,
            ground_truth_ap_deg=truth_ap,
        )


class ReflectionAngleSearch:
    """The analogous reflector -> headset alignment (section 4.1: "An
    analogous process can be used to estimate the direction from
    MoVR's reflector to the headset").

    The AP keeps illuminating the reflector (already aligned); the
    reflector sweeps its *transmit* beam while OOK-modulating; the
    headset sweeps its receive beam and reports sideband power.
    """

    def __init__(
        self,
        ap: Radio,
        reflector: MoVRReflector,
        headset_radio: Radio,
        tracer: RayTracer,
        channel: MmWaveChannel,
        probe: ToneProbe = ToneProbe(),
        search_gain_db: float = 30.0,
        rng: RngLike = None,
    ) -> None:
        self.ap = ap
        self.reflector = reflector
        self.headset_radio = headset_radio
        self.tracer = tracer
        self.channel = channel
        self.probe = probe
        self.search_gain_db = search_gain_db
        self._rng = make_rng(rng)
        self._feed_path = tracer.line_of_sight(ap.position, reflector.position)
        self._out_path = tracer.line_of_sight(reflector.position, headset_radio.position)
        self._bearing_refl_to_ap = bearing_deg(reflector.position, ap.position)
        self._bearing_refl_to_hs = bearing_deg(
            reflector.position, headset_radio.position
        )
        self._bearing_hs_to_refl = bearing_deg(
            headset_radio.position, reflector.position
        )

    def sideband_at_headset_dbm_batch(
        self, reflector_tx_proto_deg, headset_steer_deg
    ) -> np.ndarray:
        """Sideband power the headset measures, over broadcast grids of
        reflector TX beam and headset RX beam.

        The AP keeps its beam on the reflector and the reflector's
        receive beam stays on the AP; only the outgoing hop is swept.
        """
        self.reflector.amplifier.set_gain_db(self.search_gain_db)
        tx_azimuth = self.reflector.prototype_to_azimuth(
            np.asarray(reflector_tx_proto_deg, dtype=float)
        )
        through = self.reflector.through_gain_db_batch(
            self._bearing_refl_to_ap,
            self._bearing_refl_to_hs,
            rx_steer_azimuth_deg=self._bearing_refl_to_ap,
            tx_steer_azimuth_deg=tx_azimuth,
        )
        through = np.where(np.isnan(through), 0.0, through)
        ap_gain = self.ap.array.gain_dbi(
            bearing_deg(self.ap.position, self.reflector.position)
        )
        hs_gain = self.headset_radio.array.gain_dbi_batch(
            self._bearing_hs_to_refl, np.asarray(headset_steer_deg, dtype=float)
        )
        power_dbm = (
            self.ap.config.tx_power_dbm
            + ap_gain
            + self.channel.path_gain_db(self._feed_path)
            + through
            + self.channel.path_gain_db(self._out_path)
            + hs_gain
            - self.ap.config.implementation_loss_db
        )
        noise_dbm = _filter_noise_dbm(
            self.probe, self.headset_radio.config.noise_figure_db
        )
        return _measured_sideband_dbm(self._rng, power_dbm, noise_dbm)

    def estimate_reflection_angle(
        self,
        reflector_step_deg: float = 1.0,
        headset_step_deg: float = 2.0,
    ) -> AngleSearchResult:
        """Joint sweep of reflector TX beam and headset RX beam."""
        refl_codebook = Codebook.uniform(40.0, 140.0, reflector_step_deg)
        scan = self.headset_radio.config.array.max_scan_deg
        hs_codebook = Codebook.uniform(
            self.headset_radio.boresight_deg - scan,
            self.headset_radio.boresight_deg + scan,
            headset_step_deg,
        )

        with telemetry.span("angle_search.sweep", protocol="reflection") as sp:
            started = time.perf_counter()
            sweep = exhaustive_joint_sweep(
                hs_codebook,
                refl_codebook,
                lambda hs_deg, refl_deg: self.sideband_at_headset_dbm_batch(
                    refl_deg, hs_deg
                ),
            )
            sp.attrs["probes"] = sweep.num_probes
            telemetry.observe(
                "angle_search.sweep_ms", (time.perf_counter() - started) * 1000.0
            )
            telemetry.inc("angle_search.probes", sweep.num_probes)
        truth_refl = self.reflector.azimuth_to_prototype(self._bearing_refl_to_hs)
        return AngleSearchResult(
            reflector_angle_deg=sweep.best_rx_deg,
            ap_angle_deg=sweep.best_tx_deg,
            peak_sideband_dbm=sweep.best_metric,
            num_probes=sweep.num_probes,
            ground_truth_reflector_deg=truth_refl,
            ground_truth_ap_deg=self._bearing_hs_to_refl,
        )
