"""Unit tests for the backscatter angle-search protocol (section 4.1)."""

import math

import numpy as np
import pytest

from repro.core.angle_search import (
    OOK_SIDEBAND_FRACTION,
    BackscatterAngleSearch,
    ReflectionAngleSearch,
)
from repro.core.reflector import MoVRReflector
from repro.geometry.raytrace import RayTracer
from repro.geometry.room import standard_office
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.beams import Codebook
from repro.link.radios import DEFAULT_RADIO_CONFIG, HEADSET_RADIO_CONFIG, Radio
from repro.phy.channel import MmWaveChannel


@pytest.fixture(scope="module")
def scene():
    room = standard_office(furnished=False)
    tracer = RayTracer(room)
    channel = MmWaveChannel()
    ap = Radio(Vec2(0.3, 0.3), boresight_deg=45.0, config=DEFAULT_RADIO_CONFIG)
    return room, tracer, channel, ap


def make_search(
    scene, signal_level=False, rng=0, boresight_offset=15.0, search_gain_db=30.0
):
    room, tracer, channel, ap = scene
    position = Vec2(4.0, 4.2)
    toward_ap = bearing_deg(position, ap.position)
    reflector = MoVRReflector(position, boresight_deg=toward_ap + boresight_offset)
    return BackscatterAngleSearch(
        ap,
        reflector,
        tracer,
        channel,
        search_gain_db=search_gain_db,
        signal_level=signal_level,
        rng=rng,
    )


def sequential_search(search, reflector_step_deg, ap_step_deg):
    """The section 4.1 protocol as written: one probe at a time, AP
    angle outer, reflector angle inner; returns (ap, reflector, peak,
    probes)."""
    scan = search.ap.config.array.max_scan_deg
    ap_codebook = Codebook.uniform(
        search.ap.boresight_deg - scan, search.ap.boresight_deg + scan, ap_step_deg
    )
    best = (-math.inf, None, None)
    probes = 0
    for ap_deg in ap_codebook:
        for refl_deg in Codebook.uniform(40.0, 140.0, reflector_step_deg):
            value = search.measure_sideband_dbm(ap_deg, refl_deg)
            probes += 1
            if value > best[0]:
                best = (value, ap_deg, refl_deg)
    return best[1], best[2], best[0], probes


class TestOokFraction:
    def test_value(self):
        assert OOK_SIDEBAND_FRACTION == pytest.approx(1.0 / math.pi**2)


class TestRoundTripPower:
    def test_peaks_at_true_angles(self, scene):
        search = make_search(scene)
        truth_refl = search.reflector.azimuth_to_prototype(
            search._bearing_refl_to_ap
        )
        truth_ap = search._bearing_ap_to_refl
        peak = search.round_trip_power_dbm(truth_ap, truth_refl)
        for d_ap, d_refl in ((10.0, 0.0), (0.0, 10.0), (-15.0, 20.0)):
            off = search.round_trip_power_dbm(truth_ap + d_ap, truth_refl + d_refl)
            assert peak > off

    def test_echo_is_weak_but_measurable(self, scene):
        search = make_search(scene)
        truth_refl = search.reflector.azimuth_to_prototype(
            search._bearing_refl_to_ap
        )
        echo = search.round_trip_power_dbm(search._bearing_ap_to_refl, truth_refl)
        # Far below the AP's own TX leakage (tx_power - 30 dB)...
        assert echo < search.ap.config.tx_power_dbm - 30.0
        # ...but above the sideband filter's noise floor.
        assert echo + 10.0 * math.log10(OOK_SIDEBAND_FRACTION) > (
            search._noise_in_band_dbm() + 10.0
        )


class TestProbeGrid:
    """A probe grid is the per-probe protocol, entry for entry: one
    leakage formula, one peaking formula, the same kernels."""

    @pytest.mark.parametrize(
        "boresight_offset, search_gain_db, oscillating",
        [(15.0, 30.0, 0), (0.0, 60.0, 26), (-30.0, 59.0, 2), (25.0, 60.0, 26)],
    )
    def test_grid_equals_per_probe(
        self, scene, boresight_offset, search_gain_db, oscillating
    ):
        """At 59-60 dB the strongest leakage makes some reflector angles
        oscillate; trial angles past 40/140 clip onto the range's edges."""
        search = make_search(
            scene, boresight_offset=boresight_offset, search_gain_db=search_gain_db
        )
        scan = search.ap.config.array.max_scan_deg
        ap_deg = search.ap.boresight_deg + np.linspace(-scan, scan, 9)
        proto = np.arange(30.0, 150.5, 1.0)
        grid = search.round_trip_power_dbm_batch(ap_deg[:, None], proto[None, :])
        unstable = set()
        for i, ap_angle in enumerate(ap_deg.tolist()):
            for j, refl_angle in enumerate(proto.tolist()):
                assert grid[i, j] == search.round_trip_power_dbm(ap_angle, refl_angle)
                if not search.reflector.is_stable():
                    unstable.add(refl_angle)
        assert len(unstable) == oscillating


class TestEstimation:
    def test_reference_estimate_accurate(self, scene):
        search = make_search(scene, rng=1)
        result = search.estimate_incidence_angle(
            reflector_step_deg=2.0, ap_step_deg=3.0
        )
        assert result.reflector_error_deg <= 2.0

    def test_fast_estimate_accurate(self, scene):
        """The analytic probe over the full 1-degree grid."""
        search = make_search(scene, rng=2)
        result = search.estimate_incidence_angle()
        assert result.reflector_error_deg <= 1.0
        assert result.num_probes > 10_000

    def test_signal_level_estimate_accurate(self, scene):
        search = make_search(scene, signal_level=True, rng=3)
        result = search.estimate_incidence_angle(
            reflector_step_deg=4.0, ap_step_deg=6.0
        )
        assert result.reflector_error_deg <= 4.0

    def test_batched_and_sequential_agree(self, scene):
        """The batched analytic sweep matches the sequential protocol."""
        _, sequential_refl, _, sequential_probes = sequential_search(
            make_search(scene, rng=4), reflector_step_deg=2.0, ap_step_deg=4.0
        )
        batched = make_search(scene, rng=5).estimate_incidence_angle(
            reflector_step_deg=2.0, ap_step_deg=4.0
        )
        assert abs(sequential_refl - batched.reflector_angle_deg) <= 2.0
        assert batched.num_probes == sequential_probes

    def test_signal_level_sweep_is_the_sequential_loop(self, scene):
        """The DSP probe runs through the sweep in the protocol's own
        order: same RNG draws, same winner, same reflector beam state."""
        sequential = make_search(scene, signal_level=True, rng=11)
        ap_deg, refl_deg, peak, probes = sequential_search(
            sequential, reflector_step_deg=10.0, ap_step_deg=20.0
        )
        swept = make_search(scene, signal_level=True, rng=11)
        result = swept.estimate_incidence_angle(
            reflector_step_deg=10.0, ap_step_deg=20.0
        )
        assert (result.ap_angle_deg, result.reflector_angle_deg) == (ap_deg, refl_deg)
        assert result.peak_sideband_dbm == peak
        assert result.num_probes == probes
        assert swept.reflector.rx_azimuth_deg == sequential.reflector.rx_azimuth_deg
        assert swept.reflector.tx_azimuth_deg == sequential.reflector.tx_azimuth_deg
        # Both consumed the same random stream.
        assert swept._rng.random() == sequential._rng.random()

    def test_ap_angle_also_estimated(self, scene):
        search = make_search(scene, rng=6)
        result = search.estimate_incidence_angle()
        assert result.ap_error_deg <= 2.0

    def test_leakage_rejected_in_signal_level_probe(self, scene):
        """The AP's own leakage is 60+ dB above the echo, yet the
        sideband measurement still resolves the echo: the OOK shift is
        doing its job."""
        search = make_search(scene, signal_level=True, rng=7)
        truth_refl = search.reflector.azimuth_to_prototype(
            search._bearing_refl_to_ap
        )
        aligned = search.measure_sideband_dbm(
            search._bearing_ap_to_refl, truth_refl
        )
        misaligned = search.measure_sideband_dbm(
            search._bearing_ap_to_refl + 20.0, truth_refl + 30.0
        )
        assert aligned > misaligned + 10.0


class TestReflectionAngleSearch:
    def test_outgoing_beam_estimated(self, scene):
        room, tracer, channel, ap = scene
        position = Vec2(4.0, 4.2)
        toward_ap = bearing_deg(position, ap.position)
        reflector = MoVRReflector(position, boresight_deg=toward_ap)
        headset = Radio(
            Vec2(2.0, 1.5), boresight_deg=0.0, config=HEADSET_RADIO_CONFIG
        )
        search = ReflectionAngleSearch(
            ap, reflector, headset, tracer, channel, rng=8
        )
        result = search.estimate_reflection_angle(
            reflector_step_deg=1.0, headset_step_deg=4.0
        )
        assert result.reflector_error_deg <= 2.0

    def test_ap_error_wraps_azimuth(self, scene):
        """A headset facing 180 degrees estimates near +/-180; the error
        is the wrapped difference, not 360 degrees."""
        room, tracer, channel, ap = scene
        reflector = MoVRReflector(Vec2(0.2, 2.4), boresight_deg=0.0)
        headset = Radio(
            Vec2(3.0, 2.6), boresight_deg=180.0, config=HEADSET_RADIO_CONFIG
        )
        search = ReflectionAngleSearch(
            ap, reflector, headset, tracer, channel, rng=8
        )
        result = search.estimate_reflection_angle(1.0, 2.0)
        assert result.ap_error_deg <= 2.0

