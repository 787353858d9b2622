"""Unit tests for physical constants and angle helpers."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.utils.units import (
    MOVR_CARRIER_HZ,
    angle_difference_deg,
    deg_to_rad,
    rad_to_deg,
    thermal_noise_dbm,
    wavelength,
    wrap_angle_deg,
)


class TestWavelength:
    def test_24ghz_is_12_5mm(self):
        assert wavelength(24.0e9) * 1000.0 == pytest.approx(12.49, abs=0.01)

    def test_60ghz_is_5mm(self):
        assert wavelength(60.0e9) * 1000.0 == pytest.approx(5.0, abs=0.01)

    def test_movr_carrier(self):
        assert wavelength(MOVR_CARRIER_HZ) == pytest.approx(0.01249, abs=1e-4)

    def test_rejects_non_positive(self):
        with pytest.raises(ValueError):
            wavelength(0.0)
        with pytest.raises(ValueError):
            wavelength(-1.0)


class TestThermalNoise:
    def test_1hz_reference(self):
        # kT at 290 K is -174 dBm/Hz.
        assert thermal_noise_dbm(1.0) == pytest.approx(-173.98, abs=0.05)

    def test_80211ad_channel(self):
        assert thermal_noise_dbm(2.16e9) == pytest.approx(-80.6, abs=0.2)

    def test_scales_with_bandwidth(self):
        assert thermal_noise_dbm(2e9) - thermal_noise_dbm(2e8) == pytest.approx(
            10.0, abs=1e-6
        )

    def test_rejects_non_positive_bandwidth(self):
        with pytest.raises(ValueError):
            thermal_noise_dbm(0.0)


class TestAngles:
    def test_deg_rad_round_trip(self):
        assert rad_to_deg(deg_to_rad(123.4)) == pytest.approx(123.4)

    def test_wrap_examples(self):
        assert wrap_angle_deg(270.0) == pytest.approx(-90.0)
        assert wrap_angle_deg(-190.0) == pytest.approx(170.0)
        assert wrap_angle_deg(180.0) == pytest.approx(-180.0)
        assert wrap_angle_deg(0.0) == pytest.approx(0.0)

    def test_difference_wraps_the_short_way(self):
        assert angle_difference_deg(10.0, 350.0) == pytest.approx(20.0)
        assert angle_difference_deg(350.0, 10.0) == pytest.approx(-20.0)

    @given(st.floats(min_value=-1e4, max_value=1e4))
    def test_wrap_range(self, angle):
        wrapped = wrap_angle_deg(angle)
        assert -180.0 <= wrapped < 180.0

    def test_wrap_never_rounds_up_to_180(self):
        """Just below -180 the remainder rounds up to 360; the wrap
        still lands in [-180, 180)."""
        assert wrap_angle_deg(math.nextafter(-180.0, -math.inf)) == -180.0

    @given(st.floats(min_value=-720.0, max_value=720.0))
    def test_wrap_preserves_angle_modulo_360(self, angle):
        wrapped = wrap_angle_deg(angle)
        assert math.cos(deg_to_rad(angle)) == pytest.approx(
            math.cos(deg_to_rad(wrapped)), abs=1e-9
        )
        assert math.sin(deg_to_rad(angle)) == pytest.approx(
            math.sin(deg_to_rad(wrapped)), abs=1e-9
        )

    @given(
        st.floats(min_value=-360.0, max_value=360.0),
        st.floats(min_value=-360.0, max_value=360.0),
    )
    def test_difference_antisymmetric(self, a, b):
        d1 = angle_difference_deg(a, b)
        d2 = angle_difference_deg(b, a)
        # Antisymmetric modulo the -180 edge case.
        if abs(d1) != 180.0:
            assert d1 == pytest.approx(-d2, abs=1e-9)
