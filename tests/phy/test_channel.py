"""Unit tests for the mmWave channel model."""

import cmath
import math

import pytest
from hypothesis import given, strategies as st

from repro.geometry.raytrace import RayTracer
from repro.geometry.room import rectangular_room
from repro.geometry.shapes import Circle
from repro.geometry.vectors import Vec2
from repro.phy.channel import (
    MmWaveChannel,
    atmospheric_loss_db,
    free_space_path_loss_db,
)


class TestFreeSpacePathLoss:
    def test_1m_at_24ghz(self):
        assert free_space_path_loss_db(1.0, 24.0e9) == pytest.approx(60.05, abs=0.1)

    def test_doubling_distance_costs_6db(self):
        near = free_space_path_loss_db(2.0, 24.0e9)
        far = free_space_path_loss_db(4.0, 24.0e9)
        assert far - near == pytest.approx(6.02, abs=0.01)

    def test_higher_frequency_more_loss(self):
        assert free_space_path_loss_db(3.0, 60.0e9) > free_space_path_loss_db(
            3.0, 24.0e9
        )

    def test_validation(self):
        with pytest.raises(ValueError):
            free_space_path_loss_db(0.0, 24.0e9)
        with pytest.raises(ValueError):
            free_space_path_loss_db(1.0, 0.0)

    @given(st.floats(min_value=0.1, max_value=100.0))
    def test_monotone_in_distance(self, d):
        assert free_space_path_loss_db(d * 1.5, 24.0e9) > free_space_path_loss_db(
            d, 24.0e9
        )


class TestAtmosphericLoss:
    def test_negligible_indoors_at_24ghz(self):
        assert atmospheric_loss_db(10.0, 24.0e9) < 0.01

    def test_oxygen_peak_at_60ghz(self):
        assert atmospheric_loss_db(1000.0, 60.0e9) == pytest.approx(15.5, abs=0.5)
        assert atmospheric_loss_db(1000.0, 60.0e9) > atmospheric_loss_db(
            1000.0, 24.0e9
        )

    def test_zero_distance(self):
        assert atmospheric_loss_db(0.0, 60.0e9) == 0.0


class TestMmWaveChannel:
    @pytest.fixture
    def setup(self):
        room = rectangular_room(5.0, 5.0)
        return RayTracer(room), MmWaveChannel()

    def test_los_gain_is_friis(self, setup):
        tracer, channel = setup
        path = tracer.line_of_sight(Vec2(1, 1), Vec2(4, 1))
        assert channel.path_gain_db(path) == pytest.approx(
            -free_space_path_loss_db(3.0, channel.carrier_hz), abs=0.01
        )

    def test_reflection_adds_material_loss(self, setup):
        tracer, channel = setup
        paths = tracer.reflection_paths(Vec2(1, 2), Vec2(4, 2), max_bounces=1)
        for path in paths:
            expected = -(
                free_space_path_loss_db(path.total_length_m, channel.carrier_hz)
                + path.total_reflection_loss_db
            )
            assert channel.path_gain_db(path) == pytest.approx(expected, abs=0.01)

    def test_blockage_included_and_skippable(self, setup):
        tracer, channel = setup
        blocker = Circle(Vec2(2.5, 1.0), 0.15)
        path = tracer.line_of_sight(Vec2(1, 1), Vec2(4, 1), [blocker])
        clear = tracer.line_of_sight(Vec2(1, 1), Vec2(4, 1))
        assert path.is_obstructed and not clear.is_obstructed
        assert channel.path_gain_db(path) < channel.path_gain_db(clear) - 5.0

    def test_shadowing_adds_spread(self):
        import numpy as np

        room = rectangular_room(5.0, 5.0)
        tracer = RayTracer(room)
        channel = MmWaveChannel(
            shadowing_sigma_db=3.0, rng=np.random.default_rng(0)
        )
        path = tracer.line_of_sight(Vec2(1, 1), Vec2(4, 1))
        gains = [channel.path_gain_db(path) for _ in range(200)]
        assert np.std(gains) == pytest.approx(3.0, abs=0.5)

    def test_complex_gain_magnitude_matches_db(self, setup):
        tracer, channel = setup
        path = tracer.line_of_sight(Vec2(1, 1), Vec2(4, 1))
        h = channel.complex_gain(path)
        gain_db = channel.path_gain_db(path)
        assert 20.0 * math.log10(abs(h)) == pytest.approx(gain_db, abs=1e-6)

    def test_complex_gain_phase_tracks_length(self, setup):
        tracer, channel = setup
        h1 = channel.complex_gain(tracer.line_of_sight(Vec2(1, 1), Vec2(4, 1)))
        # Half a wavelength further: phase flips by pi.
        d = 3.0 + channel.wavelength_m / 2.0
        h2 = channel.complex_gain(tracer.line_of_sight(Vec2(1, 1), Vec2(1 + d, 1)))
        phase_diff = cmath.phase(h2 / h1)
        assert abs(abs(phase_diff) - math.pi) < 0.01

    def test_blockage_model_carrier_synchronized(self):
        channel = MmWaveChannel(carrier_hz=60.0e9)
        assert channel.blockage_model.carrier_hz == 60.0e9
