"""Unit tests for radio node models."""

import pytest

from repro.geometry.vectors import Vec2
from repro.link.radios import (
    DEFAULT_RADIO_CONFIG,
    HEADSET_RADIO_CONFIG,
    Radio,
    RadioConfig,
)
from repro.phy.antenna import MultiPanelArray, PhasedArray


class TestRadioConfig:
    def test_noise_floor(self):
        # kTB(2.16 GHz) = -80.6 dBm + 8 dB NF.
        assert DEFAULT_RADIO_CONFIG.noise_floor_dbm == pytest.approx(-72.6, abs=0.3)

    def test_noise_built_once_per_config(self):
        config = RadioConfig(noise_figure_db=7.0)
        noise = config.receiver_noise
        assert config.receiver_noise is noise
        assert (noise.bandwidth_hz, noise.noise_figure_db) == (config.bandwidth_hz, 7.0)
        assert config.noise_floor_dbm == noise.noise_floor_dbm
        assert config == RadioConfig(noise_figure_db=7.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            RadioConfig(noise_figure_db=-1.0)
        with pytest.raises(ValueError):
            RadioConfig(implementation_loss_db=-1.0)

    def test_headset_config_is_multi_panel(self):
        assert HEADSET_RADIO_CONFIG.array.num_panels == 3


class TestRadio:
    def test_single_panel_array_type(self):
        radio = Radio(Vec2(0, 0), boresight_deg=0.0)
        assert isinstance(radio.array, PhasedArray)

    def test_headset_radio_multi_panel(self):
        radio = Radio(Vec2(0, 0), boresight_deg=0.0, config=HEADSET_RADIO_CONFIG)
        assert isinstance(radio.array, MultiPanelArray)

    def test_point_at(self):
        radio = Radio(Vec2(0, 0), boresight_deg=45.0)
        achieved = radio.point_at(Vec2(1, 1))
        assert achieved == pytest.approx(45.0)

    def test_steer_clipping(self):
        radio = Radio(Vec2(0, 0), boresight_deg=0.0)
        achieved = radio.steer_to(100.0)
        assert achieved == pytest.approx(radio.config.array.max_scan_deg)

    def test_eirp(self):
        radio = Radio(Vec2(0, 0), boresight_deg=0.0)
        radio.steer_to(0.0)
        expected = radio.config.tx_power_dbm + radio.config.array.boresight_gain_dbi
        assert radio.eirp_dbm(0.0) == pytest.approx(expected)

    def test_boresight_rotation_preserves_steering(self):
        radio = Radio(Vec2(0, 0), boresight_deg=0.0)
        radio.steer_to(30.0)
        radio.boresight_deg = 20.0
        assert radio.steering_deg == pytest.approx(30.0)

    def test_boresight_rotation_resets_unreachable_steering(self):
        radio = Radio(Vec2(0, 0), boresight_deg=0.0)
        radio.steer_to(50.0)
        radio.boresight_deg = -130.0
        # 50 degrees absolute is now unreachable; beam recentred.
        assert radio.steering_deg == pytest.approx(-130.0)

    def test_moved_to_copies(self):
        radio = Radio(Vec2(0, 0), boresight_deg=10.0, name="a")
        clone = radio.moved_to(Vec2(1, 1))
        assert clone.position == Vec2(1, 1)
        assert clone.boresight_deg == 10.0
        assert clone.name == "a"
        assert clone is not radio

    def test_repr_contains_name(self):
        radio = Radio(Vec2(0, 0), boresight_deg=0.0, name="ap-1")
        assert "ap-1" in repr(radio)
