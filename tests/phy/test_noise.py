"""Unit tests for noise figures and relay SNR arithmetic."""

import math

import pytest
from hypothesis import given, strategies as st

from repro.phy.noise import (
    DEFAULT_RECEIVER_NOISE,
    ReceiverNoise,
    friis_cascade_nf_db,
    relay_path_snr_db,
)


class TestReceiverNoise:
    def test_noise_floor_kTB_plus_nf(self):
        rx = ReceiverNoise(bandwidth_hz=2.16e9, noise_figure_db=6.0)
        assert rx.noise_floor_dbm == pytest.approx(-74.6, abs=0.3)

    def test_snr(self):
        rx = ReceiverNoise(bandwidth_hz=2.16e9, noise_figure_db=6.0)
        assert rx.snr_db(-50.0) == pytest.approx(rx.noise_floor_dbm * -1 - 50.0)

    def test_noise_floor_computed_once(self, monkeypatch):
        from repro.phy import noise as noise_module

        calls = []
        original = noise_module.thermal_noise_dbm

        def counting(bandwidth_hz):
            calls.append(bandwidth_hz)
            return original(bandwidth_hz)

        monkeypatch.setattr(noise_module, "thermal_noise_dbm", counting)
        rx = ReceiverNoise(bandwidth_hz=2.16e9, noise_figure_db=6.0)
        first = rx.noise_floor_dbm
        assert first == original(2.16e9) + 6.0
        assert rx.noise_floor_dbm == first
        assert calls == [2.16e9]
        # The cached value is not a field: equality and hashing hold.
        assert rx == ReceiverNoise(bandwidth_hz=2.16e9, noise_figure_db=6.0)
        assert hash(rx) == hash(ReceiverNoise(bandwidth_hz=2.16e9, noise_figure_db=6.0))

    def test_default_instance(self):
        assert DEFAULT_RECEIVER_NOISE.noise_figure_db == 6.0

    def test_validation(self):
        with pytest.raises(ValueError):
            ReceiverNoise(bandwidth_hz=0.0)
        with pytest.raises(ValueError):
            ReceiverNoise(noise_figure_db=-1.0)


class TestFriisCascade:
    def test_single_stage(self):
        assert friis_cascade_nf_db([(5.0, 20.0)]) == pytest.approx(5.0)

    def test_front_end_dominates(self):
        # A high-gain low-noise front end hides a noisy second stage.
        nf = friis_cascade_nf_db([(3.0, 30.0), (15.0, 10.0)])
        assert nf == pytest.approx(3.07, abs=0.05)

    def test_noisy_front_end_hurts(self):
        good_first = friis_cascade_nf_db([(3.0, 20.0), (10.0, 10.0)])
        bad_first = friis_cascade_nf_db([(10.0, 20.0), (3.0, 10.0)])
        assert bad_first > good_first

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            friis_cascade_nf_db([])

    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=15.0),
                st.floats(min_value=0.0, max_value=40.0),
            ),
            min_size=1,
            max_size=5,
        )
    )
    def test_cascade_at_least_first_stage(self, stages):
        nf = friis_cascade_nf_db(stages)
        assert nf >= stages[0][0] - 1e-9


class TestRelaySnr:
    def test_equal_hops_lose_3db(self):
        assert relay_path_snr_db(30.0, 30.0) == pytest.approx(26.99, abs=0.01)

    def test_weak_hop_dominates(self):
        assert relay_path_snr_db(40.0, 10.0) == pytest.approx(10.0, abs=0.1)

    def test_symmetric(self):
        assert relay_path_snr_db(12.0, 31.0) == relay_path_snr_db(31.0, 12.0)

    def test_dark_hop_is_dark(self):
        assert relay_path_snr_db(-math.inf, 30.0) == -math.inf

    @given(
        st.floats(min_value=-20.0, max_value=60.0),
        st.floats(min_value=-20.0, max_value=60.0),
    )
    def test_never_exceeds_weakest_hop(self, s1, s2):
        combined = relay_path_snr_db(s1, s2)
        assert combined <= min(s1, s2) + 1e-9
        assert combined >= min(s1, s2) - 3.02
