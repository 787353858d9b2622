"""Unit tests for the amplifier and feedback-loop models."""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.phy.amplifier import (
    MOVR_AMPLIFIER,
    AmplifierSpec,
    VariableGainAmplifier,
    closed_loop_gain_db,
    feedback_peaking_db,
    loop_is_stable,
)


class TestAmplifierSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            AmplifierSpec(min_gain_db=10.0, max_gain_db=5.0)
        with pytest.raises(ValueError):
            AmplifierSpec(gain_step_db=0.0)
        with pytest.raises(ValueError):
            AmplifierSpec(psat_dbm=10.0, output_p1db_dbm=15.0)
        with pytest.raises(ValueError):
            AmplifierSpec(quiescent_current_ma=400.0, saturation_current_ma=300.0)

    @pytest.mark.parametrize("bad", [float("inf"), float("-inf"), float("nan")])
    @pytest.mark.parametrize(
        "name",
        ["max_gain_db", "min_gain_db", "output_p1db_dbm", "psat_dbm", "saturation_current_ma"],
    )
    def test_non_finite_limits_refused(self, name, bad):
        """An infinite maximum gain would give an endless gain ramp; every
        limit is refused by name unless finite (construction only)."""
        with pytest.raises(ValueError, match=name):
            AmplifierSpec(**{name: bad})


class TestGainControl:
    def test_starts_at_minimum(self):
        amp = VariableGainAmplifier()
        assert amp.gain_db == MOVR_AMPLIFIER.min_gain_db

    def test_quantized_to_step(self):
        amp = VariableGainAmplifier()
        achieved = amp.set_gain_db(10.3)
        assert achieved == pytest.approx(10.5)
        achieved = amp.set_gain_db(10.2)
        assert achieved == pytest.approx(10.0)

    def test_clipped_to_range(self):
        amp = VariableGainAmplifier()
        assert amp.set_gain_db(1000.0) == MOVR_AMPLIFIER.max_gain_db
        assert amp.set_gain_db(-1000.0) == MOVR_AMPLIFIER.min_gain_db

    def test_step_gain(self):
        amp = VariableGainAmplifier()
        amp.set_gain_db(10.0)
        assert amp.step_gain(2) == pytest.approx(11.0)
        assert amp.step_gain(-1) == pytest.approx(10.5)


class TestCompression:
    def test_linear_for_small_signals(self):
        amp = VariableGainAmplifier()
        amp.set_gain_db(20.0)
        out = amp.output_power_dbm(-60.0)
        assert out == pytest.approx(-40.0, abs=0.01)

    def test_output_never_exceeds_psat(self):
        amp = VariableGainAmplifier()
        amp.set_gain_db(60.0)
        assert amp.output_power_dbm(20.0) < MOVR_AMPLIFIER.psat_dbm

    def test_compression_grows_with_drive(self):
        amp = VariableGainAmplifier()
        amp.set_gain_db(30.0)
        assert amp.compression_db(-10.0) > amp.compression_db(-40.0)

    def test_is_saturated_threshold(self):
        amp = VariableGainAmplifier()
        amp.set_gain_db(60.0)
        assert amp.is_saturated(-30.0)
        assert not amp.is_saturated(-80.0)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-90.0, max_value=10.0))
    def test_output_monotone_in_input(self, input_dbm):
        amp = VariableGainAmplifier()
        amp.set_gain_db(30.0)
        assert amp.output_power_dbm(input_dbm + 1.0) > amp.output_power_dbm(input_dbm)


class TestCurrentDraw:
    def test_quiescent_for_small_signals(self):
        amp = VariableGainAmplifier()
        assert amp.current_draw_ma(-40.0) == pytest.approx(
            MOVR_AMPLIFIER.quiescent_current_ma, abs=2.0
        )

    def test_pinned_at_saturation(self):
        amp = VariableGainAmplifier()
        assert amp.current_draw_ma(MOVR_AMPLIFIER.psat_dbm + 10.0) == pytest.approx(
            MOVR_AMPLIFIER.saturation_current_ma
        )

    def test_knee_shape(self):
        """Current rises sharply near psat — the sensed signature."""
        amp = VariableGainAmplifier()
        spec = amp.spec
        far = amp.current_draw_ma(spec.psat_dbm - 20.0)
        near = amp.current_draw_ma(spec.psat_dbm - 3.0)
        at = amp.current_draw_ma(spec.psat_dbm)
        assert near - far > 50.0
        assert at > near

    @given(st.floats(min_value=-60.0, max_value=30.0))
    def test_monotone_in_output_power(self, out_dbm):
        amp = VariableGainAmplifier()
        assert amp.current_draw_ma(out_dbm + 1.0) >= amp.current_draw_ma(out_dbm)


class TestFeedbackLoop:
    def test_stability_criterion_paper_form(self):
        # Stable iff G_dB - L_dB < 0 with L the leakage attenuation.
        assert loop_is_stable(gain_db=50.0, leakage_db=-60.0)
        assert not loop_is_stable(gain_db=60.0, leakage_db=-60.0)
        assert not loop_is_stable(gain_db=61.0, leakage_db=-60.0)

    def test_closed_loop_gain_exceeds_open_loop(self):
        # Positive feedback peaks the gain.
        assert closed_loop_gain_db(40.0, -60.0) > 40.0

    def test_peaking_small_far_from_boundary(self):
        assert feedback_peaking_db(20.0, -80.0) < 0.1

    def test_peaking_diverges_near_boundary(self):
        assert feedback_peaking_db(59.0, -60.0) > 15.0

    def test_unstable_raises(self):
        with pytest.raises(ValueError, match="unstable"):
            closed_loop_gain_db(60.0, -60.0)

    @settings(max_examples=50, deadline=None)
    @given(
        st.floats(min_value=0.0, max_value=59.0),
        st.floats(min_value=-90.0, max_value=-60.0),
    )
    def test_stable_region_closed_loop_finite_and_peaked(self, gain, leak):
        if not loop_is_stable(gain, leak):
            return
        closed = closed_loop_gain_db(gain, leak)
        assert math.isfinite(closed)
        assert closed >= gain

    @given(st.floats(min_value=-80.0, max_value=-20.0))
    def test_boundary_is_exactly_at_leakage(self, leak):
        assert loop_is_stable(-leak - 0.01, leak)
        assert not loop_is_stable(-leak + 0.01, leak)
