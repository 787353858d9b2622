"""Unit tests for the current-sensing gain controller (section 4.2).

The controller evaluates its whole gain ramp in one pass; the property
below pins it to the step loop it replaced, kept here as the reference:
set each gain, read the sensor sample by sample, stop at the knee.
"""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.core.gain_control import (
    CurrentSensingGainController,
    CurrentSensor,
    CurrentSensorSpec,
    GainControlResult,
    conservative_gain_db,
    oracle_gain_db,
)
from repro.core import reflector as reflector_module
from repro.core.reflector import MoVRReflector
from repro.experiments.testbed import default_testbed
from repro.geometry.vectors import Vec2, bearing_deg
from repro.phy.amplifier import AmplifierSpec, loop_is_stable


def make_reflector(rx_proto=90.0, tx_proto=90.0, **kwargs):
    reflector = MoVRReflector(Vec2(4.7, 4.7), boresight_deg=-135.0, **kwargs)
    reflector.set_beams(
        reflector.prototype_to_azimuth(rx_proto),
        reflector.prototype_to_azimuth(tx_proto),
    )
    return reflector


# -- the reference: one gain step and one sensor reading at a time --------


def reference_read_ma(sensor, input_power_dbm, num_samples):
    true_ma = sensor.reflector.current_draw_ma(input_power_dbm)
    readings = []
    for _ in range(num_samples):
        sample = true_ma + float(sensor.rng.normal(0.0, sensor.spec.noise_ma_rms))
        if sensor.spec.quantization_ma > 0.0:
            sample = round(sample / sensor.spec.quantization_ma) * sensor.spec.quantization_ma
        readings.append(min(sensor.spec.full_scale_ma, max(0.0, sample)))
    return float(np.mean(readings))


def reference_calibrate(controller, input_power_dbm):
    """The step loop: returns the result and the backoff event's fields."""
    amp = controller.reflector.amplifier

    def read():
        return reference_read_ma(
            controller.sensor, input_power_dbm, controller.samples_per_reading
        )

    gain = amp.set_gain_db(amp.spec.min_gain_db)
    previous = read()
    gains, currents, steps, knee, event = [gain], [previous], 0, False, None
    while gain < amp.spec.max_gain_db:
        stepped_from, gain = gain, amp.set_gain_db(gain + controller.step_db)
        reading = read()
        steps += 1
        gains.append(gain)
        currents.append(reading)
        # The threshold is per dB of gain stepped.
        if reading - previous > controller.jump_threshold_ma * (gain - stepped_from):
            tripped_gain_db = gain
            gain = amp.set_gain_db(gain - controller.step_db - controller.backoff_db)
            knee = True
            event = dict(
                reflector=controller.reflector.name,
                tripped_gain_db=tripped_gain_db,
                final_gain_db=amp.gain_db,
                current_jump_ma=reading - previous,
                steps=steps,
            )
            break
        previous = reading
    result = GainControlResult(amp.gain_db, knee, steps, gains, currents)
    return result, event


def reference_oracle_gain_db(reflector, input_power_dbm, margin_db=3.0):
    """The oracle by setting each bisection gain and asking the reflector."""
    leak = reflector.leakage_db()
    spec = reflector.amplifier.spec
    gain = max(spec.min_gain_db, min(spec.max_gain_db, -leak - margin_db))
    if input_power_dbm is None:
        return gain
    lo, hi = spec.min_gain_db, gain
    reflector.amplifier.set_gain_db(hi)
    if not reflector.is_saturated_at(input_power_dbm):
        return hi
    for _ in range(30):
        mid = (lo + hi) / 2.0
        reflector.amplifier.set_gain_db(mid)
        if reflector.is_saturated_at(input_power_dbm):
            hi = mid
        else:
            lo = mid
    return lo


def calibrate_with_event(controller, input_power_dbm):
    with telemetry.scope("calibrate") as sc:
        result = controller.calibrate(input_power_dbm)
    events = [e for e in sc.events if e.kind is telemetry.EventKind.GAIN_BACKOFF]
    assert len(events) == (1 if result.knee_detected else 0)
    return result, (events[0].fields if events else None)


#: Beam pairs (prototype angles): coupling of -73 dB, where a weak input
#: runs to max gain without a knee, and of -59 dB, where the loop goes
#: unstable below max gain.
BEAMS = [(90.0, 90.0), (45.0, 135.0)]

SENSOR_SPECS = [
    CurrentSensorSpec(),
    CurrentSensorSpec(noise_ma_rms=0.0),
    CurrentSensorSpec(quantization_ma=0.0),
    CurrentSensorSpec(noise_ma_rms=0.0, quantization_ma=0.0),
    CurrentSensorSpec(full_scale_ma=200.0),  # clips below the knee's rise
]


class TestOnePassRamp:
    @settings(max_examples=60, deadline=None)
    @given(
        beams=st.sampled_from(BEAMS),
        spec=st.sampled_from(SENSOR_SPECS),
        input_dbm=st.floats(min_value=-90.0, max_value=-15.0),
        step_db=st.floats(min_value=0.26, max_value=4.0),
        backoff_db=st.floats(min_value=0.0, max_value=6.0),
        samples=st.integers(min_value=1, max_value=8),
        seed=st.integers(min_value=0, max_value=2**32 - 1),
    )
    def test_matches_step_loop(self, beams, spec, input_dbm, step_db, backoff_db, samples, seed):
        """Result, backoff event, final gain and stream state all equal
        the step loop's."""
        outcomes = []
        for run in (reference_calibrate, calibrate_with_event):
            reflector = make_reflector(*beams)
            rng = np.random.default_rng(seed)
            controller = CurrentSensingGainController(
                reflector,
                sensor=CurrentSensor(reflector, spec=spec, rng=rng),
                step_db=step_db,
                backoff_db=backoff_db,
                samples_per_reading=samples,
            )
            result, event = run(controller, input_dbm)
            outcomes.append((result, event, reflector.amplifier.gain_db, rng.bit_generator.state))
        assert outcomes[1] == outcomes[0]

    @pytest.mark.parametrize("beams", BEAMS)
    @pytest.mark.parametrize("input_dbm", [-80.0, -45.0, -25.0])
    def test_true_current_at_every_ramp_gain(self, beams, input_dbm):
        """Every analog-chain quantity at an explicit leakage and gain
        equals, to the last bit, its value at the beams' leakage and the
        amplifier's own gain once set there, and the current over the
        whole ramp as one array equals the current at each gain.  The
        ramp crosses the saturation edge and, at the leakier beams, the
        stability edge."""
        reflector = make_reflector(*beams)
        controller = CurrentSensingGainController(reflector, rng=0)
        leakage = reflector.leakage_db()
        ramp = controller.gain_ramp_db()
        # The array form: one evaluation over the whole ramp.
        currents = reflector.current_draw_ma(input_dbm, leakage, np.array(ramp))
        assert currents.tolist() == [
            reflector.current_draw_ma(input_dbm, leakage, gain) for gain in ramp
        ]
        stable, saturated = set(), set()
        for gain in ramp:
            explicit = [
                reflector.is_stable(leakage, gain),
                reflector.effective_gain_db(leakage, gain),
                reflector.output_power_dbm(input_dbm, leakage, gain),
                reflector.is_saturated_at(input_dbm, leakage, gain),
                reflector.current_draw_ma(input_dbm, leakage, gain),
            ]
            reflector.amplifier.set_gain_db(gain)
            state = [
                reflector.is_stable(),
                reflector.effective_gain_db(),
                reflector.output_power_dbm(input_dbm),
                reflector.is_saturated_at(input_dbm),
                reflector.current_draw_ma(input_dbm),
            ]
            assert explicit == state
            stable.add(state[0])
            saturated.add(state[3])
        assert (False in stable) == (beams == (45.0, 135.0))
        # Only a weak input at the quiet beams stays linear to max gain.
        assert saturated == ({False} if (beams, input_dbm) == (BEAMS[0], -80.0) else {True, False})

    @pytest.mark.parametrize("beams", BEAMS)
    @pytest.mark.parametrize("input_dbm", [-80.0, -25.0])
    def test_one_loop_evaluation_per_ramp_gain(self, beams, input_dbm, monkeypatch):
        """Calibration decides the loop's stability once per ramp gain,
        in ramp order, and nowhere else: one criterion call over the
        whole ramp."""
        reflector = make_reflector(*beams)
        controller = CurrentSensingGainController(reflector, rng=0)
        ramp = controller.gain_ramp_db()
        calls = []

        def spy(gain_db, leakage_db):
            calls.append(np.asarray(gain_db).tolist())
            return loop_is_stable(gain_db, leakage_db)

        monkeypatch.setattr(reflector_module, "loop_is_stable", spy)
        controller.calibrate(input_dbm)
        assert calls == [ramp]

    def test_ramp_is_the_step_loops_gains(self):
        reflector = make_reflector()
        controller = CurrentSensingGainController(reflector, step_db=0.3, rng=0)
        ramp = controller.gain_ramp_db()
        assert ramp[:4] == [0.0, 0.5, 1.0, 1.5]
        assert ramp[-1] == reflector.amplifier.spec.max_gain_db

    def test_ramp_stops_at_the_top_of_the_gain_grid(self):
        """A maximum off the DAC grid: the ramp ends at the highest grid
        gain below it instead of stepping in place."""
        reflector = make_reflector(amplifier=AmplifierSpec(max_gain_db=59.7))
        controller = CurrentSensingGainController(reflector, rng=0)
        assert controller.gain_ramp_db()[-1] == 59.5
        result = controller.calibrate(input_power_dbm=-80.0)
        assert result.final_gain_db <= 59.5

    def test_readings_are_read_ma_in_turn(self):
        reflector = make_reflector()
        gains = [10.0, 30.0, 55.0]
        truths = []
        for gain in gains:
            reflector.amplifier.set_gain_db(gain)
            truths.append(reflector.current_draw_ma(-30.0))
        batch = CurrentSensor(reflector, rng=9).readings_ma(truths, num_samples=3)
        one_by_one = CurrentSensor(reflector, rng=9)
        singles = []
        for gain in gains:
            reflector.amplifier.set_gain_db(gain)
            singles.append(one_by_one.read_ma(-30.0, num_samples=3))
        assert batch == singles


class TestFleetCalibration:
    @pytest.mark.parametrize("num_reflectors", [1, 3])
    def test_matches_the_per_reflector_step_loop(self, num_reflectors):
        """Installing a fleet (every beam set, then one leakage read for
        all) gives the results, backoff events and generator state of
        installing each reflector in turn with the scalar step loop.
        The testbed's generator feeds both the 2 dB shadowing of each
        feed hop and the current sensors, so the draws must stay in
        reflector order: feed hop, readings, knee redraw."""
        outcomes = []
        for fleet in (True, False):
            bed = default_testbed(
                seed=2016, num_reflectors=num_reflectors, calibrate_gains=False
            )
            system = bed.system
            with telemetry.scope("install") as sc:
                if fleet:
                    results = system.calibrate_reflector_gains()
                else:
                    results, events = {}, []
                    for reflector in system.reflectors:
                        reflector.set_beams(
                            bearing_deg(reflector.position, system.ap.position),
                            reflector.tx_azimuth_deg,
                        )
                        input_dbm = system._amp_input_dbm(reflector, ())
                        controller = CurrentSensingGainController(reflector, rng=bed.rng)
                        result, event = reference_calibrate(controller, input_dbm)
                        results[reflector.name] = result
                        events += [event] if event is not None else []
            backoffs = [
                e.fields for e in sc.events if e.kind is telemetry.EventKind.GAIN_BACKOFF
            ]
            if not fleet:
                assert backoffs == []
                backoffs = events
            gains = [r.amplifier.gain_db for r in system.reflectors]
            outcomes.append((results, backoffs, gains, bed.rng.bit_generator.state))
        assert outcomes[0] == outcomes[1]
        assert len(outcomes[0][0]) == num_reflectors


class TestCurrentSensor:
    def test_reads_near_truth(self):
        reflector = make_reflector()
        reflector.amplifier.set_gain_db(20.0)
        sensor = CurrentSensor(reflector, rng=0)
        truth = reflector.current_draw_ma(-50.0)
        reading = sensor.read_ma(-50.0, num_samples=32)
        assert reading == pytest.approx(truth, abs=2.0)

    def test_quantization(self):
        spec = CurrentSensorSpec(noise_ma_rms=0.0, quantization_ma=5.0)
        reflector = make_reflector()
        sensor = CurrentSensor(reflector, spec=spec, rng=0)
        reading = sensor.read_ma(-50.0, num_samples=1)
        assert reading % 5.0 == pytest.approx(0.0, abs=1e-9)

    def test_full_scale_clamp(self):
        spec = CurrentSensorSpec(full_scale_ma=100.0)
        reflector = make_reflector()
        reflector.amplifier.set_gain_db(60.0)
        sensor = CurrentSensor(reflector, spec=spec, rng=0)
        assert sensor.read_ma(0.0) <= 100.0

    def test_sample_count_validated(self):
        sensor = CurrentSensor(make_reflector(), rng=0)
        with pytest.raises(ValueError):
            sensor.read_ma(-50.0, num_samples=0)

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            CurrentSensorSpec(noise_ma_rms=-1.0)
        with pytest.raises(ValueError):
            CurrentSensorSpec(full_scale_ma=0.0)


class TestCalibration:
    def test_result_is_stable(self):
        reflector = make_reflector()
        controller = CurrentSensingGainController(reflector, rng=1)
        result = controller.calibrate(input_power_dbm=-40.0)
        assert reflector.is_stable()
        assert not reflector.is_saturated_at(-40.0)
        assert result.final_gain_db == reflector.amplifier.gain_db

    def test_knee_detected_with_strong_input(self):
        """A strong input drives the amplifier into compression well
        below max gain, so the knee must be found."""
        reflector = make_reflector()
        controller = CurrentSensingGainController(reflector, rng=2)
        result = controller.calibrate(input_power_dbm=-25.0)
        assert result.knee_detected
        assert result.final_gain_db < reflector.amplifier.spec.max_gain_db

    def test_weak_input_reaches_max_gain(self):
        """With a very weak input and low leakage, nothing saturates
        and the controller tops out."""
        reflector = make_reflector()
        controller = CurrentSensingGainController(reflector, rng=3)
        result = controller.calibrate(input_power_dbm=-75.0)
        assert result.hit_max_gain or result.final_gain_db > 50.0

    def test_traces_recorded(self):
        reflector = make_reflector()
        controller = CurrentSensingGainController(reflector, rng=4)
        result = controller.calibrate(input_power_dbm=-40.0)
        assert len(result.gain_trace_db) == len(result.current_trace_ma)
        assert len(result.gain_trace_db) == result.steps_taken + 1
        assert result.gain_trace_db == sorted(result.gain_trace_db)

    def test_backoff_applied(self):
        reflector = make_reflector()
        controller = CurrentSensingGainController(
            reflector, backoff_db=5.0, rng=5
        )
        result = controller.calibrate(input_power_dbm=-25.0)
        if result.knee_detected:
            knee_gain = result.gain_trace_db[-1]
            assert result.final_gain_db <= knee_gain - 5.0

    @settings(max_examples=30, deadline=None)
    @given(
        st.floats(min_value=45.0, max_value=135.0),
        st.floats(min_value=45.0, max_value=135.0),
        st.floats(min_value=-55.0, max_value=-30.0),
        st.floats(min_value=0.3, max_value=4.0),
    )
    def test_never_leaves_amplifier_saturated(self, rx, tx, input_dbm, step_db):
        """The safety property of section 4.2: whatever the beam angles,
        input power and gain step, calibration lands on a stable,
        uncompressed point."""
        reflector = make_reflector(rx, tx)
        controller = CurrentSensingGainController(reflector, step_db=step_db, rng=6)
        controller.calibrate(input_power_dbm=input_dbm)
        assert reflector.is_stable()
        assert not reflector.is_saturated_at(input_dbm)

    @pytest.mark.parametrize("step_db", [0.5, 0.3])
    @pytest.mark.parametrize("input_dbm", [-45.0, -40.0, -30.0])
    def test_half_db_steps_find_the_knee(self, step_db, input_dbm):
        """Steps of one 0.5 dB grid step raise the current half as much
        per step as 1 dB steps; the threshold scales with the gain
        stepped, so the knee is still found and backed off from."""
        reflector = make_reflector()
        controller = CurrentSensingGainController(reflector, step_db=step_db, rng=1)
        result = controller.calibrate(input_power_dbm=input_dbm)
        assert result.knee_detected
        assert result.final_gain_db < reflector.amplifier.spec.max_gain_db
        assert not reflector.is_saturated_at(input_dbm)

    def test_parameter_validation(self):
        reflector = make_reflector()
        with pytest.raises(ValueError):
            CurrentSensingGainController(reflector, step_db=0.0)
        with pytest.raises(ValueError):
            CurrentSensingGainController(reflector, jump_threshold_ma=0.0)

    @pytest.mark.parametrize("step_db", [0.25, 0.2, 0.1])
    def test_sub_resolution_step_refused(self, step_db):
        """A step that rounds away on the 0.5 dB gain grid would never
        leave the minimum gain."""
        with pytest.raises(ValueError) as info:
            CurrentSensingGainController(make_reflector(), step_db=step_db)
        assert str(step_db) in str(info.value)
        assert "0.5" in str(info.value)

    def test_smallest_advancing_step_calibrates(self):
        """0.3 dB rounds up to one 0.5 dB grid step per step."""
        results = []
        for run in (reference_calibrate, calibrate_with_event):
            controller = CurrentSensingGainController(make_reflector(), step_db=0.3, rng=1)
            results.append(run(controller, -40.0))
        assert results[1] == results[0]
        assert results[1][0].gain_trace_db[:3] == [0.0, 0.5, 1.0]

    def test_samples_per_reading_validated(self):
        with pytest.raises(ValueError):
            CurrentSensingGainController(make_reflector(), samples_per_reading=0)


class TestStaticPolicies:
    def test_conservative_safe_everywhere(self):
        reflector = make_reflector()
        gain = conservative_gain_db(reflector)
        for rx in (40.0, 70.0, 100.0, 140.0):
            for tx in (40.0, 90.0, 140.0):
                r = make_reflector(rx, tx)
                r.amplifier.set_gain_db(gain)
                assert r.is_stable()

    def test_oracle_at_least_conservative(self):
        reflector = make_reflector()
        assert oracle_gain_db(reflector) >= conservative_gain_db(reflector) - 1e-9

    def test_oracle_with_input_respects_compression(self):
        reflector = make_reflector()
        gain = oracle_gain_db(reflector, input_power_dbm=-25.0)
        reflector.amplifier.set_gain_db(gain)
        assert not reflector.is_saturated_at(-25.0)

    @pytest.mark.parametrize("beams", BEAMS + [(60.0, 120.0)])
    @pytest.mark.parametrize("input_dbm", [None, -60.0, -40.0, -25.0])
    def test_oracle_is_the_set_gain_bisection(self, beams, input_dbm, monkeypatch):
        """The oracle bisects over the gains the amplifier would reach,
        reading the leakage once and never moving the amplifier's gain:
        the same result as setting each gain and asking the reflector."""
        reflector = make_reflector(*beams)
        reflector.amplifier.set_gain_db(12.5)
        expected = reference_oracle_gain_db(make_reflector(*beams), input_dbm)
        reads = []
        original = MoVRReflector.leakage_db

        def counting(instance):
            reads.append(instance)
            return original(instance)

        monkeypatch.setattr(MoVRReflector, "leakage_db", counting)
        # Any gain command would now fail.
        monkeypatch.setattr(type(reflector.amplifier), "set_gain_db", None)
        assert oracle_gain_db(reflector, input_dbm) == expected
        assert reads == [reflector]
        assert reflector.amplifier.gain_db == 12.5

    def test_margin_validated(self):
        with pytest.raises(ValueError):
            conservative_gain_db(make_reflector(), margin_db=-1.0)
