"""Unit tests for the MoVR reflector device."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core.leakage import ReflectorLeakageModel
from repro import telemetry
from repro.core.reflector import REFLECTOR_SCAN_DEG, MoVRReflector, leakages_db_many
from repro.geometry.vectors import Vec2
from repro.phy.amplifier import loop_is_stable


@pytest.fixture
def reflector():
    return MoVRReflector(Vec2(4.7, 4.7), boresight_deg=-135.0)


class TestAngleConventions:
    def test_boresight_is_90_prototype(self, reflector):
        assert reflector.azimuth_to_prototype(-135.0) == pytest.approx(90.0)

    def test_round_trip(self, reflector):
        for proto in (40.0, 75.0, 90.0, 120.0, 140.0):
            azimuth = reflector.prototype_to_azimuth(proto)
            assert reflector.azimuth_to_prototype(azimuth) == pytest.approx(proto)

    def test_out_of_range_clipped(self, reflector):
        assert reflector.azimuth_to_prototype(-135.0 + 80.0) == 140.0
        assert reflector.azimuth_to_prototype(-135.0 - 80.0) == 40.0

    @settings(max_examples=25, deadline=None)
    @given(st.floats(min_value=-50.0, max_value=50.0))
    def test_prototype_offset_tracks_relative_angle(self, offset):
        reflector = MoVRReflector(Vec2(0, 0), boresight_deg=30.0)
        proto = reflector.azimuth_to_prototype(30.0 + offset)
        assert proto == pytest.approx(90.0 + offset, abs=1e-9)


class TestBeamControl:
    def test_set_beams(self, reflector):
        rx, tx = reflector.set_beams(-135.0 + 20.0, -135.0 - 30.0)
        assert rx == pytest.approx(-115.0)
        assert tx == pytest.approx(-165.0)
        assert reflector.rx_azimuth_deg == pytest.approx(-115.0)
        assert reflector.tx_azimuth_deg == pytest.approx(-165.0)

    def test_scan_clipping(self, reflector):
        rx, _ = reflector.set_beams(-135.0 + 80.0, -135.0)
        assert rx == pytest.approx(-135.0 + REFLECTOR_SCAN_DEG)

    def test_point_at(self, reflector):
        ap = Vec2(0.3, 0.3)
        hs = Vec2(2.5, 3.0)
        reflector.point_at(ap, hs)
        from repro.geometry.vectors import bearing_deg

        assert reflector.rx_azimuth_deg == pytest.approx(
            bearing_deg(reflector.position, ap), abs=0.1
        )
        assert reflector.tx_azimuth_deg == pytest.approx(
            bearing_deg(reflector.position, hs), abs=0.1
        )

    def test_can_serve(self, reflector):
        assert reflector.can_serve(Vec2(0.3, 0.3), Vec2(2.5, 2.5))
        # A target behind the mounting wall is unreachable.
        assert not reflector.can_serve(Vec2(0.3, 0.3), Vec2(6.0, 6.0))

    def test_state_snapshot(self, reflector):
        reflector.set_beams(-135.0, -135.0)
        reflector.amplifier.set_gain_db(30.0)
        state = reflector.state()
        assert state.gain_db == 30.0
        assert not state.modulation_on


class TestFeedbackBehaviour:
    def test_stability_matches_criterion(self, reflector):
        reflector.point_at(Vec2(0.3, 0.3), Vec2(2.5, 2.5))
        leak = reflector.leakage_db()
        reflector.amplifier.set_gain_db(-leak - 5.0)
        assert reflector.is_stable()
        assert loop_is_stable(reflector.amplifier.gain_db, leak)

    def test_effective_gain_exceeds_raw_gain(self, reflector):
        reflector.point_at(Vec2(0.3, 0.3), Vec2(2.5, 2.5))
        reflector.amplifier.set_gain_db(40.0)
        effective = reflector.effective_gain_db()
        assert effective is not None
        assert effective >= 40.0

    def test_unstable_returns_none(self):
        # Force instability with a deliberately leaky model.
        from repro.core.leakage import ReflectorLeakageModel

        leaky = ReflectorLeakageModel(
            edge_diffraction_loss_db=1.0,
            board_isolation_db=40.0,
        )
        reflector = MoVRReflector(
            Vec2(4.7, 4.7), boresight_deg=-135.0, leakage=leaky
        )
        reflector.point_at(Vec2(0.3, 0.3), Vec2(2.5, 2.5))
        reflector.amplifier.set_gain_db(60.0)
        if not reflector.is_stable():
            assert reflector.effective_gain_db() is None
            assert reflector.output_power_dbm(-50.0) == pytest.approx(
                reflector.amplifier.spec.psat_dbm
            )

    def test_output_capped_at_psat(self, reflector):
        reflector.point_at(Vec2(0.3, 0.3), Vec2(2.5, 2.5))
        reflector.amplifier.set_gain_db(55.0)
        assert reflector.output_power_dbm(0.0) < reflector.amplifier.spec.psat_dbm

    def test_output_linear_for_weak_input(self, reflector):
        reflector.point_at(Vec2(0.3, 0.3), Vec2(2.5, 2.5))
        reflector.amplifier.set_gain_db(20.0)
        effective = reflector.effective_gain_db()
        out = reflector.output_power_dbm(-60.0)
        assert out == pytest.approx(-60.0 + effective, abs=0.5)

    def test_current_rises_with_gain(self, reflector):
        reflector.point_at(Vec2(0.3, 0.3), Vec2(2.5, 2.5))
        currents = []
        for gain in (10.0, 40.0, 55.0, 60.0):
            reflector.amplifier.set_gain_db(gain)
            currents.append(reflector.current_draw_ma(-48.0))
        assert currents == sorted(currents)
        assert currents[-1] > currents[0] + 20.0

    def test_is_saturated_at(self, reflector):
        reflector.point_at(Vec2(0.3, 0.3), Vec2(2.5, 2.5))
        reflector.amplifier.set_gain_db(10.0)
        assert not reflector.is_saturated_at(-60.0)
        reflector.amplifier.set_gain_db(60.0)
        assert reflector.is_saturated_at(-30.0)


#: Each analog-chain entry with finite explicit arguments.
OPERATING_POINT = {"input_power_dbm": -40.0, "leakage_db": -70.0, "gain_db": 30.0}
ENTRIES = {
    "is_stable": ("leakage_db", "gain_db"),
    "effective_gain_db": ("leakage_db", "gain_db"),
    "output_power_dbm": ("input_power_dbm", "leakage_db", "gain_db"),
    "is_saturated_at": ("input_power_dbm", "leakage_db", "gain_db"),
    "current_draw_ma": ("input_power_dbm", "leakage_db", "gain_db"),
}


class TestExplicitValuesChecked:
    """Every value a caller passes an analog-chain entry is checked where
    it enters: a non-finite one is refused by name."""

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    @pytest.mark.parametrize(
        "entry, name",
        [(entry, name) for entry, names in ENTRIES.items() for name in names],
    )
    def test_non_finite_value_refused(self, reflector, entry, name, bad):
        args = {arg: OPERATING_POINT[arg] for arg in ENTRIES[entry]}
        getattr(reflector, entry)(**args)
        args[name] = bad
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            getattr(reflector, entry)(**args)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf"), float("-inf")])
    def test_non_finite_gain_in_an_array_refused(self, reflector, bad):
        gains = np.array([10.0, bad, 20.0])
        with pytest.raises(ValueError, match=f"gain_db must be finite, got {bad}"):
            reflector.current_draw_ma(-40.0, -70.0, gains)


class TestLeakageMemo:
    """``leakage_db`` keeps no memo: every read evaluates the reflector's
    model at its current beam state."""

    @pytest.fixture
    def counted(self, reflector, monkeypatch):
        calls = []

        def spy(model):
            # The model is frozen: count its calls through the class.
            original = ReflectorLeakageModel.leakage_db

            def counting(instance, tx, rx):
                if instance is model:
                    calls.append((tx, rx))
                return original(instance, tx, rx)

            monkeypatch.setattr(ReflectorLeakageModel, "leakage_db", counting)

        spy(reflector.leakage_model)
        reflector.point_at(Vec2(0.3, 0.3), Vec2(2.5, 2.5))
        return reflector, calls, spy

    def test_every_read_evaluates_the_model(self, counted):
        reflector, calls, _ = counted
        first = reflector.leakage_db()
        assert reflector.is_stable() in (True, False)
        reflector.effective_gain_db()
        assert reflector.leakage_db() == first
        assert len(calls) == 4
        assert calls == [calls[0]] * 4
        assert first == reflector.leakage_model.leakage_db(*calls[0])

    @pytest.mark.parametrize(
        "change",
        [
            lambda r: r.point_at(Vec2(0.3, 0.3), Vec2(1.5, 3.5)),
            lambda r: r.set_beams(-150.0, -120.0),
            lambda r: setattr(r, "boresight_deg", r.boresight_deg + 10.0),
        ],
        ids=["point_at", "set_beams", "boresight"],
    )
    def test_beam_state_change_misses(self, counted, change):
        reflector, calls, _ = counted
        before = reflector.leakage_db()
        change(reflector)
        after = reflector.leakage_db()
        assert len(calls) == 2
        assert calls[0] != calls[1]
        assert after == reflector.leakage_model.leakage_db(*calls[1])
        assert after != before

    def test_swapped_model_misses(self, counted):
        reflector, calls, spy = counted
        reflector.leakage_db()
        swapped = ReflectorLeakageModel(board_isolation_db=70.0)
        spy(swapped)
        reflector.leakage_model = swapped
        value = reflector.leakage_db()
        assert len(calls) == 2
        assert calls[0] == calls[1]  # same angles, new model
        assert value == swapped.leakage_db(*calls[1])


    def test_many_states_match_one_at_a_time(self, counted, monkeypatch):
        """``leakages_db_many`` gives ``leakage_db`` at each beam state in
        turn, all states in one model call, and moves no beam."""
        reflector, _, _ = counted
        ap = Vec2(0.3, 0.3)
        states = [
            reflector.bearings_to(ap, Vec2(x, y))
            for x, y in [(2.5, 2.5), (2.5, 2.5), (1.5, 3.5), (2.5, 2.5)]
        ]
        before = reflector.state()
        pairs = []
        model = reflector.leakage_model
        original = ReflectorLeakageModel.leakage_db_pairs

        def counting_pairs(instance, tx, rx):
            if instance is model:
                pairs.append(list(zip(tx, rx)))
            return original(instance, tx, rx)

        monkeypatch.setattr(ReflectorLeakageModel, "leakage_db_pairs", counting_pairs)
        values = leakages_db_many([reflector] * len(states), states)
        assert reflector.state() == before  # the beams did not move
        assert [len(p) for p in pairs] == [len(states)]
        expected = []
        for rx, tx in states:
            reflector.set_beams(rx, tx)
            expected.append(reflector.leakage_db())
        assert values == expected


class TestLeakagesManyReflectors:
    """``leakages_db_many`` is a pure function of the beam states: one
    model call per equal model, each value what the reflector's own
    ``leakage_db`` gives at that state, no beam moved."""

    STATES = [(2.5, 2.5), (2.5, 2.5), (1.5, 3.5), (3.0, 2.0)]

    @staticmethod
    def fleet():
        spots = [(Vec2(4.7, 4.7), -135.0), (Vec2(0.3, 4.7), -45.0), (Vec2(4.7, 0.3), 135.0)]
        return [MoVRReflector(pos, boresight_deg=b, name=f"r{i}") for i, (pos, b) in enumerate(spots)]

    def steerings(self, reflectors):
        """Every reflector at every state, reflector by reflector."""
        ap = Vec2(0.3, 0.3)
        headsets = [Vec2(x, y) for x, y in self.STATES]
        pairs = [(r, r.bearings_to(ap, hs)) for r in reflectors for hs in headsets]
        return [r for r, _ in pairs], [beams for _, beams in pairs]

    @staticmethod
    def one_at_a_time(reflectors, steerings):
        values = []
        for reflector, beams in zip(reflectors, steerings):
            reflector.set_beams(*beams)
            values.append(reflector.leakage_db())
        return values

    def test_equals_each_reflector_alone(self):
        pooled, alone = self.fleet(), self.fleet()
        for reflectors in (pooled, alone):
            reflectors[1].point_at(Vec2(0.3, 0.3), Vec2(2.5, 2.5))
        before = [r.state() for r in pooled]
        with telemetry.scope("leak") as sc:
            got = leakages_db_many(*self.steerings(pooled))
        # Distinct but equal models: one pair of pattern calls in all.
        assert len({id(r.leakage_model) for r in pooled}) == 3
        assert sc.registry.counter_value("kernel.batches") == 2
        assert [r.state() for r in pooled] == before
        assert got == self.one_at_a_time(*self.steerings(alone))

    def test_unequal_models_are_separate_calls(self):
        pooled, alone = self.fleet(), self.fleet()
        for reflectors in (pooled, alone):
            reflectors[2].leakage_model = ReflectorLeakageModel(board_isolation_db=70.0)
        with telemetry.scope("leak") as sc:
            got = leakages_db_many(*self.steerings(pooled))
        assert sc.registry.counter_value("kernel.batches") == 4
        assert got == self.one_at_a_time(*self.steerings(alone))

    def test_nothing_to_evaluate(self):
        with telemetry.scope("leak") as sc:
            assert leakages_db_many([], []) == []
        assert sc.registry.counter_value("kernel.batches") == 0

    def test_unequal_lengths_are_refused(self):
        reflectors, steerings = self.steerings(self.fleet())
        with pytest.raises(ValueError, match="steerings has 11 entries for 12 "):
            leakages_db_many(reflectors, steerings[:-1])


class TestThroughGain:
    def test_composition(self, reflector):
        ap, hs = Vec2(0.3, 0.3), Vec2(2.5, 2.5)
        reflector.point_at(ap, hs)
        reflector.amplifier.set_gain_db(30.0)
        from repro.geometry.vectors import bearing_deg

        from_az = bearing_deg(reflector.position, ap)
        to_az = bearing_deg(reflector.position, hs)
        through = reflector.through_gain_db(from_az, to_az)
        expected = (
            reflector.rx_array.gain_dbi(from_az)
            + reflector.effective_gain_db()
            + reflector.tx_array.gain_dbi(to_az)
        )
        assert through == expected

    def test_through_gain_peaks_when_aligned(self, reflector):
        ap, hs = Vec2(0.3, 0.3), Vec2(2.5, 2.5)
        from repro.geometry.vectors import bearing_deg

        from_az = bearing_deg(reflector.position, ap)
        to_az = bearing_deg(reflector.position, hs)
        reflector.amplifier.set_gain_db(30.0)
        reflector.point_at(ap, hs)
        aligned = reflector.through_gain_db(from_az, to_az)
        reflector.set_beams(from_az + 25.0, to_az - 25.0)
        misaligned = reflector.through_gain_db(from_az, to_az)
        assert aligned > misaligned + 10.0

    def test_repr(self, reflector):
        assert "movr" in repr(reflector)
