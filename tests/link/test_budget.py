"""Unit tests for the link-budget engine."""

import math

import numpy as np
import pytest

from repro.geometry.bodies import hand_occluder
from repro.geometry.raytrace import RayTracer
from repro import telemetry
from repro.geometry.room import rectangular_room, standard_office
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.budget import LinkBudget, LinkMeasurement
from repro.link.radios import HEADSET_RADIO_CONFIG, Radio
from repro.phy.channel import MmWaveChannel


@pytest.fixture
def setup():
    room = rectangular_room(5.0, 5.0)
    tracer = RayTracer(room)
    budget = LinkBudget(tracer, MmWaveChannel())
    tx = Radio(Vec2(0.5, 0.5), boresight_deg=45.0, name="tx")
    rx = Radio(Vec2(4.0, 4.0), boresight_deg=-135.0, name="rx")
    return budget, tx, rx


class TestMeasure:
    def test_aligned_beats_misaligned(self, setup):
        budget, tx, rx = setup
        los = budget.tracer.line_of_sight(tx.position, rx.position)
        aligned = budget.measure_aligned(tx, rx)
        misaligned = budget.measure(
            tx, rx, tx_steer_deg=los.departure_angle_deg + 30.0,
            rx_steer_deg=los.arrival_angle_deg + 30.0,
        )
        assert aligned.snr_db > misaligned.snr_db

    def test_los_dominant_when_aligned(self, setup):
        budget, tx, rx = setup
        m = budget.measure_aligned(tx, rx)
        assert m.dominant_path is not None
        assert m.dominant_path.is_line_of_sight

    def test_blockage_reduces_snr(self, setup):
        budget, tx, rx = setup
        clear = budget.measure_aligned(tx, rx)
        hand = hand_occluder(rx.position, bearing_deg(rx.position, tx.position))
        blocked = budget.measure_aligned(tx, rx, extra_occluders=[hand])
        assert blocked.snr_db < clear.snr_db - 8.0

    def test_budget_form(self, setup):
        """Received power decomposes into the textbook terms."""
        budget, tx, rx = setup
        los = budget.tracer.line_of_sight(tx.position, rx.position)
        power = budget.path_rx_power_dbm(
            tx, rx, los,
            tx_steer_deg=los.departure_angle_deg,
            rx_steer_deg=los.arrival_angle_deg,
        )
        expected = (
            tx.config.tx_power_dbm
            + tx.array.gain_dbi(los.departure_angle_deg,
                                steer_override_deg=los.departure_angle_deg)
            + rx.array.gain_dbi(los.arrival_angle_deg,
                                steer_override_deg=los.arrival_angle_deg)
            + budget.channel.path_gain_db(los)
            - tx.config.implementation_loss_db
        )
        assert power == pytest.approx(expected)

    def test_measure_with_paths_matches_measure(self, setup):
        budget, tx, rx = setup
        paths = budget.tracer.all_paths(tx.position, rx.position)
        a = budget.measure(tx, rx, 45.0, -135.0)
        b = budget.measure_with_paths(tx, rx, paths, 45.0, -135.0)
        assert a.snr_db == pytest.approx(b.snr_db)
        assert a.received_power_dbm == pytest.approx(b.received_power_dbm)

    def test_sweep_pairs_is_the_per_angle_loop(self, setup):
        """One batched steering sweep gives exactly what measuring each
        angle in turn gives; the tracking experiment relies on it."""
        budget, tx, rx = setup
        paths = budget.cache.all_paths(tx.position, rx.position, max_bounces=1)
        angles = np.arange(-15.0, 105.5, 1.0)
        rx_steer = rx.steer_to(bearing_deg(rx.position, tx.position))
        swept = budget.sweep_pairs(tx, rx, angles, rx_steer, paths=paths)
        loop = [
            budget.measure_with_paths(tx, rx, paths, a, rx_steer).received_power_dbm
            for a in angles
        ]
        np.testing.assert_array_equal(swept, loop)


class TestBestAlignment:
    def test_includes_los_by_default(self, setup):
        budget, tx, rx = setup
        best = budget.best_alignment(tx, rx)
        assert best.dominant_path.is_line_of_sight

    def test_exclude_los_forces_reflection(self, setup):
        budget, tx, rx = setup
        best = budget.best_alignment(tx, rx, include_los=False)
        assert not best.dominant_path.is_line_of_sight
        assert best.snr_db < budget.best_alignment(tx, rx).snr_db

    def test_opt_nlos_weaker_than_los(self, setup):
        budget, tx, rx = setup
        los = budget.best_alignment(tx, rx).snr_db
        nlos = budget.best_alignment(tx, rx, include_los=False).snr_db
        # Reflection loss + longer path: several dB gap.
        assert los - nlos > 5.0

    def test_empty_path_set_is_outage(self, setup):
        budget, tx, rx = setup
        # A single-bounce-only query in a room with all paths blocked
        # cannot happen geometrically, so exercise the guard directly.
        measurement = budget.best_alignment(tx, rx, include_los=False, max_bounces=1)
        assert isinstance(measurement, LinkMeasurement)


def _per_path_powers(channel, tx, rx, paths, tx_steer_deg, rx_steer_deg):
    """Reference: one channel gain and one kernel call per side per path."""
    tx_steer = np.asarray(tx_steer_deg, dtype=float)
    rx_steer = np.asarray(rx_steer_deg, dtype=float)
    shape = np.broadcast(tx_steer, rx_steer).shape
    const = tx.config.tx_power_dbm - tx.config.implementation_loss_db
    powers = np.empty((len(paths),) + shape, dtype=float)
    for i, path in enumerate(paths):
        tx_gain = tx.array.gain_dbi_batch(path.departure_angle_deg, tx_steer)
        rx_gain = rx.array.gain_dbi_batch(path.arrival_angle_deg, rx_steer)
        powers[i] = np.broadcast_to(
            const + channel.path_gain_db(path) + tx_gain + rx_gain, shape
        )
    return powers


STEERINGS = {
    "scalar": (40.0, -150.0),
    "grid": (np.linspace(-10.0, 100.0, 12)[:, None], np.linspace(-180.0, 170.0, 15)[None, :]),
    "pairs": (np.linspace(0.0, 90.0, 7), np.linspace(-170.0, -100.0, 7)),
}


class TestPathPowers:
    """``path_powers_dbm`` evaluates every path in one kernel call per
    side; it must equal the per-path loop exactly."""

    def _scene(self, headset: bool, shadowing_db: float = 0.0):
        tracer = RayTracer(standard_office(furnished=True))
        tx = Radio(Vec2(0.3, 0.3), boresight_deg=45.0, name="ap")
        config = HEADSET_RADIO_CONFIG if headset else tx.config
        rx = Radio(Vec2(3.6, 2.9), boresight_deg=-120.0, config=config, name="rx")
        hand = hand_occluder(rx.position, bearing_deg(rx.position, tx.position))
        paths = tracer.all_paths(tx.position, rx.position, extra_occluders=[hand])

        def channel():
            return MmWaveChannel(
                shadowing_sigma_db=shadowing_db, rng=np.random.default_rng(7)
            )

        return LinkBudget(tracer, channel()), channel(), tx, rx, paths

    @pytest.mark.parametrize("steering", sorted(STEERINGS))
    @pytest.mark.parametrize("headset", [False, True], ids=["one-panel", "three-panel"])
    def test_matches_per_path_loop(self, headset, steering):
        budget, reference_channel, tx, rx, paths = self._scene(headset, shadowing_db=2.0)
        assert len(paths) > 10
        tx_steer, rx_steer = STEERINGS[steering]
        got = budget.path_powers_dbm(tx, rx, paths, tx_steer, rx_steer)
        expected = _per_path_powers(reference_channel, tx, rx, paths, tx_steer, rx_steer)
        assert got.shape == expected.shape
        # Bit-identical, shadowing draws included.
        assert np.array_equal(got, expected)

    @pytest.mark.parametrize("count", [1, 5, None])
    def test_two_kernel_batches_for_any_path_count(self, count):
        budget, _, tx, rx, paths = self._scene(headset=False)
        paths = paths[:count]
        tx_steer, rx_steer = STEERINGS["grid"]
        with telemetry.scope("path-powers") as sc:
            budget.path_powers_dbm(tx, rx, paths, tx_steer, rx_steer)
        counters = sc.registry
        assert counters.counter_value("kernel.batches") == 2
        assert counters.counter_value("kernel.angles") == len(paths) * (12 + 15)


class TestLinkMeasurement:
    def test_outage_flag(self):
        m = LinkMeasurement(
            received_power_dbm=-math.inf,
            snr_db=-math.inf,
            dominant_path=None,
            tx_steer_deg=0.0,
            rx_steer_deg=0.0,
        )
        assert m.in_outage

    def test_not_outage(self, setup):
        budget, tx, rx = setup
        best = budget.best_alignment(tx, rx)
        assert not best.in_outage

    def test_of_total(self, setup):
        """One rule for every measured link: ``-inf`` is the outage,
        anything else is SNR over the noise floor with its path."""
        budget, tx, rx = setup
        path = budget.cache.line_of_sight(tx.position, rx.position)
        dead = LinkMeasurement.of_total(-math.inf, -70.0, path, 10.0, 20.0)
        assert dead == LinkMeasurement.outage(10.0, 20.0)
        live = LinkMeasurement.of_total(-50.0, -70.0, path, 10.0, 20.0)
        assert live == LinkMeasurement(-50.0, 20.0, path, 10.0, 20.0)


class TestMeasureAlignedMany:
    """One array pass over many receivers measures, steers, traces and
    draws exactly as measuring them one at a time."""

    HEADSETS = [(3.6, 2.9), (1.2, 4.1), (4.2, 1.1), (2.4, 2.2), (3.6, 2.9), (4.4, 4.3)]

    def _scene(self):
        tracer = RayTracer(standard_office(furnished=True))
        channel = MmWaveChannel(shadowing_sigma_db=2.0, rng=np.random.default_rng(3))
        budget = LinkBudget(tracer, channel)
        tx = Radio(Vec2(0.3, 0.3), boresight_deg=45.0, name="ap")
        rxs = [
            Radio(
                Vec2(x, y),
                boresight_deg=-30.0 * i,
                config=HEADSET_RADIO_CONFIG if i % 3 else tx.config,
                name=f"rx{i}",
            )
            for i, (x, y) in enumerate(self.HEADSETS)
        ]
        # Each receiver among the others' hands; receivers 0 and 4
        # share a scene, so the batch reads an entry it just traced.
        hands = [
            hand_occluder(rx.position, bearing_deg(rx.position, tx.position)) for rx in rxs
        ]
        occluders = [[h for j, h in enumerate(hands) if j != i] for i in range(len(rxs))]
        occluders[4] = occluders[0]
        # A scene traced (with columns) before the batch.
        budget.measure_aligned(tx, rxs[5], occluders[5])
        return budget, tx, rxs, occluders

    def _measured(self, batched):
        budget, tx, rxs, occluders = self._scene()
        with telemetry.scope("aligned") as sc:
            if batched:
                got = budget.measure_aligned_many(tx, rxs, occluders)
            else:
                got = [budget.measure_aligned(tx, rx, o) for rx, o in zip(rxs, occluders)]
        counters = {
            name: sc.registry.counter_value(name)
            for name in (
                "scene.cache.hits",
                "scene.cache.misses",
                "scene.tracer_calls",
                "kernel.angles",
            )
        }
        state = (
            got,
            counters,
            tx.steering_deg,
            [rx.steering_deg for rx in rxs],
            budget.channel.rng.bit_generator.state,
        )
        return state, sc.registry.counter_value("kernel.batches"), budget

    def test_equals_one_at_a_time(self):
        batched, batches, _ = self._measured(batched=True)
        single, single_batches, _ = self._measured(batched=False)
        assert batched == single
        assert batched[1]["scene.cache.hits"] == 2  # the shared scene, the warm one
        # One kernel call for both sides of every receiver: the AP and
        # the one- and three-panel receivers share a pattern and differ
        # only by their panels' boresights.
        assert batches == 1
        assert single_batches == len(self.HEADSETS)

    def test_columns_built_in_one_formula(self, monkeypatch):
        formulas = []
        original = MmWaveChannel.unshadowed_gains_db

        def counting(channel, path_set):
            formulas.append(len(path_set))
            return original(channel, path_set)

        budget, tx, rxs, occluders = self._scene()
        monkeypatch.setattr(MmWaveChannel, "unshadowed_gains_db", counting)
        budget.measure_aligned_many(tx, rxs, occluders)
        # The four new scenes (the shared one once), in one formula.
        paths = [
            budget.cache.all_paths(tx.position, rx.position, extra_occluders=o)
            for rx, o in zip(rxs, occluders)
        ]
        assert formulas == [sum(len(p) for p in paths[:4])]
        for p in paths:
            budget.channel.link_columns(p)
        assert len(formulas) == 1

    def test_no_receivers(self, setup):
        budget, tx, _ = setup
        assert budget.measure_aligned_many(tx, [], []) == []

    @pytest.mark.parametrize("lists", [1, 3], ids=["fewer", "more"])
    def test_unequal_lengths_are_refused(self, setup, lists):
        """One occluder list per receiver, checked before any lookup."""
        budget, tx, rx = setup
        rxs = [rx, rx.moved_to(Vec2(2.0, 3.0))]
        with telemetry.scope("aligned") as sc:
            with pytest.raises(
                ValueError, match=f"occluder_lists has {lists} entries for 2 rxs"
            ):
                budget.measure_aligned_many(tx, rxs, [()] * lists)
        assert sc.registry.counter_value("scene.cache.misses") == 0
        assert sc.registry.counter_value("scene.cache.hits") == 0
