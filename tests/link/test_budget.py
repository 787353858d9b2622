"""Unit tests for the link-budget engine."""

import math

import numpy as np
import pytest

from repro.geometry.bodies import hand_occluder
from repro.geometry.raytrace import RayTracer
from repro.geometry.room import rectangular_room
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.budget import LinkBudget, LinkMeasurement
from repro.link.radios import Radio
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
        aligned = budget.measure_aligned(tx, rx, los)
        misaligned = budget.measure(
            tx, rx, tx_steer_deg=los.departure_angle_deg + 30.0,
            rx_steer_deg=los.arrival_angle_deg + 30.0,
        )
        assert aligned.snr_db > misaligned.snr_db

    def test_los_dominant_when_aligned(self, setup):
        budget, tx, rx = setup
        los = budget.tracer.line_of_sight(tx.position, rx.position)
        m = budget.measure_aligned(tx, rx, los)
        assert m.dominant_path is not None
        assert m.dominant_path.is_line_of_sight

    def test_blockage_reduces_snr(self, setup):
        budget, tx, rx = setup
        los = budget.tracer.line_of_sight(tx.position, rx.position)
        clear = budget.measure_aligned(tx, rx, los)
        hand = hand_occluder(rx.position, bearing_deg(rx.position, tx.position))
        blocked = budget.measure_aligned(tx, rx, los, extra_occluders=[hand])
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
            + tx.tx_gain_dbi(los.departure_angle_deg,
                             steer_override_deg=los.departure_angle_deg)
            + rx.rx_gain_dbi(los.arrival_angle_deg,
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
