"""Property tests on link-level physical invariants.

Channel reciprocity, budget monotonicity under blockage, and decision
consistency — checked over randomized geometry with hypothesis.
"""

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.geometry.bodies import hand_occluder
from repro.geometry.raytrace import RayTracer
from repro.geometry.room import rectangular_room
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.budget import LinkBudget
from repro.link.radios import DEFAULT_RADIO_CONFIG, Radio
from repro.phy.channel import MmWaveChannel

interior = st.floats(min_value=0.6, max_value=4.4)
points = st.builds(Vec2, interior, interior)


def make_budget():
    return LinkBudget(RayTracer(rectangular_room(5.0, 5.0)), MmWaveChannel())


class TestReciprocity:
    @settings(max_examples=20, deadline=None)
    @given(points, points)
    def test_aligned_link_is_reciprocal(self, a, b):
        """With identical radios, swapping TX and RX leaves the SNR
        unchanged — channel reciprocity survives the whole stack."""
        assume(a.distance_to(b) > 0.5)
        budget = make_budget()
        node_a = Radio(a, boresight_deg=bearing_deg(a, b), config=DEFAULT_RADIO_CONFIG)
        node_b = Radio(b, boresight_deg=bearing_deg(b, a), config=DEFAULT_RADIO_CONFIG)
        forward = budget.best_alignment(node_a, node_b).snr_db
        backward = budget.best_alignment(node_b, node_a).snr_db
        assert forward == pytest.approx(backward, abs=1e-6)

    @settings(max_examples=20, deadline=None)
    @given(points, points)
    def test_path_gain_reciprocal(self, a, b):
        assume(a.distance_to(b) > 0.5)
        budget = make_budget()
        forward = budget.channel.path_gain_db(budget.tracer.line_of_sight(a, b))
        backward = budget.channel.path_gain_db(budget.tracer.line_of_sight(b, a))
        assert forward == pytest.approx(backward, abs=1e-9)


class TestMonotonicity:
    @settings(max_examples=20, deadline=None)
    @given(points, points)
    def test_blockage_never_helps(self, a, b):
        """Adding an occluder can only reduce (or keep) the SNR."""
        assume(a.distance_to(b) > 1.0)
        budget = make_budget()
        tx = Radio(a, boresight_deg=bearing_deg(a, b), config=DEFAULT_RADIO_CONFIG)
        rx = Radio(b, boresight_deg=bearing_deg(b, a), config=DEFAULT_RADIO_CONFIG)
        clear = budget.measure_aligned(tx, rx).snr_db
        hand = hand_occluder(b, bearing_deg(b, a))
        blocked = budget.measure_aligned(tx, rx, extra_occluders=[hand]).snr_db
        assert blocked <= clear + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(points, points, st.floats(min_value=5.0, max_value=40.0))
    def test_misalignment_never_helps(self, a, b, offset_deg):
        """Steering away from the best alignment never raises SNR."""
        assume(a.distance_to(b) > 1.0)
        budget = make_budget()
        tx = Radio(a, boresight_deg=bearing_deg(a, b), config=DEFAULT_RADIO_CONFIG)
        rx = Radio(b, boresight_deg=bearing_deg(b, a), config=DEFAULT_RADIO_CONFIG)
        best = budget.best_alignment(tx, rx)
        skewed = budget.measure(
            tx,
            rx,
            tx_steer_deg=best.tx_steer_deg + offset_deg,
            rx_steer_deg=best.rx_steer_deg,
        )
        assert skewed.snr_db <= best.snr_db + 1e-9
