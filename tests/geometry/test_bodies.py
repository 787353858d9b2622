"""Unit tests for human-body occluder models."""

import pytest

from repro.geometry.bodies import (
    HAND_RADIUS_M,
    HEAD_RADIUS_M,
    TORSO_RADIUS_M,
    PersonModel,
    hand_occluder,
    head_occluder,
    person_blocking_path,
    self_head_blocking,
)
from repro.geometry.raytrace import RayTracer
from repro.geometry.room import rectangular_room
from repro.geometry.vectors import Vec2, bearing_deg

TRACER = RayTracer(rectangular_room(5.0, 5.0))


def blocks(occluder, a, b):
    """Whether the occluder cuts the line of sight from a to b."""
    return TRACER.line_of_sight(a, b, [occluder]).is_obstructed


class TestHandOccluder:
    def test_placed_toward_target(self):
        headset = Vec2(2.0, 2.0)
        hand = hand_occluder(headset, toward_angle_deg=0.0, reach_m=0.3)
        assert hand.center == Vec2(2.3, 2.0)
        assert hand.radius == HAND_RADIUS_M

    def test_blocks_the_path_it_faces(self):
        headset = Vec2(2.0, 2.0)
        ap = Vec2(0.0, 2.0)
        hand = hand_occluder(headset, bearing_deg(headset, ap))
        assert blocks(hand, ap, headset)

    def test_does_not_block_other_directions(self):
        headset = Vec2(2.0, 2.0)
        hand = hand_occluder(headset, toward_angle_deg=0.0)
        # A path arriving from behind the headset is clear.
        assert not blocks(hand, Vec2(0.0, 2.0), headset)

    def test_reach_validated(self):
        with pytest.raises(ValueError):
            hand_occluder(Vec2(0, 0), 0.0, reach_m=0.0)


class TestHeadOccluder:
    def test_anthropometric_radius(self):
        head = head_occluder(Vec2(1, 1))
        assert head.radius == HEAD_RADIUS_M

    def test_self_head_blocks_ap_direction(self):
        headset = Vec2(3.0, 3.0)
        ap = Vec2(0.3, 0.3)
        head = self_head_blocking(headset, ap)
        assert blocks(head, ap, headset)
        # The head sits between the receiver and the AP.
        assert head.center.distance_to(ap) < headset.distance_to(ap)


class TestPersonModel:
    def test_occluders_include_torso_and_head(self):
        person = PersonModel(position=Vec2(2, 2))
        occluders = person.occluders()
        assert len(occluders) == 2
        radii = sorted(o.radius for o in occluders)
        assert radii == sorted([TORSO_RADIUS_M, HEAD_RADIUS_M])

    def test_advanced_moves_along_heading(self):
        person = PersonModel(position=Vec2(0, 0), heading_deg=90.0)
        moved = person.advanced(2.0)
        assert moved.position.x == pytest.approx(0.0, abs=1e-9)
        assert moved.position.y == pytest.approx(2.0)
        assert moved.heading_deg == 90.0

    def test_person_blocking_path_sits_on_the_line(self):
        tx, rx = Vec2(0, 0), Vec2(4, 0)
        person = person_blocking_path(tx, rx, fraction=0.25)
        assert person.position == Vec2(1, 0)
        assert any(blocks(o, tx, rx) for o in person.occluders())

    def test_heading_perpendicular_to_path(self):
        person = person_blocking_path(Vec2(0, 0), Vec2(4, 0), fraction=0.5)
        assert person.heading_deg == pytest.approx(90.0)

    def test_fraction_validated(self):
        with pytest.raises(ValueError):
            person_blocking_path(Vec2(0, 0), Vec2(1, 0), fraction=0.0)
        with pytest.raises(ValueError):
            person_blocking_path(Vec2(0, 0), Vec2(1, 0), fraction=1.0)
