"""Unit tests for through-wall penetration accounting."""

import pytest

from repro.experiments.apartment import build_apartment
from repro.geometry.raytrace import RayTracer
from repro.geometry.room import DRYWALL, GLASS, Wall, rectangular_room
from repro.geometry.shapes import Segment
from repro.geometry.vectors import Vec2
from repro.phy.channel import MmWaveChannel


@pytest.fixture
def partitioned_room():
    room = rectangular_room(8.0, 5.0)
    room.walls.append(Wall(Segment(Vec2(4.0, 0.0), Vec2(4.0, 5.0)), DRYWALL))
    return room


class TestPenetratedWalls:
    def test_open_room_no_penetrations(self):
        tracer = RayTracer(rectangular_room(5.0, 5.0))
        path = tracer.line_of_sight(Vec2(1, 1), Vec2(4, 4))
        assert path.penetrated_walls == ()
        assert path.total_penetration_loss_db == 0.0

    def test_partition_crossing_recorded(self, partitioned_room):
        tracer = RayTracer(partitioned_room)
        path = tracer.line_of_sight(Vec2(1, 2.5), Vec2(7, 2.5))
        assert len(path.penetrated_walls) == 1
        assert path.total_penetration_loss_db == pytest.approx(
            DRYWALL.penetration_loss_db
        )

    def test_same_side_not_crossing(self, partitioned_room):
        tracer = RayTracer(partitioned_room)
        path = tracer.line_of_sight(Vec2(1, 1), Vec2(3, 4))
        assert path.penetrated_walls == ()

    def test_channel_applies_penetration_loss(self, partitioned_room):
        tracer = RayTracer(partitioned_room)
        channel = MmWaveChannel()
        through = tracer.line_of_sight(Vec2(1, 2.5), Vec2(7, 2.5))
        clear_room = RayTracer(rectangular_room(8.0, 5.0))
        clear = clear_room.line_of_sight(Vec2(1, 2.5), Vec2(7, 2.5))
        assert channel.path_gain_db(through) == pytest.approx(
            channel.path_gain_db(clear) - DRYWALL.penetration_loss_db
        )

    def test_glass_partition_cheaper_than_drywall(self):
        room = rectangular_room(8.0, 5.0)
        room.walls.append(Wall(Segment(Vec2(4.0, 0.0), Vec2(4.0, 5.0)), GLASS))
        tracer = RayTracer(room)
        channel = MmWaveChannel()
        path = tracer.line_of_sight(Vec2(1, 2.5), Vec2(7, 2.5))
        assert path.total_penetration_loss_db == pytest.approx(
            GLASS.penetration_loss_db
        )
        assert GLASS.penetration_loss_db < DRYWALL.penetration_loss_db

    def test_doorway_gap_passes_freely(self):
        apartment = build_apartment()
        tracer = RayTracer(apartment)
        # Through the 1 m doorway at y in [2, 3].
        path = tracer.line_of_sight(Vec2(1.0, 2.5), Vec2(7.0, 2.5))
        assert path.penetrated_walls == ()
        # Off the doorway: blocked by the partition.
        blocked = tracer.line_of_sight(Vec2(1.0, 4.5), Vec2(7.0, 4.5))
        assert len(blocked.penetrated_walls) == 1

    def test_reflections_do_not_cross_partitions(self, partitioned_room):
        """Reflection paths across the partition are dropped entirely
        (penetration + reflection loss makes them irrelevant)."""
        tracer = RayTracer(partitioned_room)
        paths = tracer.reflection_paths(Vec2(1, 2.5), Vec2(7, 2.5), max_bounces=1)
        for path in paths:
            for i in range(len(path.points) - 1):
                leg = tracer.line_of_sight(path.points[i], path.points[i + 1])
                crossed = leg.penetrated_walls
                # Bounce walls touch at endpoints; strict crossings are
                # excluded by construction.
                assert all(w in path.walls for w in crossed) or not crossed
