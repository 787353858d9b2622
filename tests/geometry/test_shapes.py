"""Unit tests for walls and occluder shapes.

Where a leg crosses a wall or cuts an occluder is computed by the ray
tracer, so those cases are traced: a line-of-sight query reports the
walls it penetrates and the occluders it cuts.
"""

import math

import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.geometry.raytrace import RayTracer
from repro.geometry.room import Room, Wall, rectangular_room
from repro.geometry.shapes import AxisAlignedBox, Circle, Segment
from repro.geometry.vectors import Vec2

coords = st.floats(min_value=-50.0, max_value=50.0)
points = st.builds(Vec2, coords, coords)
interior = st.floats(min_value=0.5, max_value=4.5)
interior_points = st.builds(Vec2, interior, interior)

BOX_TRACER = RayTracer(rectangular_room(5.0, 5.0))

#: One wall far beyond every point the occluder tests trace between, so
#: only the occluder under test shapes the line of sight.
OPEN_TRACER = RayTracer(Room(walls=[Wall(Segment(Vec2(-100, 100), Vec2(100, 100)))]))


def one_wall_tracer(a, b):
    wall = Wall(Segment(a, b))
    return RayTracer(Room(walls=[wall])), wall


def cuts(occluder, a, b):
    """The obstruction records of the line of sight from a to b."""
    return OPEN_TRACER.line_of_sight(a, b, [occluder]).obstructions


class TestSegment:
    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            Segment(Vec2(1, 1), Vec2(1, 1))

    def test_length_direction_midpoint(self):
        seg = Segment(Vec2(0, 0), Vec2(4, 0))
        assert seg.length == 4.0
        assert seg.direction == Vec2(1, 0)
        assert seg.midpoint == Vec2(2, 0)
        assert seg.normal == Vec2(0, 1)

    def test_point_at(self):
        seg = Segment(Vec2(0, 0), Vec2(2, 2))
        assert seg.point_at(0.5) == Vec2(1, 1)

    def test_crossing_intersection(self):
        tracer, wall = one_wall_tracer(Vec2(0, 2), Vec2(2, 0))
        assert tracer.line_of_sight(Vec2(0, 0), Vec2(2, 2)).penetrated_walls == (wall,)
        # Off the wall, the image of (0, 1) is (1, 2): the bounce toward
        # (1, 0) meets the wall where the two segments cross, at (1, 1).
        (path,) = tracer.reflection_paths(Vec2(0, 1), Vec2(1, 0), max_bounces=1)
        assert path.points[1].x == pytest.approx(1.0)
        assert path.points[1].y == pytest.approx(1.0)

    def test_disjoint_segments(self):
        tracer, _ = one_wall_tracer(Vec2(0, 1), Vec2(1, 1))
        assert tracer.line_of_sight(Vec2(0, 0), Vec2(1, 0)).penetrated_walls == ()

    def test_parallel_segments(self):
        tracer, _ = one_wall_tracer(Vec2(0, 1), Vec2(1, 2))
        assert tracer.line_of_sight(Vec2(0, 0), Vec2(1, 1)).penetrated_walls == ()

    def test_touching_at_endpoint(self):
        tracer, wall = one_wall_tracer(Vec2(1, 0), Vec2(1, 1))
        # A leg ending on a wall grazes it; one passing the wall's end
        # point crosses it.
        assert tracer.line_of_sight(Vec2(0, 0), Vec2(1, 0)).penetrated_walls == ()
        assert tracer.line_of_sight(Vec2(0, 0), Vec2(2, 0)).penetrated_walls == (wall,)

    def test_near_miss_is_none(self):
        tracer, wall = one_wall_tracer(Vec2(1.01, -1), Vec2(1.01, 1))
        assert tracer.line_of_sight(Vec2(0, 0), Vec2(1, 0)).penetrated_walls == ()
        assert tracer.line_of_sight(Vec2(0, 0), Vec2(2, 0)).penetrated_walls == (wall,)

    def test_mirror_image_known(self):
        tracer, wall = one_wall_tracer(Vec2(0, 0), Vec2(1, 0))  # the x axis
        # The image of (0.25, 2) is (0.25, -2); its line to (0.75, 2)
        # meets the wall at (0.5, 0).
        (path,) = tracer.reflection_paths(Vec2(0.25, 2), Vec2(0.75, 2), max_bounces=1)
        assert path.walls == (wall,)
        assert path.points[1] == Vec2(0.5, 0.0)
        assert path.total_length_m == pytest.approx(Vec2(0.5, 4.0).norm)

    @settings(deadline=None)
    @given(interior_points, interior_points)
    def test_mirror_is_involution(self, tx, rx):
        """A reflection traced back retraces its bounce points."""
        assume(tx.distance_to(rx) > 0.5)
        forward = BOX_TRACER.reflection_paths(tx, rx, max_bounces=1)
        backward = BOX_TRACER.reflection_paths(rx, tx, max_bounces=1)
        assert [p.walls for p in forward] == [p.walls for p in backward]
        for there, back in zip(forward, backward):
            assert there.points[1].distance_to(back.points[1]) < 1e-9

    @settings(deadline=None)
    @given(interior_points, interior_points)
    def test_mirror_preserves_distance_to_line(self, tx, rx):
        """A single-bounce path is as long as the line from RX to TX's
        image, which lies as far behind the wall as TX is in front."""
        assume(tx.distance_to(rx) > 0.5)
        for path in BOX_TRACER.reflection_paths(tx, rx, max_bounces=1):
            seg = path.walls[0].segment
            offset = (tx - seg.a).dot(seg.normal)
            image = tx - seg.normal * (2.0 * offset)
            assert path.total_length_m == pytest.approx(image.distance_to(rx), abs=1e-9)


class TestCircle:
    def test_radius_validation(self):
        with pytest.raises(ValueError):
            Circle(Vec2(0, 0), 0.0)

    def test_contains(self):
        c = Circle(Vec2(0, 0), 1.0)
        assert c.contains(Vec2(0.5, 0.5))
        assert not c.contains(Vec2(2, 0))

    @given(points, st.floats(min_value=0.01, max_value=3.0))
    def test_rows_built_once_from_the_geometry(self, center, radius):
        c = Circle(center, radius)
        pad = 1.01 * radius
        assert c.signature == ("circle", center.x, center.y, radius)
        assert c.screen_row == (
            center.x, center.y, radius,
            center.x - pad, center.y - pad, center.x + pad, center.y + pad,
        )
        assert c.signature is c.signature and c.screen_row is c.screen_row

    def test_leg_within_radius_is_cut(self):
        assert not cuts(Circle(Vec2(0, 1), 0.5), Vec2(-2, 0), Vec2(2, 0))
        assert cuts(Circle(Vec2(0, 0.3), 0.5), Vec2(-2, 0), Vec2(2, 0))

    def test_chord_through_center(self):
        (cut,) = cuts(Circle(Vec2(0, 0), 1.0), Vec2(-5, 0), Vec2(5, 0))
        assert cut.depth_m == pytest.approx(2.0)

    def test_chord_offset(self):
        (cut,) = cuts(Circle(Vec2(0, 0.6), 1.0), Vec2(-5, 0), Vec2(5, 0))
        assert cut.depth_m == pytest.approx(1.6)

    def test_chord_disjoint_is_zero(self):
        assert cuts(Circle(Vec2(0, 3), 1.0), Vec2(-5, 0), Vec2(5, 0)) == ()

    def test_chord_clipped_by_segment_extent(self):
        # The leg ends at the circle's center.
        (cut,) = cuts(Circle(Vec2(0, 0), 1.0), Vec2(-5, 0), Vec2(0, 0))
        assert cut.depth_m == pytest.approx(1.0)

    def test_clearance_sign(self):
        (cut,) = cuts(Circle(Vec2(0, 0.5), 1.0), Vec2(-5, 0), Vec2(5, 0))
        assert cut.clearance_m == pytest.approx(-0.5)
        assert cut.along_leg_m == pytest.approx(5.0)
        # A circle clear of the leg leaves no record at all.
        assert cuts(Circle(Vec2(0, 2), 1.0), Vec2(-5, 0), Vec2(5, 0)) == ()

    def test_clearance_measured_to_nearest_leg_end(self):
        # The centre lies before the leg's start: its distance to the
        # leg is its distance to the start, 0.5.
        (cut,) = cuts(Circle(Vec2(-0.3, 0.4), 1.0), Vec2(0, 0), Vec2(5, 0))
        assert cut.clearance_m == pytest.approx(-0.5)
        assert cut.along_leg_m == 0.0

    @given(
        st.builds(Circle, points, st.floats(min_value=0.1, max_value=5.0)),
        points,
        points,
    )
    def test_chord_bounded_by_diameter_and_segment(self, circle, a, b):
        assume(a.distance_to(b) > 0.1)
        center, radius = circle.center, circle.radius
        for cut in cuts(circle, a, b):
            assert 0.0 < cut.depth_m <= min(2.0 * radius, a.distance_to(b)) + 1e-9
            # The clearance is measured to the closest point of the leg.
            assert -radius <= cut.clearance_m < 0.0
            nearest_end = min(center.distance_to(a), center.distance_to(b))
            assert cut.clearance_m + radius <= nearest_end + 1e-9


class TestAxisAlignedBox:
    def test_corner_validation(self):
        with pytest.raises(ValueError):
            AxisAlignedBox(Vec2(1, 1), Vec2(1, 2))

    @given(points, st.floats(min_value=0.01, max_value=3.0), st.floats(min_value=0.01, max_value=3.0))
    def test_rows_built_once_from_the_geometry(self, lo, w, h):
        hi = Vec2(lo.x + w, lo.y + h)
        assume(lo.x < hi.x and lo.y < hi.y)
        box = AxisAlignedBox(lo, hi)
        c = (lo + hi) * 0.5
        assert box.signature == ("box", lo.x, lo.y, hi.x, hi.y)
        assert box.screen_row == (c.x, c.y, 0.0, lo.x, lo.y, hi.x, hi.y)
        assert box.signature is box.signature and box.screen_row is box.screen_row

    def test_dimensions(self):
        box = AxisAlignedBox(Vec2(0, 0), Vec2(2, 3))
        assert box.width == 2.0
        assert box.height == 3.0
        assert box.center == Vec2(1, 1.5)

    def test_contains(self):
        box = AxisAlignedBox(Vec2(0, 0), Vec2(1, 1))
        assert box.contains(Vec2(0.5, 0.5))
        assert not box.contains(Vec2(1.5, 0.5))

    def test_segment_through_box(self):
        box = AxisAlignedBox(Vec2(0, 0), Vec2(1, 1))
        assert cuts(box, Vec2(-1, 0.5), Vec2(2, 0.5))
        assert not cuts(box, Vec2(-1, 2), Vec2(2, 2))

    def test_segment_endpoint_inside(self):
        box = AxisAlignedBox(Vec2(0, 0), Vec2(1, 1))
        assert cuts(box, Vec2(0.5, 0.5), Vec2(5, 5))

    def test_chord_straight_through(self):
        box = AxisAlignedBox(Vec2(0, 0), Vec2(2, 1))
        (cut,) = cuts(box, Vec2(-1, 0.5), Vec2(3, 0.5))
        assert cut.depth_m == pytest.approx(2.0)
        assert cut.clearance_m == pytest.approx(-1.0)
        assert cut.along_leg_m == pytest.approx(2.0)

    def test_chord_diagonal(self):
        box = AxisAlignedBox(Vec2(0, 0), Vec2(1, 1))
        (cut,) = cuts(box, Vec2(-1, -1), Vec2(2, 2))
        assert cut.depth_m == pytest.approx(math.sqrt(2.0))

    def test_chord_zero_when_disjoint(self):
        box = AxisAlignedBox(Vec2(0, 0), Vec2(1, 1))
        assert cuts(box, Vec2(2, 2), Vec2(3, 3)) == ()

    def test_vertical_segment_outside_slab(self):
        box = AxisAlignedBox(Vec2(0, 0), Vec2(1, 1))
        assert cuts(box, Vec2(2, -1), Vec2(2, 2)) == ()
        # Along the slab, inside it: the whole overlap is the chord.
        (cut,) = cuts(box, Vec2(0.5, -1), Vec2(0.5, 2))
        assert cut.depth_m == pytest.approx(1.0)
