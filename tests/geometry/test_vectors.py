"""Unit tests for 2-D vector algebra."""


import pytest
from hypothesis import assume, given, strategies as st

from repro.geometry.raytrace import MIN_SEPARATION_M, RayTracer
from repro.geometry.room import Room, Wall
from repro.geometry.shapes import Circle, Segment
from repro.geometry.vectors import Vec2, bearing_deg

coords = st.floats(min_value=-100.0, max_value=100.0)
vectors = st.builds(Vec2, coords, coords)
nonzero_vectors = vectors.filter(lambda v: v.norm > 1e-6)


class TestArithmetic:
    def test_add_sub(self):
        assert Vec2(1, 2) + Vec2(3, 4) == Vec2(4, 6)
        assert Vec2(3, 4) - Vec2(1, 2) == Vec2(2, 2)

    def test_scalar_ops(self):
        assert Vec2(1, 2) * 3.0 == Vec2(3, 6)
        assert 3.0 * Vec2(1, 2) == Vec2(3, 6)
        assert Vec2(2, 4) / 2.0 == Vec2(1, 2)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            Vec2(1, 1) / 0.0

    def test_negation_and_iteration(self):
        assert -Vec2(1, -2) == Vec2(-1, 2)
        assert list(Vec2(5, 6)) == [5, 6]

    def test_hashable(self):
        assert len({Vec2(1, 2), Vec2(1, 2), Vec2(2, 1)}) == 2


class TestGeometry:
    def test_dot_cross_known(self):
        assert Vec2(1, 0).dot(Vec2(0, 1)) == 0.0
        assert Vec2(1, 0).cross(Vec2(0, 1)) == 1.0
        assert Vec2(0, 1).cross(Vec2(1, 0)) == -1.0

    def test_norm(self):
        assert Vec2(3, 4).norm == 5.0
        assert Vec2(3, 4).norm_squared == 25.0

    def test_normalized(self):
        n = Vec2(3, 4).normalized()
        assert n.norm == pytest.approx(1.0)
        assert n.x == pytest.approx(0.6)

    def test_normalize_zero_raises(self):
        with pytest.raises(ValueError):
            Vec2.zero().normalized()

    def test_perpendicular_is_ccw(self):
        assert Vec2(1, 0).perpendicular() == Vec2(0, 1)

    def test_angle_deg_axes(self):
        assert Vec2(1, 0).angle_deg() == pytest.approx(0.0)
        assert Vec2(0, 1).angle_deg() == pytest.approx(90.0)
        assert Vec2(-1, 0).angle_deg() == pytest.approx(-180.0)
        assert Vec2(0, -1).angle_deg() == pytest.approx(-90.0)

    def test_from_polar(self):
        v = Vec2.from_polar(2.0, 90.0)
        assert v.x == pytest.approx(0.0, abs=1e-12)
        assert v.y == pytest.approx(2.0)

    def test_distance(self):
        assert Vec2(0, 0).distance_to(Vec2(3, 4)) == 5.0

    @given(vectors, st.floats(min_value=-360.0, max_value=360.0))
    def test_rotation_preserves_norm(self, v, angle):
        assert v.rotated(angle).norm == pytest.approx(v.norm, abs=1e-6)

    @given(nonzero_vectors)
    def test_from_polar_round_trip(self, v):
        rebuilt = Vec2.from_polar(v.norm, v.angle_deg())
        assert rebuilt.x == pytest.approx(v.x, abs=1e-6)
        assert rebuilt.y == pytest.approx(v.y, abs=1e-6)

    @given(vectors, vectors)
    def test_dot_symmetric_cross_antisymmetric(self, a, b):
        assert a.dot(b) == pytest.approx(b.dot(a))
        assert a.cross(b) == pytest.approx(-b.cross(a))

    @given(nonzero_vectors)
    def test_perpendicular_orthogonal(self, v):
        assert v.dot(v.perpendicular()) == pytest.approx(0.0, abs=1e-6)


class TestBearing:
    def test_cardinal_bearings(self):
        origin = Vec2(1, 1)
        assert bearing_deg(origin, Vec2(2, 1)) == pytest.approx(0.0)
        assert bearing_deg(origin, Vec2(1, 2)) == pytest.approx(90.0)

    def test_identical_points_raise(self):
        with pytest.raises(ValueError):
            bearing_deg(Vec2(1, 1), Vec2(1, 1))

    @given(nonzero_vectors)
    def test_bearing_reverses(self, delta):
        a = Vec2(0, 0)
        b = delta
        forward = bearing_deg(a, b)
        backward = bearing_deg(b, a)
        diff = abs((forward - backward + 180.0) % 360.0 - 180.0)
        assert diff == pytest.approx(180.0, abs=1e-6) or diff == pytest.approx(
            -180.0, abs=1e-6
        )


#: One wall far beyond every point the projection tests trace between.
OPEN_TRACER = RayTracer(Room(walls=[Wall(Segment(Vec2(-1000, 1000), Vec2(1000, 1000)))]))


def circle_cut(point, radius, a, b):
    """The cut a circle of ``radius`` around ``point`` makes in leg a->b.

    The ray tracer projects an occluder's centre onto each leg: the cut's
    ``along_leg_m`` places the projection and ``clearance_m + radius`` is
    the centre's distance to the leg.
    """
    (cut,) = OPEN_TRACER.line_of_sight(a, b, [Circle(point, radius)]).obstructions
    return cut


class TestProjection:
    def test_interior_projection(self):
        a, b = Vec2(0, 0), Vec2(2, 0)
        cut = circle_cut(Vec2(1, 1), 1.5, a, b)
        assert a + (b - a).normalized() * cut.along_leg_m == Vec2(1, 0)

    def test_distance_known(self):
        cut = circle_cut(Vec2(1, 2), 2.5, Vec2(0, 0), Vec2(2, 0))
        assert cut.clearance_m + 2.5 == 2.0

    @given(vectors, nonzero_vectors)
    def test_projection_is_closest_endpointwise(self, point, delta):
        # The tracer refuses legs shorter than the far-field limit.
        assume(delta.norm >= MIN_SEPARATION_M)
        a = Vec2(0, 0)
        b = delta
        # A radius over twice the farthest leg end always leaves a cut.
        radius = 2.0 * max(point.distance_to(a), point.distance_to(b)) + 1.0
        d = circle_cut(point, radius, a, b).clearance_m + radius
        assert d <= point.distance_to(a) + 1e-9
        assert d <= point.distance_to(b) + 1e-9
