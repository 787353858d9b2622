"""Unit tests for the image-method ray tracer."""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from repro.geometry.bodies import hand_occluder
from repro.geometry.raytrace import (
    MAX_IMAGE_TREES,
    MIN_SEPARATION_M,
    PathSet,
    PropagationPath,
    RayTracer,
    _clamp,
    _cuts,
    _in_hull,
)
from repro.geometry.room import (
    CONCRETE,
    DRYWALL,
    GLASS,
    METAL,
    Room,
    Wall,
    rectangular_room,
    standard_office,
)
from repro.geometry.shapes import EPSILON, AxisAlignedBox, Circle, Segment
from repro.geometry.vectors import Vec2, bearing_deg
from repro.sim.cache import SceneCache
from repro.utils.exactmath import hypot as _hypot, left_sum

interior = st.floats(min_value=0.5, max_value=4.5)
interior_points = st.builds(Vec2, interior, interior)

#: The furnished office: six walls (so 6 single- and 30 double-bounce
#: candidates) and three furniture occluders.
OFFICE_TRACER = RayTracer(standard_office(furnished=True))
office_coord = st.floats(min_value=0.1, max_value=4.9)
office_points = st.builds(Vec2, office_coord, office_coord)
BARE_OFFICE_TRACER = RayTracer(standard_office(furnished=False))
extra_occluders = st.lists(
    st.one_of(
        st.builds(Circle, office_points, st.floats(min_value=0.05, max_value=0.6)),
        st.builds(
            lambda corner, w, h: AxisAlignedBox(corner, corner + Vec2(w, h)),
            office_points,
            st.floats(min_value=0.05, max_value=1.0),
            st.floats(min_value=0.05, max_value=1.0),
        ),
    ),
    max_size=3,
)


@pytest.fixture
def room():
    return rectangular_room(5.0, 5.0)


@pytest.fixture
def tracer(room):
    return RayTracer(room)


class TestLineOfSight:
    def test_clear_path(self, tracer):
        path = tracer.line_of_sight(Vec2(1, 1), Vec2(4, 4))
        assert path.is_line_of_sight
        assert path.num_bounces == 0
        assert not path.is_obstructed
        assert path.total_length_m == pytest.approx(3.0 * math.sqrt(2.0))

    def test_departure_arrival_angles(self, tracer):
        path = tracer.line_of_sight(Vec2(1, 1), Vec2(4, 1))
        assert path.departure_angle_deg == pytest.approx(0.0)
        assert path.arrival_angle_deg == pytest.approx(-180.0)

    def test_too_close_rejected(self, tracer):
        with pytest.raises(ValueError, match="far-field"):
            tracer.line_of_sight(Vec2(1, 1), Vec2(1.001, 1))

    def test_occluder_annotated(self, tracer):
        blocker = Circle(Vec2(2.5, 1.0), 0.2)
        path = tracer.line_of_sight(Vec2(1, 1), Vec2(4, 1), [blocker])
        assert path.is_obstructed
        (obs,) = path.obstructions
        assert obs.depth_m == pytest.approx(0.4, abs=1e-6)
        assert obs.clearance_m == pytest.approx(-0.2, abs=1e-6)
        assert obs.along_leg_m == pytest.approx(1.5, abs=1e-6)
        assert obs.leg_length_m == pytest.approx(3.0)

    def test_room_occluders_included_by_default(self):
        room = rectangular_room(5.0, 5.0)
        room.add_occluder(Circle(Vec2(2.5, 1.0), 0.2))
        tracer = RayTracer(room)
        assert tracer.line_of_sight(Vec2(1, 1), Vec2(4, 1)).is_obstructed

    def test_room_occluders_skippable(self):
        room = rectangular_room(5.0, 5.0)
        room.add_occluder(Circle(Vec2(2.5, 1.0), 0.2))
        tracer = RayTracer(room)
        path = tracer.line_of_sight(
            Vec2(1, 1), Vec2(4, 1), include_room_occluders=False
        )
        assert not path.is_obstructed

    def test_propagation_delay(self, tracer):
        path = tracer.line_of_sight(Vec2(1, 1), Vec2(4, 1))
        assert path.propagation_delay_s() == pytest.approx(3.0 / 299_792_458.0)


class TestSingleBounce:
    def test_four_walls_give_four_paths(self, tracer):
        paths = tracer.reflection_paths(Vec2(1, 2), Vec2(4, 2), max_bounces=1)
        assert len(paths) == 4
        assert all(p.num_bounces == 1 for p in paths)

    @settings(max_examples=40, deadline=None)
    @given(office_points, office_points)
    def test_reflection_law_holds(self, tx, rx):
        """Every bounce of every single- and double-bounce path in the
        furnished office reflects specularly."""
        assume(tx.distance_to(rx) > 0.1)
        for path in OFFICE_TRACER.reflection_paths(tx, rx, max_bounces=2):
            for i, wall in enumerate(path.walls, start=1):
                bounce = path.points[i]
                incoming = (bounce - path.points[i - 1]).normalized()
                outgoing = (path.points[i + 1] - bounce).normalized()
                normal = wall.segment.normal
                # Angle of incidence equals angle of reflection.
                assert abs(incoming.dot(normal)) == pytest.approx(
                    abs(outgoing.dot(normal)), abs=1e-9
                )

    @settings(max_examples=40, deadline=None)
    @given(office_points, office_points)
    def test_bounce_point_on_wall(self, tx, rx):
        """Every bounce point of every path lies on the wall it
        reflects on."""
        assume(tx.distance_to(rx) > 0.1)
        for path in OFFICE_TRACER.reflection_paths(tx, rx, max_bounces=2):
            for bounce, wall in zip(path.points[1:-1], path.walls):
                seg = wall.segment
                # Within a micrometre of the wall line, between its ends.
                assert abs((bounce - seg.a).cross(seg.direction)) < 1e-6
                along = (bounce - seg.a).dot(seg.direction)
                assert -1e-6 < along < seg.length + 1e-6

    def test_reflection_longer_than_direct(self, tracer):
        direct = tracer.line_of_sight(Vec2(1, 1), Vec2(4, 3)).total_length_m
        for path in tracer.reflection_paths(Vec2(1, 1), Vec2(4, 3), max_bounces=1):
            assert path.total_length_m > direct - 1e-9

    def test_reflection_loss_uses_material(self):
        room = rectangular_room(5.0, 5.0, METAL)
        tracer = RayTracer(room)
        paths = tracer.reflection_paths(Vec2(1, 1), Vec2(4, 3), max_bounces=1)
        assert all(
            p.total_reflection_loss_db == METAL.reflection_loss_db for p in paths
        )

    @settings(max_examples=25, deadline=None)
    @given(interior_points, interior_points)
    def test_image_method_symmetry(self, tx, rx):
        """Swapping TX and RX yields the same path lengths."""
        assume(tx.distance_to(rx) > 0.5)
        tracer = RayTracer(rectangular_room(5.0, 5.0))
        forward = sorted(
            p.total_length_m for p in tracer.reflection_paths(tx, rx, max_bounces=1)
        )
        backward = sorted(
            p.total_length_m for p in tracer.reflection_paths(rx, tx, max_bounces=1)
        )
        assert len(forward) == len(backward)
        for f, b in zip(forward, backward):
            assert f == pytest.approx(b, abs=1e-6)


class TestDoubleBounce:
    def test_paths_of_two_bounces_exist(self, tracer):
        paths = tracer.reflection_paths(Vec2(1, 2), Vec2(4, 2), max_bounces=2)
        doubles = [p for p in paths if p.num_bounces == 2]
        assert doubles
        for path in doubles:
            assert len(path.points) == 4
            assert path.total_reflection_loss_db == pytest.approx(
                2.0 * DRYWALL.reflection_loss_db
            )

    def test_two_bounce_longer_than_single(self, tracer):
        paths = tracer.reflection_paths(Vec2(1, 2), Vec2(4, 2), max_bounces=2)
        singles = [p.total_length_m for p in paths if p.num_bounces == 1]
        doubles = [p.total_length_m for p in paths if p.num_bounces == 2]
        assert min(doubles) > min(singles)

    def test_max_bounces_validated(self, tracer):
        # Only one and two bounces are traced; anything else is refused
        # rather than silently traced at two.
        for max_bounces in (0, 3):
            with pytest.raises(ValueError, match="max_bounces"):
                tracer.reflection_paths(Vec2(1, 1), Vec2(4, 4), max_bounces=max_bounces)


class TestAllPaths:
    def test_includes_los_first(self, tracer):
        paths = tracer.all_paths(Vec2(1, 1), Vec2(4, 3))
        assert paths[0].is_line_of_sight
        assert all(not p.is_line_of_sight for p in paths[1:])

    @settings(max_examples=150, deadline=None)
    @given(st.booleans(), office_points, office_points, extra_occluders)
    def test_line_of_sight_is_the_first_path(self, furnished, tx, rx, extras):
        # The cache answers the direct link's LOS from all_paths(...)[0].
        assume(tx.distance_to(rx) >= MIN_SEPARATION_M)
        tracer = OFFICE_TRACER if furnished else BARE_OFFICE_TRACER
        los = tracer.line_of_sight(tx, rx, extras)
        for max_bounces in (1, 2):
            assert tracer.all_paths(tx, rx, max_bounces, extras)[0] == los

    def test_occluders_annotated_on_reflections(self, tracer):
        rx = Vec2(4, 1)
        hand = hand_occluder(rx, toward_angle_deg=180.0)
        paths = tracer.all_paths(Vec2(1, 1), rx, extra_occluders=[hand])
        assert paths[0].is_obstructed  # the LOS is cut
        # The hand also clips reflections arriving from the AP side.
        assert any(p.is_obstructed for p in paths[1:])

    def test_path_validation(self):
        with pytest.raises(ValueError):
            PropagationPath(points=(Vec2(0, 0),), walls=())
        with pytest.raises(ValueError):
            PropagationPath(points=(Vec2(0, 0), Vec2(1, 1)), walls=("x",))


class TestInteriorWallBlocking:
    def test_interior_wall_blocks_crossing_reflections(self):
        room = rectangular_room(5.0, 5.0)
        # A free-standing interior wall splitting the room.
        room.walls.append(Wall(Segment(Vec2(2.5, 1.0), Vec2(2.5, 4.0)), DRYWALL))
        tracer = RayTracer(room)
        paths = tracer.reflection_paths(Vec2(1, 2), Vec2(4, 2), max_bounces=1)
        # Bounces off the north/south walls at x~2.5 would cross the
        # interior wall and must be dropped; bounces off the interior
        # wall itself survive.
        for path in paths:
            for leg_start, leg_end in zip(path.points, path.points[1:]):
                mid = (leg_start + leg_end) * 0.5
                # No leg midpoint may sit on the far side crossing.
                assert not (
                    abs(mid.x - 2.5) < 0.01 and 1.0 < mid.y < 4.0
                ) or path.walls[0].segment.a.x == 2.5

    def test_wall_edit_then_invalidate_retraces(self):
        """Walls are read on every trace: a partition added to a room
        already traced through a cache shows once the cache is
        invalidated."""
        room = rectangular_room(5.0, 5.0)
        cache = SceneCache(RayTracer(room))
        tx, rx = Vec2(1, 2.5), Vec2(4, 2.5)
        before = cache.all_paths(tx, rx, max_bounces=1)
        assert before[0].penetrated_walls == ()
        assert len(before) == 5
        partition = Wall(Segment(Vec2(2.5, 1.0), Vec2(2.5, 4.0)), DRYWALL)
        room.walls.append(partition)
        cache.invalidate()
        after = cache.all_paths(tx, rx, max_bounces=1)
        assert after[0].penetrated_walls == (partition,)
        # The east and west bounces run along y = 2.5, through the
        # partition; the south and north ones pass beyond its ends.
        assert [p.walls for p in after[1:]] == [(room.walls[0],), (room.walls[2],)]


class TestFlushFixtures:
    def test_radio_on_a_fixture_line(self):
        """A radio on the north wall under the window: chains bouncing
        between the two collinear walls would have a zero-length leg,
        so they are dropped."""
        paths = OFFICE_TRACER.all_paths(Vec2(2.0, 5.0), Vec2(3.0, 3.0))
        assert paths[0].is_line_of_sight
        for path in paths:
            for a, b in zip(path.points, path.points[1:]):
                assert a.distance_to(b) >= MIN_SEPARATION_M

    @pytest.mark.xfail(
        strict=True,
        reason="a bounce inside a flush fixture is traced off the fixture and "
        "off the wall behind it (ROADMAP: flush fixtures double-count)",
    )
    def test_no_two_reflections_share_their_points(self):
        paths = OFFICE_TRACER.reflection_paths(Vec2(3, 3), Vec2(3, 4))
        points = [path.points for path in paths]
        assert len(set(points)) == len(points)


class TestCircleChord:
    @pytest.mark.xfail(
        strict=True,
        reason="a circle's chord is sized from the centre's clamped distance to "
        "the leg, not its distance to the leg's line (ROADMAP: a circle's chord "
        "uses the clamped centre distance)",
    )
    def test_leg_inside_a_circle_is_cut(self):
        """The leg lies wholly inside the circle, but the centre projects
        beyond its end."""
        tracer = RayTracer(rectangular_room(10.0, 10.0))
        path = tracer.line_of_sight(Vec2(1, 1), Vec2(1, 2), [Circle(Vec2(1, 7), 7.0)])
        assert path.is_obstructed


class TestRoomTables:
    """The tracer keeps its wall table and image trees between queries,
    yet answers every query as a fresh tracer would."""

    TX, RX = Vec2(1.0, 2.0), Vec2(6.5, 2.5)

    def test_appended_partition_takes_effect(self):
        room = rectangular_room(8.0, 5.0)
        tracer = RayTracer(room)
        before = tracer.all_paths(self.TX, self.RX)
        room.walls.append(Wall(Segment(Vec2(4.0, 0.0), Vec2(4.0, 3.5)), CONCRETE))
        after = tracer.all_paths(self.TX, self.RX)
        assert after == RayTracer(room).all_paths(self.TX, self.RX)
        assert after != before
        assert after[0].penetrated_walls == (room.walls[-1],)

    def test_replaced_wall_material_takes_effect(self):
        room = rectangular_room(8.0, 5.0)
        tracer = RayTracer(room)
        before = tracer.all_paths(self.TX, self.RX, max_bounces=1)
        room.walls[2] = Wall(room.walls[2].segment, GLASS)
        after = tracer.all_paths(self.TX, self.RX, max_bounces=1)
        assert after == RayTracer(room).all_paths(self.TX, self.RX, max_bounces=1)
        north = [p for p in after if p.walls == (room.walls[2],)]
        assert len(north) == 1
        assert north[0].total_reflection_loss_db == GLASS.reflection_loss_db
        assert [p.points for p in after] == [p.points for p in before]

    def test_removed_wall_takes_effect(self):
        room = standard_office()
        tracer = RayTracer(room)
        tracer.all_paths(self.TX, Vec2(3.0, 4.0))
        del room.walls[-1]
        assert tracer.all_paths(self.TX, Vec2(3.0, 4.0)) == RayTracer(room).all_paths(
            self.TX, Vec2(3.0, 4.0)
        )

    def test_more_transmitters_than_trees(self):
        """Queries interleaved over more transmitters (and bounce
        budgets) than the tracer keeps trees for match a fresh tracer's,
        and the trees stay bounded."""
        room = standard_office()
        tracer = RayTracer(room)
        ap = Vec2(0.3, 0.3)
        others = [Vec2(0.6 + 0.35 * i, 1.0 + 0.2 * i) for i in range(MAX_IMAGE_TREES + 2)]
        rx = Vec2(3.3, 3.9)
        for _ in range(2):
            for tx in others:
                for source in (ap, tx):
                    for max_bounces in (1, 2):
                        got = tracer.all_paths(source, rx, max_bounces)
                        assert got == RayTracer(room).all_paths(source, rx, max_bounces)
                        assert len(tracer._trees) <= MAX_IMAGE_TREES
        # The AP, asked every other query, kept its trees throughout.
        assert (ap.x, ap.y, 2) in tracer._trees


def walls_of(*corners, closed=True):
    """Drywall walls joining ``corners`` in order (back to the first
    when ``closed``)."""
    points = [Vec2(x, y) for x, y in corners]
    pairs = zip(points, points[1:] + points[:1] if closed else points[1:])
    return [Wall(Segment(a, b), DRYWALL) for a, b in pairs]


def l_shaped_room():
    """A 4 m x 4 m L: the square's north-east quarter cut away, so the
    walls (4, 2)-(2, 2) and (2, 2)-(2, 4) are reflex."""
    return Room(walls_of((0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4)), name="l-room")


def partitioned_room():
    """An 8 m x 5 m room with a concrete partition from the south wall
    and a free-standing drywall one."""
    room = rectangular_room(8.0, 5.0)
    room.walls.append(Wall(Segment(Vec2(5.0, 0.0), Vec2(5.0, 3.5)), CONCRETE))
    room.walls.append(Wall(Segment(Vec2(2.0, 3.0), Vec2(3.5, 4.0)), DRYWALL))
    return room


#: The rooms the hull screen is checked in: no wall off the hull, a
#: bare rectangle, reflex walls, and partitions.
SCREEN_ROOMS = {
    "office": standard_office(furnished=True),
    "rectangle": rectangular_room(5.0, 4.0),
    "l-room": l_shaped_room(),
    "partition": partitioned_room(),
}


@st.composite
def screen_endpoint(draw, room):
    """A point inside the room's bounding box, outside it, or exactly
    on one of its walls (an end or a point between)."""
    box = room.bounding_box()
    lo, hi = box.min_corner, box.max_corner
    kind = draw(st.sampled_from(["inside", "outside", "on a wall"]))
    if kind == "on a wall":
        segment = draw(st.sampled_from(room.walls)).segment
        u = draw(st.one_of(st.sampled_from([0.0, 0.5, 1.0]), st.floats(0.0, 1.0)))
        return segment.a + (segment.b - segment.a) * u
    pad = 0.0 if kind == "inside" else 2.0
    x = draw(st.floats(lo.x - pad, hi.x + pad))
    y = draw(st.floats(lo.y - pad, hi.y + pad))
    if kind == "outside":
        assume(not (lo.x <= x <= hi.x and lo.y <= y <= hi.y))
    return Vec2(x, y)


@st.composite
def screen_queries(draw):
    name = draw(st.sampled_from(sorted(SCREEN_ROOMS)))
    room = SCREEN_ROOMS[name]
    tx, rx = draw(screen_endpoint(room)), draw(screen_endpoint(room))
    assume(tx.distance_to(rx) >= MIN_SEPARATION_M)
    box = room.bounding_box()
    centres = st.builds(
        Vec2,
        st.floats(box.min_corner.x, box.max_corner.x),
        st.floats(box.min_corner.y, box.max_corner.y),
    )
    circles = draw(
        st.lists(st.builds(Circle, centres, st.floats(0.05, 0.8)), max_size=4)
    )
    return name, tx, rx, draw(st.sampled_from([0, 1, 2])), circles


def traced(tracer, tx, rx, max_bounces, occluders):
    if max_bounces == 0:
        return [tracer.line_of_sight(tx, rx, occluders)]
    return tracer.all_paths(tx, rx, max_bounces, occluders)


class TestHullScreen:
    """Walls on the convex hull of the wall ends are left out of the
    crossing test when TX and RX lie in the hull; the paths are those of
    the test over every wall."""

    @staticmethod
    def crossable(room):
        tracer = RayTracer(room)
        tracer._room_tables()
        return tracer._interior[0].tolist()

    def test_office_has_no_crossable_wall(self):
        # Four drywall sides, and the whiteboard and window flush on two
        # of them.
        assert self.crossable(standard_office()) == []

    def test_partitions_are_crossable(self):
        assert self.crossable(partitioned_room()) == [4, 5]

    def test_reflex_walls_of_an_l_are_crossable(self):
        assert self.crossable(l_shaped_room()) == [2, 3]

    def test_walls_collinear_only_after_rounding_stay_crossable(self):
        """On the slanted hull edge (0, 0)-(3, 1), a wall to (1.5, 0.5)
        is exactly collinear; one to (0.03, 0.01) only rounds onto it
        (3 * 0.01 rounds to 0.03, exactly it is larger), so it stays in
        the crossing test."""
        assert 3.0 * 0.01 - 0.03 == 0.0
        room = Room(
            walls_of((0, 0), (3, 1), (0, 3))
            + walls_of((0, 0), (1.5, 0.5), closed=False)
            + walls_of((0, 0), (0.03, 0.01), closed=False)
        )
        assert self.crossable(room) == [4]

    def test_edge_points_are_inside(self):
        tracer = RayTracer(standard_office())
        tracer._room_tables()
        assert _in_hull(tracer._hull, 5.0, 2.0)
        assert _in_hull(tracer._hull, 0.0, 0.0)
        assert not _in_hull(tracer._hull, 5.0 + 1e-12, 2.0)

    def test_outside_endpoint_penetrates_the_boundary(self):
        room = standard_office()
        tracer = RayTracer(room)
        for max_bounces in (0, 1, 2):
            (los, *_) = traced(tracer, Vec2(1.0, 2.0), Vec2(6.5, 2.5), max_bounces, [])
            assert los.penetrated_walls == (room.walls[1],)

    @settings(max_examples=300, deadline=None)
    @given(screen_queries())
    def test_paths_equal_the_test_over_every_wall(self, query):
        name, tx, rx, max_bounces, circles = query
        room = SCREEN_ROOMS[name]
        reference = RayTracer(room)
        reference._room_tables()
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(reference, "_interior", reference._every)
            want = traced(reference, tx, rx, max_bounces, circles)
        got = traced(RayTracer(room), tx, rx, max_bounces, circles)
        assert [p.points for p in got] == [p.points for p in want]
        assert [p.walls for p in got] == [p.walls for p in want]
        assert [p.penetrated_walls for p in got] == [p.penetrated_walls for p in want]
        got_set, want_set = PathSet.of(got), PathSet.of(want)
        for column in ("length", "departure", "arrival", "reflection_db", "penetration_db"):
            assert getattr(got_set, column).tolist() == getattr(want_set, column).tolist()
        for mine, theirs in zip(got_set.cuts, want_set.cuts):
            assert mine.tolist() == theirs.tolist()
        assert got_set.occluders == want_set.occluders


def reference_cuts(starts, legs, lengths, occluders):
    """Every occluder cut of every leg: the slab test on every (leg,
    occluder) pair, with no bounding-box screen in front of it."""
    rows = []
    for occ in occluders:
        c = occ.center
        if isinstance(occ, Circle):
            radius, pad = occ.radius, 1.01 * occ.radius
            lo, hi = (c.x - pad, c.y - pad), (c.x + pad, c.y + pad)
        else:
            radius, lo, hi = 0.0, occ.min_corner.as_tuple(), occ.max_corner.as_tuple()
        rows.append((c.x, c.y, radius, *lo, *hi))
    table = np.array(rows, dtype=float)
    t = (table[:, 3:].reshape(-1, 2, 2) - starts[:, None, None]) / legs[:, None, None]
    near, far = t.min(axis=2), t.max(axis=2)
    parallel = np.abs(legs[:, None]) < EPSILON
    beside = (near > 0.0) | (far < 0.0)
    t_min = np.maximum(np.where(parallel, beside, near).max(axis=2), 0.0)
    t_max = np.minimum(np.where(parallel, ~beside, far).min(axis=2), 1.0)
    row, k = np.nonzero(t_min < t_max)
    occ, a, v, length = table[k], starts[row], legs[row], lengths[row]
    center, radius = occ[:, :2], occ[:, 2]
    off = center - a
    dot = off * v
    dot = dot[:, 0] + dot[:, 1]
    norm_sq = v * v
    t = _clamp(dot / (norm_sq[:, 0] + norm_sq[:, 1]), 0.0, 1.0)
    gap = center - (a + v * t[:, None])
    dist = _hypot(gap[:, 0], gap[:, 1])
    center_t = off * (v / length[:, None])
    center_t = center_t[:, 0] + center_t[:, 1]
    half = np.sqrt(radius * radius - dist * dist)
    lo, hi = center_t - half, center_t + half
    chord = np.where(hi < length, hi, length) - np.where(lo > 0.0, lo, 0.0)
    is_circle = radius > 0.0
    depth = np.where(
        is_circle, np.where(dist < radius, chord, 0.0), (t_max - t_min)[row, k] * length
    )
    clearance = np.where(is_circle, dist - radius, -depth / 2.0)
    along = _clamp(dot / length, 0.0, length)
    cut = depth > 0.0
    return list(zip(*(x[cut].tolist() for x in (row, k, depth, clearance, along))))


coord = st.floats(min_value=-4.0, max_value=4.0)
screen_occluders = st.lists(
    st.one_of(
        st.builds(Circle, st.builds(Vec2, coord, coord), st.floats(0.01, 2.0)),
        st.builds(
            lambda corner, w, h: AxisAlignedBox(corner, corner + Vec2(w, h)),
            st.builds(Vec2, coord, coord),
            st.floats(0.01, 3.0),
            st.floats(0.01, 3.0),
        ),
    ),
    min_size=1,
    max_size=6,
)


@st.composite
def anchor(draw, occluders):
    """A free point, or one on an occluder's outline: a box edge or
    corner, a circle's rim or the edge of the box that screens it."""
    occ = draw(st.sampled_from(occluders))
    kind = draw(st.sampled_from(["free", "outline", "corner"]))
    if kind == "free":
        return Vec2(draw(coord), draw(coord))
    if isinstance(occ, Circle):
        c, r = occ.center, occ.radius
        if kind == "outline":
            angle = draw(st.one_of(st.sampled_from([0.0, 90.0, 180.0, 270.0]), st.floats(0, 360)))
            return c + Vec2.from_polar(r, angle)
        pad = 1.01 * r
        lo, hi = Vec2(c.x - pad, c.y - pad), Vec2(c.x + pad, c.y + pad)
    else:
        lo, hi = occ.min_corner, occ.max_corner
    xs, ys = [lo.x, hi.x], [lo.y, hi.y]
    if kind == "corner":
        return Vec2(draw(st.sampled_from(xs)), draw(st.sampled_from(ys)))
    u = draw(st.floats(0.0, 1.0))
    if draw(st.booleans()):
        return Vec2(lo.x + u * (hi.x - lo.x), draw(st.sampled_from(ys)))
    return Vec2(draw(st.sampled_from(xs)), lo.y + u * (hi.y - lo.y))


@st.composite
def screened_legs(draw):
    """Occluders and legs among them: free legs, legs parallel to an
    axis (a zero component, or one under EPSILON), and legs that start
    or end on an occluder outline."""
    occluders = draw(screen_occluders)
    ends = []
    for _ in range(draw(st.integers(1, 8))):
        start = draw(anchor(occluders))
        kind = draw(st.sampled_from(["free", "along x", "along y", "under epsilon"]))
        if kind == "free":
            end = draw(anchor(occluders))
        elif kind == "along x":
            end = Vec2(draw(anchor(occluders)).x, start.y)
        elif kind == "along y":
            end = Vec2(start.x, draw(anchor(occluders)).y)
        else:
            end = Vec2(start.x + draw(st.floats(-0.9 * EPSILON, 0.9 * EPSILON)), draw(coord))
        if draw(st.booleans()):
            start, end = end, start
        assume(start.distance_to(end) > 1e-3)
        ends.append((start.as_tuple(), end.as_tuple()))
    return occluders, np.array(ends, dtype=float)


class TestOccluderScreen:
    @settings(max_examples=400, deadline=None)
    @given(screened_legs())
    def test_screen_keeps_every_slab_cut(self, scene):
        """The bounding-box screen in front of the slab test drops no
        cut: the cuts equal the slab test run on every pair."""
        occluders, ends = scene
        starts, stops = ends[:, 0], ends[:, 1]
        legs = stops - starts
        lengths = _hypot(legs[:, 0], legs[:, 1])
        # One path of every leg: a cut's leg along the path is its row.
        table = _cuts(
            np.column_stack([starts, stops, legs, lengths]),
            [len(legs)],
            [len(legs)],
            [occluders],
        )
        assert table.path.tolist() == [0] * len(table.path)
        assert table.leg_length.tolist() == lengths[table.leg].tolist()
        got = list(zip(*(x.tolist() for x in table[1:6])))
        with np.errstate(all="ignore"):
            want = reference_cuts(starts, legs, lengths, occluders)
        assert got == want


path_coord = st.one_of(st.sampled_from([0.0, -0.0, 1.0, 2.5]), st.floats(-10.0, 10.0))


class TestPathGeometry:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.builds(Vec2, path_coord, path_coord), min_size=2, max_size=4))
    def test_properties_equal_vec2_formulas(self, points):
        """Length and angles read straight from the coordinates equal
        the ``Vec2`` formulas bit for bit; identical points still have
        no bearing."""
        wall = Wall(Segment(Vec2(0.0, 0.0), Vec2(1.0, 0.0)))
        path = PropagationPath(points=tuple(points), walls=(wall,) * (len(points) - 2))
        assert path.total_length_m == left_sum(
            a.distance_to(b) for a, b in zip(points, points[1:])
        )
        for angle, origin, target in (
            ("departure_angle_deg", points[0], points[1]),
            ("arrival_angle_deg", points[-1], points[-2]),
        ):
            delta = target - origin
            if delta.norm == 0.0:
                with pytest.raises(ValueError, match="identical points"):
                    getattr(path, angle)
            else:
                assert getattr(path, angle) == delta.angle_deg()
                assert getattr(path, angle) == bearing_deg(origin, target)
