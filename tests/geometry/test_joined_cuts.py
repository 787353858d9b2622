"""The joined resolve pass.

A traced path set is a pending record of its chains.  The link layer
resolves a tick's pending sets in one pass over all their legs
(``PathSet.resolve``): their per-path arrays and their occluder cuts.
Each set must get the arrays, table and path objects it gets resolved
alone, float for float, and serving must make that one pass per
link-column build.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

import repro.geometry.raytrace as raytrace
from repro.core.multiuser import MultiUserSystem
from repro.experiments.apartment import build_apartment
from repro.geometry.raytrace import (
    MIN_SEPARATION_M,
    PathSet,
    RayTracer,
    _bearings_deg,
    _cuts,
)
from repro.geometry.room import DRYWALL, Room, Wall, rectangular_room, standard_office
from repro.geometry.shapes import AxisAlignedBox, Circle, Segment
from repro.geometry.vectors import Vec2
from repro.phy.channel import MmWaveChannel
from repro.utils.exactmath import hypot

ROOT = Path(__file__).resolve().parents[2]

coord = st.floats(min_value=-4.0, max_value=4.0)
occluders = st.one_of(
    st.builds(Circle, st.builds(Vec2, coord, coord), st.floats(0.01, 2.0)),
    st.builds(
        lambda corner, w, h: AxisAlignedBox(corner, corner + Vec2(w, h)),
        st.builds(Vec2, coord, coord),
        st.floats(0.01, 3.0),
        st.floats(0.01, 3.0),
    ),
)
# Far from every occluder above: legs there cut nothing.
far = st.floats(min_value=50.0, max_value=60.0)


@st.composite
def cut_job(draw, pool):
    """The legs of 1-4 paths of 1-3 legs, one row each, their widths,
    and the list they are cut with: drawn from ``pool`` (shared with the
    other jobs, repeats allowed, maybe empty) plus fresh occluders.  The
    legs may all lie far away."""
    listed = draw(st.lists(st.sampled_from(pool), max_size=5))
    listed += draw(st.lists(occluders, max_size=2))
    listed = draw(st.permutations(listed))
    at = far if draw(st.integers(0, 4)) == 0 else coord
    widths = draw(st.lists(st.integers(1, 3), min_size=1, max_size=4))
    ends = []
    for width in widths:
        points = draw(st.lists(st.tuples(at, at), min_size=width + 1, max_size=width + 1))
        ends += zip(points, points[1:])
    ends = np.array(ends, dtype=float)
    starts, stops = ends[:, 0], ends[:, 1]
    legs = stops - starts
    lengths = hypot(legs[:, 0], legs[:, 1])
    return np.column_stack([starts, stops, legs, lengths]), widths, listed


@st.composite
def cut_jobs(draw):
    pool = draw(st.lists(occluders, min_size=1, max_size=6))
    return draw(st.lists(cut_job(pool), min_size=1, max_size=4))


def cut_together(jobs):
    """``_cuts`` over the jobs' legs stacked, each job's rows split back
    and renumbered to its own paths and occluders."""
    joined = _cuts(
        np.concatenate([legs for legs, _, _ in jobs]),
        [w for _, widths, _ in jobs for w in widths],
        [len(legs) for legs, _, _ in jobs],
        [listed for _, _, listed in jobs],
    )
    tables, first, offset = [], 0, 0
    for _, widths, listed in jobs:
        rows = (joined.path >= first) & (joined.path < first + len(widths))
        table = [column[rows] for column in joined]
        table[0] = table[0] - first
        table[2] = table[2] - offset
        tables.append(table)
        first += len(widths)
        offset += len(listed)
    return tables


def cut_alone(job):
    legs, widths, listed = job
    return list(_cuts(legs, widths, [len(legs)], [listed]))


def as_lists(table):
    return [column.tolist() for column in table]


class TestJoinedPass:
    @settings(max_examples=300, deadline=None)
    @given(cut_jobs())
    def test_joined_tables_equal_each_job_cut_alone(self, jobs):
        joined = cut_together(jobs)
        assert len(joined) == len(jobs)
        for job, table in zip(jobs, joined):
            assert as_lists(table) == as_lists(cut_alone(job))
            # Rows run path by path, leg by leg, in list order.
            keys = list(zip(*(column.tolist() for column in table[:3])))
            assert keys == sorted(keys)
            assert all(0 <= k < len(job[2]) for k in table[2].tolist())

    def test_a_repeated_object_cuts_twice(self):
        body = Circle(Vec2(0.0, 0.0), 0.2)
        legs = np.array([[-1.0, 0.0, 1.0, 0.0, 2.0, 0.0, 2.0]])
        table = _cuts(legs, [1], [1], [[body, body]])
        assert table.occluder.tolist() == [0, 1]
        assert table.depth[0] == table.depth[1]


component = st.one_of(
    st.sampled_from([0.0, -0.0, 1.0, -1.0]),
    st.floats(-100.0, 100.0),
    st.floats(-1e-300, 1e-300),
)


class TestBearings:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(st.tuples(component, component), min_size=1, max_size=20))
    def test_equal_the_scalar_bearing(self, deltas):
        """The mapped ``atan2`` and the array arithmetic after it give
        ``Vec2.angle_deg`` bit for bit, signed zeros included."""
        assume(all(dx or dy for dx, dy in deltas))
        dx, dy = (list(column) for column in zip(*deltas))
        want = [repr(Vec2(x, y).angle_deg()) for x, y in deltas]
        assert [repr(b) for b in _bearings_deg(dx, dy).tolist()] == want


def l_shaped_room():
    """A 4 m x 4 m L with its north-east quarter cut away."""
    corners = [Vec2(x, y) for x, y in ((0, 0), (4, 0), (4, 2), (2, 2), (2, 4), (0, 4))]
    return Room(
        [Wall(Segment(a, b), DRYWALL) for a, b in zip(corners, corners[1:] + corners[:1])],
        name="l-room",
    )


#: The rooms the joined resolve is checked in: the served office (no
#: wall off its hull), the apartment's partitions and an L's reflex
#: walls, where chains are dropped and the LOS penetrates.
ROOMS = {
    "office": standard_office(furnished=True),
    "apartment": build_apartment(),
    "l-room": l_shaped_room(),
}
COLUMNS = ("length", "departure", "arrival", "reflection_db", "penetration_db")


@st.composite
def endpoint(draw, room):
    """A point in the room's bounding box, or up to 2 m outside it."""
    box = room.bounding_box()
    pad = draw(st.sampled_from([0.0, 0.0, 2.0]))
    return Vec2(
        draw(st.floats(box.min_corner.x - pad, box.max_corner.x + pad)),
        draw(st.floats(box.min_corner.y - pad, box.max_corner.y + pad)),
    )


@st.composite
def queries(draw):
    """One room and 1-4 queries in it: LOS (bounce budget 0), all paths
    up to 1 or 2 bounces; each with extra circles and boxes drawn from a
    shared pool (maybe none), with or without the room's furniture."""
    name = draw(st.sampled_from(sorted(ROOMS)))
    room = ROOMS[name]
    box = room.bounding_box()
    centres = st.builds(
        Vec2,
        st.floats(box.min_corner.x, box.max_corner.x),
        st.floats(box.min_corner.y, box.max_corner.y),
    )
    pool = draw(
        st.lists(
            st.one_of(
                st.builds(Circle, centres, st.floats(0.05, 0.8)),
                st.builds(
                    lambda c, w, h: AxisAlignedBox(c, c + Vec2(w, h)),
                    centres,
                    st.floats(0.05, 1.0),
                    st.floats(0.05, 1.0),
                ),
            ),
            min_size=1,
            max_size=4,
        )
    )
    found = []
    for _ in range(draw(st.integers(1, 4))):
        tx, rx = draw(endpoint(room)), draw(endpoint(room))
        assume(tx.distance_to(rx) >= MIN_SEPARATION_M)
        extras = draw(st.lists(st.sampled_from(pool), max_size=3))
        found.append((tx, rx, draw(st.sampled_from([0, 1, 2])), extras, draw(st.booleans())))
    return name, found


def trace(tracer, query):
    tx, rx, bounces, extras, furniture = query
    if bounces == 0:
        return [tracer.line_of_sight(tx, rx, extras, include_room_occluders=furniture)]
    return tracer.all_paths(tx, rx, bounces, extras)


def assert_same_sets(paths, single):
    """The sets of ``paths`` and ``single`` hold equal arrays, tables
    and path objects."""
    got, want = PathSet.of(paths), PathSet.of(single)
    for column in COLUMNS:
        assert getattr(got, column).tolist() == getattr(want, column).tolist()
    assert as_lists(got.cuts) == as_lists(want.cuts)
    assert got.occluders == want.occluders
    assert [p.points for p in paths] == [p.points for p in single]
    assert [p.walls for p in paths] == [p.walls for p in single]
    assert [p.penetrated_walls for p in paths] == [p.penetrated_walls for p in single]
    assert [p.obstructions for p in paths] == [p.obstructions for p in single]
    # Both equal the path objects' own properties.
    assert got.length.tolist() == [p.total_length_m for p in paths]
    assert got.reflection_db.tolist() == [p.total_reflection_loss_db for p in paths]
    assert got.penetration_db.tolist() == [p.total_penetration_loss_db for p in paths]


class TestJoinedResolve:
    @settings(max_examples=200, deadline=None)
    @given(queries(), st.data())
    def test_sets_resolved_together_equal_each_resolved_alone(self, scene, data):
        name, found = scene
        room = ROOMS[name]
        batch = [trace(RayTracer(room), q) for q in found]
        alone = [trace(RayTracer(room), q) for q in found]
        sets = [PathSet.of(paths) for paths in batch]
        # A set read before the build resolves alone; the rest, one
        # listed twice, together.
        early = data.draw(st.sampled_from([None, *range(len(sets))]))
        if early is not None:
            sets[early].cuts
        listed = sets + data.draw(st.lists(st.sampled_from(sets), max_size=2))
        joined = PathSet.resolve(listed)
        pending = [s for i, s in enumerate(sets) if i != early]
        if not pending:
            assert joined is None
        elif len(pending) == 1:
            assert joined is pending[0]
        else:
            assert len(joined) == sum(len(s) for s in pending)
        for single in alone:
            PathSet.resolve([PathSet.of(single)])
        for paths, single in zip(batch, alone):
            assert_same_sets(paths, single)

    def test_one_leg_traces_penetrating_partitions(self):
        apartment = ROOMS["apartment"]
        # Across the partition below the doorway, and through the
        # doorway: the first LOS penetrates, the second does not.
        hops = [((1.0, 1.0), (7.0, 1.0)), ((1.0, 2.5), (7.0, 2.5)), ((6.0, 4.0), (2.0, 0.5))]
        blocker = [Circle(Vec2(3.0, 1.0), 0.3)]
        batch, alone = (
            [RayTracer(apartment).line_of_sight(Vec2(*a), Vec2(*b), blocker) for a, b in hops]
            for _ in range(2)
        )
        assert batch[0].penetrated_walls and not batch[1].penetrated_walls
        assert batch[2].penetrated_walls and batch[0].obstructions
        PathSet.resolve([hop._set for hop in batch])
        for hop, single in zip(batch, alone):
            assert_same_sets([hop], [single])

    def test_dropped_chains_and_endpoints_outside_the_hull(self):
        apartment = ROOMS["apartment"]
        tracer = RayTracer(apartment)
        receivers = [Vec2(7.0, 1.0), Vec2(9.0, 2.0), Vec2(6.5, 4.0)]
        batch = [tracer.all_paths(Vec2(1.5, 1.5), rx, 2, []) for rx in receivers]
        # The partition drops chains that a tracer testing no wall keeps.
        untested = RayTracer(apartment)
        untested._room_tables()
        untested._every = untested._interior = (
            np.empty(0, dtype=np.intp),
            np.empty((0, 2)),
            np.empty((0, 2)),
        )
        assert len(batch[0]) < len(untested.all_paths(Vec2(1.5, 1.5), receivers[0], 2, []))
        alone = [tracer.all_paths(Vec2(1.5, 1.5), rx, 2, []) for rx in receivers]
        assert PathSet.resolve([PathSet.of(paths) for paths in batch]) is not None
        for paths, single in zip(batch, alone):
            assert_same_sets(paths, single)


class TestPendingTables:
    TX = Vec2(0.5, 0.5)

    def traced(self, receivers, blocker):
        tracer = RayTracer(standard_office(furnished=True))
        return [tracer.all_paths(self.TX, rx, 2, [blocker]) for rx in receivers]

    def test_resolve_equals_each_set_read_alone(self):
        receivers = [Vec2(4.0, 3.0), Vec2(2.0, 3.5), Vec2(5.0, 1.0)]
        blocker = Circle(Vec2(1.5, 1.2), 0.25)
        batch, alone = self.traced(receivers, blocker), self.traced(receivers, blocker)
        sets = [PathSet.of(paths) for paths in batch]
        joined = PathSet.resolve(sets + sets[:1])
        assert len(joined) == sum(len(s) for s in sets)
        assert len(joined.cuts.path) == sum(len(s.cuts.path) for s in sets)
        for paths, single in zip(batch, alone):
            assert PathSet.of(paths)._columns is not None
            assert_same_sets(paths, single)
        assert any(p.obstructions for paths in batch for p in paths)

    def test_a_read_resolves_and_drops_the_job(self):
        (paths,) = self.traced([Vec2(4.0, 3.0)], Circle(Vec2(1.5, 1.2), 0.25))
        path_set = PathSet.of(paths)
        assert path_set._columns is None
        assert len(path_set.cuts.path)
        assert path_set._columns is not None
        # Once resolved, a set is not resolved again.
        assert PathSet.resolve([path_set]) is None

    def test_no_occluders_leaves_nothing_pending(self, monkeypatch):
        """A set with no occluders reads an empty table without a cut
        pass."""
        monkeypatch.setattr(raytrace, "_cuts", lambda *args: pytest.fail("cut pass"))
        tracer = RayTracer(rectangular_room(5.0, 5.0))
        sets = [
            tracer.all_paths(self.TX, Vec2(4.0, 3.0))[0]._set,
            tracer.line_of_sight(self.TX, Vec2(2.0, 1.0))._set,
        ]
        PathSet.resolve(sets)
        assert all(s._columns is not None and not len(s.cuts.path) for s in sets)


def load_workloads():
    """The serving benchmark's seeded workloads, loaded from their file."""
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # its dataclasses look their module up
    spec.loader.exec_module(module)
    return module


class TestOnePassPerBuild:
    @pytest.fixture
    def arena(self, monkeypatch):
        """Replay 40 arena-6 ticks, counting joined resolves and cut
        passes per link-column build and keeping every traced set."""
        workloads = load_workloads()
        workload = workloads.WORKLOADS["arena-6"]
        bed = workloads.build_testbed(workload)
        ticks = workloads.build_inputs(workload, bed, seed=3, rep=0)[:40]
        multi = MultiUserSystem(bed.system, num_users=workload.num_users)

        counts = {"resolves": 0, "cuts": 0}
        builds = []  # per build: (pending sets, pending sets with occluders, resolves, cuts)
        traced = []

        def counting(name, function):
            def counted(*args):
                counts[name] += 1
                return function(*args)

            return counted

        def tracking_build(channel, path_lists):
            sets = [PathSet.of(paths) for paths in path_lists]
            pending = [s for s in sets if s._columns is None]
            before = dict(counts)
            columns = build(channel, path_lists)
            builds.append(
                (
                    len(pending),
                    sum(bool(s.occluders) for s in pending),
                    counts["resolves"] - before["resolves"],
                    counts["cuts"] - before["cuts"],
                )
            )
            return columns

        def keeping(*args):
            path_set = trace_set(*args)
            traced.append(path_set)
            return path_set

        build, trace_set = MmWaveChannel.link_columns_many, PathSet._traced
        monkeypatch.setattr(raytrace, "_resolve", counting("resolves", raytrace._resolve))
        monkeypatch.setattr(raytrace, "_cuts", counting("cuts", raytrace._cuts))
        monkeypatch.setattr(MmWaveChannel, "link_columns_many", tracking_build)
        monkeypatch.setattr(PathSet, "_traced", staticmethod(keeping))
        for tick in ticks:
            multi.step(tick.t_s, tick.poses, tick.occluders)
        return len(ticks), counts, builds, traced

    def test_arena_resolves_once_per_link_column_build(self, arena):
        """Every pending set is resolved inside a link-column build, in
        one joined resolve per build that finds pending sets."""
        ticks, counts, builds, traced = arena
        assert traced and all(s._columns is not None for s in traced)
        assert counts["resolves"] == sum(n for _, _, n, _ in builds)  # none outside a build
        assert all(n == int(pending > 0) for pending, _, n, _ in builds)
        assert sum(pending for pending, _, _, _ in builds) == len(traced)
        # Pass 1 joins every user's scene, pass 2 every new hop.
        assert max(pending for pending, _, _, _ in builds) > 1
        assert ticks <= counts["resolves"] <= 3 * ticks

    def test_arena_cuts_once_per_link_column_build(self, arena):
        """Every occluder-cut pass runs inside a link-column build, one
        per build that finds pending sets with occluders."""
        ticks, counts, builds, _ = arena
        assert counts["cuts"] == sum(n for _, _, _, n in builds)  # none outside a build
        assert all(n == int(occluded > 0) for _, occluded, _, n in builds)
        # Pass 1 joins every user's scene: about one pass per tick.
        assert ticks <= counts["cuts"] <= 2 * ticks
