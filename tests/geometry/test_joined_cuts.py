"""The joined occluder-cut pass.

A traced path set leaves its obstruction table pending; the link layer
cuts a tick's pending tables in one pass over all their legs
(``PathSet.resolve_cuts``).  Each table must equal the one its set gets
cut alone, row for row and float for float, and serving must make that
one pass per link-column build.
"""

import importlib.util
import sys
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import repro.geometry.raytrace as raytrace
from repro.core.multiuser import MultiUserSystem
from repro.geometry.raytrace import PathSet, RayTracer, _cuts, _CutJob
from repro.geometry.room import rectangular_room, standard_office
from repro.geometry.shapes import AxisAlignedBox, Circle
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
    """A job of 1-4 paths of 1-3 legs, cut with a list drawn from
    ``pool`` (shared with the other jobs, repeats allowed, maybe empty)
    and its own fresh occluders; its legs may all lie far away."""
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
    return _CutJob(starts, stops, legs, lengths, widths, listed)


@st.composite
def cut_jobs(draw):
    pool = draw(st.lists(occluders, min_size=1, max_size=6))
    return draw(st.lists(cut_job(pool), min_size=1, max_size=4))


def as_lists(table):
    return [column.tolist() for column in table]


class TestJoinedPass:
    @settings(max_examples=300, deadline=None)
    @given(cut_jobs())
    def test_joined_tables_equal_each_job_cut_alone(self, jobs):
        joined = _cuts(jobs)
        assert len(joined) == len(jobs)
        for job, table in zip(jobs, joined):
            (alone,) = _cuts([job])
            assert as_lists(table) == as_lists(alone)
            # Rows run path by path, leg by leg, in list order.
            keys = list(zip(table.path.tolist(), table.leg.tolist(), table.occluder.tolist()))
            assert keys == sorted(keys)
            assert all(0 <= k < len(job.occluders) for k in table.occluder.tolist())

    def test_a_repeated_object_cuts_twice(self):
        body = Circle(Vec2(0.0, 0.0), 0.2)
        leg = np.array([[-1.0, 0.0]]), np.array([[1.0, 0.0]])
        job = _CutJob(*leg, leg[1] - leg[0], np.array([2.0]), [1], [body, body])
        (table,) = _cuts([job])
        assert table.occluder.tolist() == [0, 1]
        assert table.depth[0] == table.depth[1]


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
        PathSet.resolve_cuts(sets + sets[:1])
        for joined, single in zip(batch, alone):
            assert PathSet.of(joined)._cut_job is None
            assert as_lists(PathSet.of(joined).cuts) == as_lists(PathSet.of(single).cuts)
            assert [p.obstructions for p in joined] == [p.obstructions for p in single]
        assert any(p.obstructions for paths in batch for p in paths)

    def test_a_read_resolves_and_drops_the_job(self):
        (paths,) = self.traced([Vec2(4.0, 3.0)], Circle(Vec2(1.5, 1.2), 0.25))
        path_set = PathSet.of(paths)
        assert path_set._cut_job is not None
        assert len(path_set.cuts.path)
        assert path_set._cut_job is None

    def test_no_occluders_leaves_nothing_pending(self):
        tracer = RayTracer(rectangular_room(5.0, 5.0))
        path_set = tracer.all_paths(self.TX, Vec2(4.0, 3.0))[0]._set
        assert path_set._cut_job is None
        assert not len(path_set.cuts.path)


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
    def test_arena_cuts_once_per_link_column_build(self, monkeypatch):
        """Over an arena-6 replay every occluder-cut pass runs inside a
        link-column build, one per build that finds pending tables."""
        workloads = load_workloads()
        workload = workloads.WORKLOADS["arena-6"]
        bed = workloads.build_testbed(workload)
        ticks = workloads.build_inputs(workload, bed, seed=3, rep=0)[:40]
        multi = MultiUserSystem(bed.system, num_users=workload.num_users)

        passes = [0]
        builds = []  # per build: (pending sets found, cut passes run)

        def counting_cuts(jobs):
            passes[0] += 1
            return cut(jobs)

        def tracking_build(channel, path_lists):
            pending = any(PathSet.of(paths)._cut_job is not None for paths in path_lists)
            before = passes[0]
            columns = build(channel, path_lists)
            builds.append((pending, passes[0] - before))
            return columns

        cut, build = raytrace._cuts, MmWaveChannel.link_columns_many
        monkeypatch.setattr(raytrace, "_cuts", counting_cuts)
        monkeypatch.setattr(MmWaveChannel, "link_columns_many", tracking_build)
        for tick in ticks:
            multi.step(tick.t_s, tick.poses, tick.occluders)

        assert passes[0] == sum(n for _, n in builds)  # none outside a build
        assert all(n == int(pending) for pending, n in builds)
        # Pass 1 joins every user's scene: about one pass per tick.
        assert len(ticks) <= passes[0] <= 2 * len(ticks)
