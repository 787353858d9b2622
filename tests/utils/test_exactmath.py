"""The left-to-right sum.

Since CPython 3.12 the builtin ``sum`` of floats is compensated, so it
can round differently from the left-to-right sum 3.9-3.11 compute.
Every sum that reaches a path, a decision or a report adds left to
right (``exactmath.left_sum``), so the pinned replays and rows hold on
every interpreter the tests run on.
"""

import math

from hypothesis import given, settings, strategies as st

from repro.geometry.raytrace import Obstruction, PathSet, RayTracer
from repro.geometry.room import standard_office
from repro.geometry.shapes import Circle
from repro.geometry.vectors import Vec2
from repro.phy.blockage import BlockageModel
from repro.utils.exactmath import left_sum

finite = st.floats(allow_nan=False, allow_infinity=False)


def loop_sum(values):
    """``0 + v0 + v1 + ...``, one addition at a time."""
    total = 0
    for value in values:
        total = total + value
    return total


class TestLeftSum:
    def test_adds_left_to_right(self):
        # A compensated sum (3.12's builtin) gives 2.0 and 0.6.
        assert left_sum([1.0, 1e100, 1.0, -1e100]) == 0.0
        assert left_sum([0.1, 0.2, 0.3]) == 0.6000000000000001

    def test_empty_is_the_integer_zero(self):
        total = left_sum([])
        assert total == 0 and type(total) is int

    @settings(max_examples=300, deadline=None)
    @given(st.lists(finite, max_size=8))
    def test_equals_the_explicit_loop(self, values):
        total, expected = left_sum(values), loop_sum(values)
        assert total == expected
        assert math.copysign(1.0, total) == math.copysign(1.0, expected)


class TestSumsThatReachPaths:
    def test_traced_lengths_add_legs_left_to_right(self):
        tracer = RayTracer(standard_office(furnished=True))
        paths = tracer.all_paths(
            Vec2(0.5, 0.5), Vec2(4.2, 3.1), 2, [Circle(Vec2(2.0, 2.0), 0.3)]
        )
        assert any(p.num_bounces == 2 for p in paths)
        lengths = [
            loop_sum(a.distance_to(b) for a, b in zip(p.points, p.points[1:])) for p in paths
        ]
        assert [p.total_length_m for p in paths] == lengths
        assert PathSet.of(paths).length.tolist() == lengths

    @settings(max_examples=200, deadline=None)
    @given(
        st.lists(
            st.tuples(st.floats(0.0, 0.3), st.floats(-0.3, 0.1)), min_size=1, max_size=5
        )
    )
    def test_blockage_totals_add_clusters_left_to_right(self, cuts):
        """Cuts 1 m apart on one leg are clusters of their own: the
        path's total is their losses added left to right."""
        model = BlockageModel(max_blockage_db=1000.0)
        records = [
            Obstruction(None, 0, depth, clearance, 1.0 + i, 10.0)
            for i, (depth, clearance) in enumerate(cuts)
        ]
        losses = [model.path_blockage_db([record]) for record in records]
        assert model.path_blockage_db(records) == loop_sum(losses)
