"""Unit tests for the blockage/diffraction model.

The calibration classes pin the model to the paper's section 3 numbers:
hand >= 14 dB, head ~20 dB, walking person ~18-22 dB.  The model
evaluates whole obstruction tables as arrays; the scalar formulas below
are the reference it must equal bit for bit.
"""

import math

import pytest
from hypothesis import given, settings, strategies as st

from repro.geometry.bodies import (
    hand_occluder,
    person_blocking_path,
    self_head_blocking,
)
from repro.geometry.raytrace import Obstruction, ObstructionTable, RayTracer
from repro.geometry.room import rectangular_room
from repro.geometry.shapes import Circle
from repro.geometry.vectors import Vec2, bearing_deg
from repro.phy.blockage import BlockageModel
from repro.utils.db import db_sum_powers
from repro.utils.exactmath import left_sum
from repro.utils.units import wavelength


def knife_edge_loss_db(model, shadow_depth_m, dist_to_a_m, dist_to_b_m):
    """Scalar reference: single knife-edge diffraction loss."""
    d1 = max(dist_to_a_m, 1e-3)
    d2 = max(dist_to_b_m, 1e-3)
    lam = wavelength(model.carrier_hz)
    v = shadow_depth_m * math.sqrt(2.0 * (d1 + d2) / (lam * d1 * d2))
    if v <= -0.78:
        return 0.0
    return 6.9 + 20.0 * math.log10(math.sqrt((v - 0.1) ** 2 + 1.0) + v - 0.1)


def obstruction_loss_db(model, obstruction):
    """Scalar reference: total attenuation of one obstruction record."""
    around_db = knife_edge_loss_db(
        model,
        -obstruction.clearance_m,
        obstruction.along_leg_m,
        obstruction.leg_length_m - obstruction.along_leg_m,
    )
    through_db = model.absorption_db_per_m * obstruction.depth_m
    combined_db = -db_sum_powers([-around_db, -through_db])
    return min(model.max_blockage_db, combined_db)


def path_blockage_db(model, obstructions, merge_distance_m=0.5):
    """Scalar reference: the strongest record of each cluster of records
    within ``merge_distance_m`` along one leg, summed left to right,
    then capped."""
    by_leg = {}
    for o in obstructions:
        by_leg.setdefault(o.leg_index, []).append(o)
    clusters = []
    for records in by_leg.values():
        records.sort(key=lambda o: o.along_leg_m)
        group = [records[0]]
        for o in records[1:]:
            if o.along_leg_m - group[-1].along_leg_m <= merge_distance_m:
                group.append(o)
            else:
                clusters.append(group)
                group = [o]
        clusters.append(group)
    total = left_sum(max(obstruction_loss_db(model, o) for o in group) for group in clusters)
    return min(2.0 * model.max_blockage_db, total)


@pytest.fixture
def model():
    return BlockageModel()


@pytest.fixture
def tracer():
    return RayTracer(rectangular_room(5.0, 5.0))


def make_obstruction(depth=0.1, clearance=-0.05, along=1.0, leg=3.0):
    return Obstruction(
        occluder=Circle(Vec2(0, 0), 0.1),
        leg_index=0,
        depth_m=depth,
        clearance_m=clearance,
        along_leg_m=along,
        leg_length_m=leg,
    )


class TestKnifeEdge:
    def test_clear_path_no_loss(self, model):
        assert model.knife_edge_loss_db(-1.0, 1.0, 1.0) == 0.0

    def test_grazing_is_6db(self, model):
        assert model.knife_edge_loss_db(0.0, 1.0, 1.0) == pytest.approx(6.0, abs=0.5)

    def test_deeper_shadow_more_loss(self, model):
        shallow = model.knife_edge_loss_db(0.02, 1.0, 1.0)
        deep = model.knife_edge_loss_db(0.2, 1.0, 1.0)
        assert deep > shallow

    def test_closer_obstacle_more_loss(self, model):
        far = model.knife_edge_loss_db(0.05, 2.0, 2.0)
        near = model.knife_edge_loss_db(0.05, 0.2, 3.8)
        assert near > far

    @settings(max_examples=40, deadline=None)
    @given(
        st.floats(min_value=-0.5, max_value=0.5),
        st.floats(min_value=0.05, max_value=5.0),
        st.floats(min_value=0.05, max_value=5.0),
    )
    def test_loss_non_negative_and_symmetric(self, h, d1, d2):
        model = BlockageModel()
        loss = model.knife_edge_loss_db(h, d1, d2)
        assert loss >= 0.0
        assert loss == pytest.approx(model.knife_edge_loss_db(h, d2, d1))


class TestObstructionLoss:
    def test_capped(self, model):
        obs = make_obstruction(depth=0.5, clearance=-0.25)
        assert obstruction_loss_db(model, obs) <= model.max_blockage_db

    def test_absorption_scales_with_depth(self, model):
        """Deep in the shadow, diffraction around the occluder is far
        weaker than absorption through it, so a cut loses about
        ``absorption_db_per_m`` per meter of chord."""
        for depth in (0.01, 0.03, 0.05):
            obs = make_obstruction(depth=depth, clearance=-10.0)
            loss = model.path_blockage_db([obs])
            assert loss == pytest.approx(400.0 * depth, abs=1e-3)
        with pytest.raises(ValueError):
            model.path_blockage_db([make_obstruction(depth=-0.1)])

    def test_thin_graze_small_loss(self, model):
        obs = make_obstruction(depth=0.005, clearance=-0.001)
        assert obstruction_loss_db(model, obs) < 12.0


class TestPaperCalibration:
    """Pin the blockage model to the paper's measured attenuations."""

    def test_hand_blockage_band(self, model, tracer):
        headset, ap = Vec2(3.0, 3.0), Vec2(0.3, 0.3)
        hand = hand_occluder(headset, bearing_deg(headset, ap))
        path = tracer.line_of_sight(ap, headset, [hand])
        loss = model.path_blockage_db(path.obstructions)
        assert 13.0 <= loss <= 22.0  # paper: > 14 dB

    def test_head_blockage_band(self, model, tracer):
        headset, ap = Vec2(3.0, 3.0), Vec2(0.3, 0.3)
        head = self_head_blocking(headset, ap)
        path = tracer.line_of_sight(ap, headset, [head])
        loss = model.path_blockage_db(path.obstructions)
        assert 18.0 <= loss <= 28.0  # paper: ~20 dB

    def test_body_blockage_band(self, model, tracer):
        headset, ap = Vec2(3.0, 3.0), Vec2(0.3, 0.3)
        person = person_blocking_path(ap, headset, 0.5)
        path = tracer.line_of_sight(ap, headset, person.occluders())
        loss = model.path_blockage_db(path.obstructions)
        assert 15.0 <= loss <= 26.0  # paper: ~20 dB

    def test_hand_worse_when_closer_to_headset(self, model, tracer):
        headset, ap = Vec2(3.0, 3.0), Vec2(0.3, 0.3)
        near = hand_occluder(headset, bearing_deg(headset, ap), reach_m=0.15)
        far = hand_occluder(headset, bearing_deg(headset, ap), reach_m=0.5)
        loss_near = model.path_blockage_db(
            tracer.line_of_sight(ap, headset, [near]).obstructions
        )
        loss_far = model.path_blockage_db(
            tracer.line_of_sight(ap, headset, [far]).obstructions
        )
        assert loss_near > loss_far


class TestClustering:
    def test_overlapping_occluders_do_not_double_count(self, model):
        a = make_obstruction(depth=0.3, clearance=-0.15, along=1.0)
        b = make_obstruction(depth=0.15, clearance=-0.05, along=1.1)
        combined = model.path_blockage_db([a, b])
        strongest = max(
            obstruction_loss_db(model, a), obstruction_loss_db(model, b)
        )
        assert combined == pytest.approx(strongest)

    def test_separated_occluders_add(self, model):
        a = make_obstruction(depth=0.1, clearance=-0.05, along=0.5)
        b = make_obstruction(depth=0.1, clearance=-0.05, along=2.5)
        combined = model.path_blockage_db([a, b])
        total = obstruction_loss_db(model, a) + obstruction_loss_db(model, b)
        assert combined == pytest.approx(total)

    def test_different_legs_never_cluster(self, model):
        a = make_obstruction(along=1.0)
        b = Obstruction(
            occluder=Circle(Vec2(0, 0), 0.1),
            leg_index=1,
            depth_m=0.1,
            clearance_m=-0.05,
            along_leg_m=1.0,
            leg_length_m=3.0,
        )
        combined = model.path_blockage_db([a, b])
        assert combined == pytest.approx(
            obstruction_loss_db(model, a) + obstruction_loss_db(model, b)
        )

    def test_overall_cap(self, model):
        heavy = [
            make_obstruction(depth=0.4, clearance=-0.2, along=float(i))
            for i in range(5)
        ]
        assert model.path_blockage_db(heavy) <= 2.0 * model.max_blockage_db

    def test_empty_list_is_zero(self, model):
        assert model.path_blockage_db([]) == 0.0


#: Positions along a leg on a 0.25 m grid: ties, gaps of exactly 0.5 m
#: and gaps just over it.
grid_along = st.integers(0, 16).map(lambda i: 0.25 * i)
records = st.builds(
    lambda leg, along, depth, clearance, extra: Obstruction(
        occluder=Circle(Vec2(0, 0), 0.1),
        leg_index=leg,
        depth_m=depth,
        clearance_m=clearance,
        along_leg_m=along,
        leg_length_m=along + extra,
    ),
    st.integers(0, 2),
    st.one_of(grid_along, st.floats(0.0, 4.0)),
    st.floats(0.0, 0.6),
    st.floats(-0.4, 0.3),
    st.floats(0.0, 4.0),
)


class TestArrayFormulaMatchesScalar:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(records, max_size=12), st.sampled_from([400.0, 0.0, 40.0]))
    def test_path_blockage_equals_scalar_reference(self, obstructions, absorption):
        """Legs in any order, ties along a leg, 0.5 m gaps and totals
        over the cap: the array formula equals the scalar one exactly."""
        model = BlockageModel(absorption_db_per_m=absorption, max_blockage_db=14.0)
        assert model.path_blockage_db(obstructions) == path_blockage_db(model, obstructions)

    @settings(max_examples=200, deadline=None)
    @given(
        st.floats(-0.5, 0.5),
        st.floats(0.0, 5.0),
        st.floats(0.0, 5.0),
    )
    def test_knife_edge_equals_scalar_reference(self, h, d1, d2):
        model = BlockageModel()
        assert model.knife_edge_loss_db(h, d1, d2) == knife_edge_loss_db(model, h, d1, d2)

    def test_table_of_many_paths_equals_one_path_at_a_time(self, model, tracer):
        paths = tracer.all_paths(
            Vec2(0.3, 0.3),
            Vec2(3.0, 3.0),
            extra_occluders=[Circle(Vec2(x, y), 0.3) for x, y in [(1, 1), (2, 2.2), (3.5, 1.5)]],
        )
        records = [(i, o) for i, p in enumerate(paths) for o in p.obstructions]
        assert len({i for i, _ in records}) > 2
        table = ObstructionTable.of_records(records)
        totals = model.path_blockages_db(table, len(paths))
        assert totals.tolist() == [path_blockage_db(model, p.obstructions) for p in paths]

    def test_negative_depth_rejected(self, model):
        with pytest.raises(ValueError):
            model.path_blockage_db([make_obstruction(depth=-0.1)])
