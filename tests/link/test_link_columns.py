"""Link columns: each traced path set's angles and unshadowed channel
gains, built once and read by every later link evaluation.

The properties pin the arithmetic: the tracer's path-set arrays and the
array formula over them equal, exactly, the scalar path-by-path
reference below; reading the columns gives, path by path, exactly the
power the one-path channel gives, and draws shadowing in the same order
from the same stream.
"""

import gc
import math
import weakref

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from repro.experiments.apartment import build_apartment
from repro.geometry.raytrace import PathSet, RayTracer
from repro.geometry.room import standard_office
from repro.geometry.shapes import AxisAlignedBox, Circle
from repro.geometry.vectors import Vec2
from repro.link.budget import LinkBudget
from repro.link.radios import Radio
from repro.phy.blockage import BlockageModel
from repro.phy.channel import MmWaveChannel, atmospheric_loss_db
from repro.sim import cache as cache_module
from repro.utils.db import db_sum_powers
from repro.utils.exactmath import left_sum
from repro.utils.units import wavelength

TX = Vec2(0.5, 0.5)
RX = Vec2(4.0, 3.5)

coords = st.floats(min_value=0.3, max_value=4.7)
points = st.builds(Vec2, coords, coords)
extras = st.lists(
    st.builds(Circle, points, st.floats(min_value=0.05, max_value=0.4)),
    max_size=3,
)
steers = st.floats(min_value=-180.0, max_value=180.0)


# -- the scalar reference: one path at a time, as the channel once was ----


def scalar_obstruction_loss_db(model, o):
    d1 = max(o.along_leg_m, 1e-3)
    d2 = max(o.leg_length_m - o.along_leg_m, 1e-3)
    lam = wavelength(model.carrier_hz)
    v = -o.clearance_m * math.sqrt(2.0 * (d1 + d2) / (lam * d1 * d2))
    around = 0.0
    if v > -0.78:
        around = 6.9 + 20.0 * math.log10(math.sqrt((v - 0.1) ** 2 + 1.0) + v - 0.1)
    through = model.absorption_db_per_m * o.depth_m
    return min(model.max_blockage_db, -db_sum_powers([-around, -through]))


def scalar_path_blockage_db(model, obstructions):
    by_leg = {}
    for o in obstructions:
        by_leg.setdefault(o.leg_index, []).append(o)
    clusters = []
    for records in by_leg.values():
        records.sort(key=lambda o: o.along_leg_m)
        clusters.append([records[0]])
        for o in records[1:]:
            if o.along_leg_m - clusters[-1][-1].along_leg_m <= 0.5:
                clusters[-1].append(o)
            else:
                clusters.append([o])
    total = left_sum(max(scalar_obstruction_loss_db(model, o) for o in c) for c in clusters)
    return min(2.0 * model.max_blockage_db, total)


def scalar_unshadowed_gain_db(channel, path):
    length = path.total_length_m
    lam = wavelength(channel.carrier_hz)
    gain = -(20.0 * math.log10(4.0 * math.pi * length / lam))
    gain -= atmospheric_loss_db(length, channel.carrier_hz)
    gain -= path.total_reflection_loss_db
    gain -= path.total_penetration_loss_db
    if path.obstructions:
        gain -= scalar_path_blockage_db(channel.blockage_model, path.obstructions)
    return gain


ROOMS = {
    "bare": standard_office(furnished=False),
    "furnished": standard_office(furnished=True),
    "apartment": build_apartment(),
}
grid = st.integers(2, 18).map(lambda i: 0.25 * i)
room_coords = st.floats(min_value=0.2, max_value=4.8)
shapes = st.one_of(
    st.builds(Circle, st.builds(Vec2, room_coords, room_coords), st.floats(0.05, 0.5)),
    st.builds(
        lambda corner, w, h: AxisAlignedBox(corner, corner + Vec2(w, h)),
        st.builds(Vec2, room_coords, room_coords),
        st.floats(0.05, 0.8),
        st.floats(0.05, 0.8),
    ),
)


@st.composite
def scenes(draw):
    """A room, endpoints and 0-6 extra circles and boxes.  Half the
    scenes run the LOS along y = const with circles centred on it at
    0.25 m steps: ties along the leg, gaps of exactly 0.5 m, and (under
    a low cap) totals above ``2 * max_blockage_db``."""
    room = draw(st.sampled_from(sorted(ROOMS)))
    if draw(st.booleans()):
        y = draw(grid)
        tx, rx = Vec2(0.25, y), Vec2(4.75, y)
        extras = [
            Circle(Vec2(draw(grid), y), draw(st.sampled_from([0.05, 0.1, 0.2, 0.3])))
            for _ in range(draw(st.integers(0, 6)))
        ]
    else:
        # The apartment's bedroom lies past its partition, at x > 5.
        xs = st.floats(0.2, 7.8) if room == "apartment" else room_coords
        tx = Vec2(draw(xs), draw(room_coords))
        rx = Vec2(draw(xs), draw(room_coords))
        extras = draw(st.lists(shapes, max_size=6))
    assume(tx.distance_to(rx) > 0.1)
    return room, tx, rx, extras


class TestPathSetMatchesScalarReference:
    @settings(max_examples=150, deadline=None)
    @given(
        scene=scenes(),
        bounces=st.sampled_from([1, 2]),
        cap_db=st.sampled_from([28.0, 6.0]),
    )
    def test_columns_equal_the_scalar_loop(self, scene, bounces, cap_db):
        room, tx, rx, extras = scene
        channel = MmWaveChannel(blockage_model=BlockageModel(max_blockage_db=cap_db))
        tracer = RayTracer(ROOMS[room])
        for paths in (
            tracer.all_paths(tx, rx, bounces, extras),
            [tracer.line_of_sight(tx, rx, extras)],
        ):
            path_set = PathSet.of(paths)
            assert path_set is paths[0]._set
            assert path_set.length.tolist() == [p.total_length_m for p in paths]
            assert path_set.reflection_db.tolist() == [
                p.total_reflection_loss_db for p in paths
            ]
            assert path_set.penetration_db.tolist() == [
                p.total_penetration_loss_db for p in paths
            ]
            columns = channel.link_columns(paths)
            assert columns.tolist() == [
                [p.departure_angle_deg for p in paths],
                [p.arrival_angle_deg for p in paths],
                [scalar_unshadowed_gain_db(channel, p) for p in paths],
            ]
            # The table is the path objects' records, path by path.
            cuts = path_set.cuts
            assert list(zip(cuts.path.tolist(), cuts.leg.tolist(), cuts.depth.tolist())) == [
                (i, o.leg_index, o.depth_m) for i, p in enumerate(paths) for o in p.obstructions
            ]
            # A set gathered from the objects gives the same columns.
            copies = [
                type(p)(p.points, p.walls, p.obstructions, p.penetrated_walls) for p in paths
            ]
            assert channel.link_columns(copies).tolist() == columns.tolist()


def make_budget(furnished=False, sigma_db=0.0, seed=7):
    channel = MmWaveChannel(
        shadowing_sigma_db=sigma_db, rng=np.random.default_rng(seed)
    )
    return LinkBudget(RayTracer(standard_office(furnished=furnished)), channel)


def radios():
    return (
        Radio(TX, boresight_deg=45.0, name="tx"),
        Radio(RX, boresight_deg=-135.0, name="rx"),
    )


class TestColumnsMatchTheScalarChannel:
    @settings(max_examples=40, deadline=None)
    @given(
        furnished=st.booleans(),
        tx_at=points,
        rx_at=points,
        extra=extras,
        bounces=st.sampled_from([1, 2]),
        sigma_db=st.sampled_from([0.0, 2.0]),
        seed=st.integers(0, 2**32 - 1),
        tx_steer=steers,
        rx_steer=steers,
    )
    def test_powers_equal_the_per_path_sum(
        self, furnished, tx_at, rx_at, extra, bounces, sigma_db, seed, tx_steer, rx_steer
    ):
        if tx_at.distance_to(rx_at) < 0.5:
            return
        budget = make_budget(furnished, sigma_db, seed)
        reference = MmWaveChannel(
            shadowing_sigma_db=sigma_db, rng=np.random.default_rng(seed)
        )
        tx = Radio(tx_at, boresight_deg=0.0, name="tx")
        rx = Radio(rx_at, boresight_deg=180.0, name="rx")
        paths = budget.cache.all_paths(
            tx_at, rx_at, max_bounces=bounces, extra_occluders=extra
        )
        const = tx.config.tx_power_dbm - tx.config.implementation_loss_db
        tx_gain = tx.array.gain_dbi_batch(
            np.array([p.departure_angle_deg for p in paths]), tx_steer
        )
        rx_gain = rx.array.gain_dbi_batch(
            np.array([p.arrival_angle_deg for p in paths]), rx_steer
        )
        # The first evaluation builds the columns, the second reads them.
        for _ in range(2):
            powers = budget.path_powers_dbm(tx, rx, paths, tx_steer, rx_steer)
            expected = [
                const + reference.path_gain_db(p) + tx_gain[i] + rx_gain[i]
                for i, p in enumerate(paths)
            ]
            assert powers.tolist() == expected
        assert (
            budget.channel.rng.bit_generator.state
            == reference.rng.bit_generator.state
        )

    def test_vector_draw_is_the_scalar_draws(self):
        vector = MmWaveChannel(shadowing_sigma_db=2.0, rng=np.random.default_rng(3))
        scalar = MmWaveChannel(shadowing_sigma_db=2.0, rng=np.random.default_rng(3))
        paths = RayTracer(standard_office()).all_paths(TX, RX)
        gains = vector.path_gains_db(paths)
        assert gains.tolist() == [scalar.path_gain_db(p) for p in paths]
        assert vector.rng.bit_generator.state == scalar.rng.bit_generator.state


def fresh_columns(paths, channel):
    """Columns computed anew: from copies of the paths, which share no
    path set with them."""
    copies = [type(p)(p.points, p.walls, p.obstructions, p.penetrated_walls) for p in paths]
    return channel.link_columns(copies)


class TestColumnsLiveWithTheirEntry:
    """Columns are a memo on the traced path set: they live as long as
    the set, in the scene cache or out of it, and die with it."""

    def test_cached_scene_computes_no_gain_twice(self, monkeypatch):
        budget = make_budget(furnished=True)
        tx, rx = radios()
        computed = []
        original = MmWaveChannel.unshadowed_gains_db

        def counting(channel, path_set):
            computed.append(path_set)
            return original(channel, path_set)

        monkeypatch.setattr(MmWaveChannel, "unshadowed_gains_db", counting)
        first = budget.measure_aligned(tx, rx)
        # One array evaluation, over the cached set.
        assert computed == [budget.cache.all_paths(TX, RX)[0]._set]
        computed.clear()
        second = budget.measure_aligned(tx, rx)
        assert computed == []
        assert second == first

    def test_relay_hop_reads_its_los_entry(self, monkeypatch):
        budget = make_budget()
        hop = budget.cache.line_of_sight(TX, RX, include_room_occluders=False)
        expected = (
            [hop.departure_angle_deg],
            [hop.arrival_angle_deg],
            [budget.channel.path_gain_db(hop)],
        )
        assert budget.hop_columns_many((hop,)) == expected
        monkeypatch.setattr(MmWaveChannel, "unshadowed_gains_db", None)
        assert budget.hop_columns_many((hop,)) == expected

    def test_eviction_drops_columns(self, monkeypatch):
        """An evicted set that nothing references is collected with its
        columns; while anything holds one of its paths, they stay."""
        monkeypatch.setattr(cache_module, "MAX_PATHS", 3)
        budget = make_budget()
        hop = budget.cache.line_of_sight(TX, RX)
        columns = weakref.ref(budget.channel.link_columns((hop,)))
        for y in (1.0, 1.5, 2.0):
            budget.cache.line_of_sight(TX, Vec2(4.0, y))
        gc.collect()
        assert columns() is not None  # evicted, but the hop holds its set
        assert budget.channel.link_columns((hop,)) is columns()
        del hop
        gc.collect()
        assert columns() is None

    def test_invalidate_drops_columns(self):
        budget = make_budget()
        paths = budget.cache.all_paths(TX, RX)
        columns = weakref.ref(budget.channel.link_columns(paths))
        budget.cache.invalidate()
        gc.collect()
        assert budget.channel.link_columns(paths) is columns()
        del paths
        gc.collect()
        assert columns() is None

    def test_caller_built_list_is_not_retained(self, monkeypatch):
        class CallerPaths(list):
            """A list that takes weak references."""

        budget = make_budget()
        tx, rx = radios()
        built = []
        original = MmWaveChannel.link_columns_many

        def tracking(channel, path_lists):
            columns = original(channel, path_lists)
            built.extend(weakref.ref(c) for c in columns)
            return columns

        monkeypatch.setattr(MmWaveChannel, "link_columns_many", tracking)
        entry = budget.cache.all_paths(TX, RX)
        for build in (lambda: entry[1:], lambda: reversed(entry)):
            caller = CallerPaths(build())
            held = weakref.ref(caller)
            budget.path_powers_dbm(tx, rx, caller, 0.0, 0.0)
            del caller
            gc.collect()
            assert held() is None
        assert len(built) == 2
        assert all(ref() is None for ref in built)
        assert entry[0]._set.columns_memo is None  # the entry's set is untouched

    def test_a_copy_of_an_entry_reads_its_columns(self):
        budget = make_budget()
        paths = budget.cache.all_paths(TX, RX)
        columns = budget.channel.link_columns(paths)
        assert budget.channel.link_columns(tuple(paths)) is columns
        assert budget.channel.link_columns(list(paths)) is columns

    def test_columns_are_read_only(self):
        budget = make_budget()
        columns = budget.channel.link_columns(budget.cache.all_paths(TX, RX))
        with pytest.raises(ValueError):
            columns[2, 0] = 0.0

    def test_probe_reads_the_hop_once_and_draws_every_time(self, monkeypatch):
        """Repeated ``path_gain_db`` calls on one traced hop, as the angle
        search's probe makes them, compute its unshadowed gain once and
        draw shadowing on every call."""
        budget = make_budget(sigma_db=2.0, seed=5)
        reference = MmWaveChannel(shadowing_sigma_db=2.0, rng=np.random.default_rng(5))
        hop = budget.cache.line_of_sight(TX, RX, include_room_occluders=False)
        unshadowed = fresh_columns([hop], budget.channel)[2, 0]
        computed = []
        original = MmWaveChannel.unshadowed_gains_db

        def counting(channel, path_set):
            computed.append(len(path_set))
            return original(channel, path_set)

        monkeypatch.setattr(MmWaveChannel, "unshadowed_gains_db", counting)
        gains = [budget.channel.path_gain_db(hop) for _ in range(4)]
        assert computed == [1]
        assert gains == [unshadowed + reference.rng.normal(0.0, 2.0) for _ in range(4)]
        assert len(set(gains)) == 4


class TestChannelEdits:
    @pytest.mark.parametrize(
        "edit",
        [
            lambda ch: setattr(
                ch, "blockage_model", BlockageModel(absorption_db_per_m=5.0)
            ),
            lambda ch: setattr(ch, "carrier_hz", 60.0e9),
        ],
        ids=["blockage_model", "carrier"],
    )
    def test_edit_rebuilds_the_columns(self, edit):
        budget = make_budget(furnished=True)
        hand = Circle(Vec2(3.8, 3.3), 0.1)
        paths = budget.cache.all_paths(TX, RX, extra_occluders=[hand])
        before = budget.channel.link_columns(paths)
        edit(budget.channel)
        after = budget.channel.link_columns(paths)
        assert after is not before
        assert after.tolist() == fresh_columns(paths, budget.channel).tolist()
        assert after[2].tolist() != before[2].tolist()
        assert budget.channel.link_columns(paths) is after


class TestPathSetOf:
    """``PathSet.of`` hands back a traced set without re-reading it."""

    def test_the_traced_list_is_its_set_without_a_walk(self):
        paths = RayTracer(standard_office(furnished=True)).all_paths(TX, RX)
        whole = paths[0]._set
        assert len(paths) > 2
        # A walk over the views would now refuse the list.
        last = paths[-1]
        last._index = 0
        try:
            assert PathSet.of(paths) is whole
        finally:
            last._index = len(paths) - 1

    def test_other_lists_are_read_path_by_path(self):
        paths = RayTracer(standard_office(furnished=True)).all_paths(TX, RX)
        whole = paths[0]._set
        # A list the caller built with the traced paths in order is
        # still the traced set (a hop's one-path tuple keeps its memo).
        assert PathSet.of(list(paths)) is whole
        # A slice gathers a new set from the objects.
        tail = PathSet.of(paths[1:])
        assert tail is not whole
        assert tail.length.tolist() == whole.length.tolist()[1:]
        assert tail.departure.tolist() == whole.departure.tolist()[1:]
        assert tail.arrival.tolist() == whole.arrival.tolist()[1:]


class TestJoinedSets:
    """One formula over joined sets gives each set's own columns."""

    @settings(max_examples=40, deadline=None)
    @given(receivers=st.lists(points, min_size=1, max_size=4), blockers=extras)
    def test_concat_gains_are_each_sets_gains(self, receivers, blockers):
        assume(all(r.distance_to(TX) > 0.2 for r in receivers))
        tracer = RayTracer(standard_office(furnished=True))
        channel = MmWaveChannel()
        sets = [tracer.all_paths(TX, r, 2, blockers)[0]._set for r in receivers]
        # A set with no cuts next to sets with many.
        sets.append(tracer.line_of_sight(TX, RX, include_room_occluders=False)._set)
        joined = PathSet.concat(sets)
        assert len(joined) == sum(len(s) for s in sets)
        assert len(joined.cuts.path) == sum(len(s.cuts.path) for s in sets)
        expected = np.concatenate([channel.unshadowed_gains_db(s) for s in sets])
        assert np.array_equal(channel.unshadowed_gains_db(joined), expected)

    def test_one_set_is_itself(self):
        path_set = RayTracer(standard_office()).all_paths(TX, RX)[0]._set
        assert PathSet.concat([path_set]) is path_set

    def test_entry_listed_twice_is_built_once(self, monkeypatch):
        budget = make_budget(furnished=True)
        paths = budget.cache.all_paths(TX, RX)
        other = budget.cache.all_paths(TX, Vec2(2.0, 4.0))
        built = []
        original = MmWaveChannel.unshadowed_gains_db

        def counting(channel, path_set):
            built.append(len(path_set))
            return original(channel, path_set)

        monkeypatch.setattr(MmWaveChannel, "unshadowed_gains_db", counting)
        first, again, second = budget.channel.link_columns_many(
            [paths, tuple(paths), other]
        )
        assert first is again
        assert built == [len(paths) + len(other)]
        assert second is budget.channel.link_columns(other)
        assert np.array_equal(first, fresh_columns(paths, budget.channel))
