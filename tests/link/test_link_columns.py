"""Link columns: each cached path set's angles and unshadowed channel
gains, built once and read by every later link evaluation.

The property pins the arithmetic: reading the columns gives, path by
path, exactly the power the per-path scalar channel gives, and draws
shadowing in the same order from the same stream.
"""

import gc
import weakref

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.geometry.raytrace import RayTracer
from repro.geometry.room import standard_office
from repro.geometry.shapes import Circle
from repro.geometry.vectors import Vec2
from repro.link.budget import LinkBudget
from repro.link.radios import Radio
from repro.phy.blockage import BlockageModel
from repro.phy.channel import MmWaveChannel
from repro.sim import cache as cache_module

TX = Vec2(0.5, 0.5)
RX = Vec2(4.0, 3.5)

coords = st.floats(min_value=0.3, max_value=4.7)
points = st.builds(Vec2, coords, coords)
extras = st.lists(
    st.builds(Circle, points, st.floats(min_value=0.05, max_value=0.4)),
    max_size=3,
)
steers = st.floats(min_value=-180.0, max_value=180.0)


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


class TestColumnsLiveWithTheirEntry:
    def test_cached_scene_computes_no_gain_twice(self, monkeypatch):
        budget = make_budget(furnished=True)
        tx, rx = radios()
        computed = []
        original = MmWaveChannel.unshadowed_gain_db

        def counting(channel, path):
            computed.append(path)
            return original(channel, path)

        monkeypatch.setattr(MmWaveChannel, "unshadowed_gain_db", counting)
        first = budget.measure_aligned(tx, rx)
        assert len(computed) == len(budget.cache.all_paths(TX, RX))
        computed.clear()
        second = budget.measure_aligned(tx, rx)
        assert computed == []
        assert second == first

    def test_relay_hop_reads_its_los_entry(self, monkeypatch):
        budget = make_budget()
        hop = budget.cache.line_of_sight(TX, RX, include_room_occluders=False)
        expected = (
            hop.departure_angle_deg,
            hop.arrival_angle_deg,
            budget.channel.path_gain_db(hop),
        )
        assert budget.hop_columns(hop) == expected
        monkeypatch.setattr(MmWaveChannel, "unshadowed_gain_db", None)
        assert budget.hop_columns(hop) == expected

    def test_eviction_drops_columns(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_PATHS", 3)
        budget = make_budget()
        hop = budget.cache.line_of_sight(TX, RX)
        columns = weakref.ref(budget.cache.link_columns((hop,), budget.channel))
        gc.collect()
        assert columns() is not None  # held beside the live entry
        for y in (1.0, 1.5, 2.0):
            budget.cache.line_of_sight(TX, Vec2(4.0, y))
        gc.collect()
        assert columns() is None

    def test_invalidate_drops_columns(self):
        budget = make_budget()
        paths = budget.cache.all_paths(TX, RX)
        columns = weakref.ref(budget.cache.link_columns(paths, budget.channel))
        budget.cache.invalidate()
        gc.collect()
        assert columns() is None
        assert budget.cache.link_columns(paths, budget.channel) is not None

    def test_caller_built_list_is_not_retained(self, monkeypatch):
        class CallerPaths(list):
            """A list that takes weak references."""

        budget = make_budget()
        tx, rx = radios()
        built = []
        original = cache_module.link_columns

        def tracking(paths, channel):
            columns = original(paths, channel)
            built.append(weakref.ref(columns))
            return columns

        monkeypatch.setattr(cache_module, "link_columns", tracking)
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

    def test_a_copy_of_an_entry_reads_its_columns(self):
        budget = make_budget()
        paths = budget.cache.all_paths(TX, RX)
        columns = budget.cache.link_columns(paths, budget.channel)
        assert budget.cache.link_columns(tuple(paths), budget.channel) is columns

    def test_columns_are_read_only(self):
        budget = make_budget()
        columns = budget.cache.link_columns(
            budget.cache.all_paths(TX, RX), budget.channel
        )
        with pytest.raises(ValueError):
            columns[2, 0] = 0.0


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
        before = budget.cache.link_columns(paths, budget.channel)
        edit(budget.channel)
        after = budget.cache.link_columns(paths, budget.channel)
        assert after is not before
        assert after.tolist() == cache_module.link_columns(paths, budget.channel).tolist()
        assert after[2].tolist() != before[2].tolist()
        assert budget.cache.link_columns(paths, budget.channel) is after
