"""SceneCache: memoization, occluder-keyed staleness, counters.

Counter assertions read the telemetry registry directly
(``scene.tracer_calls``, ``scene.cache.*``) inside a fresh scope per
test.
"""

import math

from repro import telemetry
from repro.geometry.raytrace import RayTracer
from repro.geometry.room import Room, standard_office
from repro.geometry.shapes import Circle
from repro.geometry.vectors import Vec2
from repro.sim.cache import SceneCache, occluder_signature

TX = Vec2(0.5, 0.5)
RX = Vec2(4.5, 4.5)


def make_cache(furnished: bool = False, **kwargs) -> SceneCache:
    return SceneCache(RayTracer(standard_office(furnished=furnished)), **kwargs)


class TestMemoization:
    def test_repeat_query_hits_and_returns_same_paths(self):
        cache = make_cache()
        with telemetry.scope("t") as sc:
            first = cache.all_paths(TX, RX)
            assert sc.registry.counter_value("scene.tracer_calls") == 1
            second = cache.all_paths(TX, RX)
            assert sc.registry.counter_value("scene.tracer_calls") == 1
            assert sc.registry.counter_value("scene.cache.hits") == 1
        assert second is first

    def test_matches_uncached_tracer(self):
        cache = make_cache()
        direct = RayTracer(standard_office(furnished=False))
        cached = cache.all_paths(TX, RX)
        traced = direct.all_paths(TX, RX)
        assert [p.points for p in cached] == [p.points for p in traced]

    def test_distinct_endpoints_and_bounce_budgets_miss(self):
        cache = make_cache()
        with telemetry.scope("t") as sc:
            cache.all_paths(TX, RX, max_bounces=1)
            cache.all_paths(TX, RX, max_bounces=2)
            cache.all_paths(TX, Vec2(4.5, 4.4), max_bounces=2)
            cache.reflection_paths(TX, RX, max_bounces=2)
            cache.line_of_sight(TX, RX)
            assert sc.registry.counter_value("scene.cache.hits") == 0
            assert sc.registry.counter_value("scene.tracer_calls") == 5

    def test_lru_eviction_bounds_entries(self):
        cache = make_cache(max_entries=4)
        for i in range(10):
            cache.line_of_sight(TX, Vec2(4.5, 0.5 + 0.4 * i))
        assert len(cache) == 4


class TestStaleness:
    """Moving an occluder must never resurface stale paths."""

    def test_extra_occluder_changes_key(self):
        cache = make_cache()
        with telemetry.scope("t") as sc:
            clear = cache.line_of_sight(TX, RX)
            blocker = Circle(center=Vec2(2.5, 2.5), radius=0.3)
            blocked = cache.line_of_sight(TX, RX, extra_occluders=(blocker,))
            assert sc.registry.counter_value("scene.cache.hits") == 0
        assert not clear.obstructions
        assert blocked.obstructions

    def test_room_occluder_moved_in_place_is_not_reused(self):
        # Same Room object mutated between queries — the signature is
        # built from geometry values, so the stale entry cannot match.
        room = Room(walls=standard_office(furnished=False).walls, name="mut")
        room.add_occluder(Circle(center=Vec2(1.0, 4.0), radius=0.3))
        cache = SceneCache(RayTracer(room))
        clear = cache.line_of_sight(TX, RX)
        assert not clear.obstructions

        room.occluders[0] = Circle(center=Vec2(2.5, 2.5), radius=0.3)
        moved = cache.line_of_sight(TX, RX)
        assert moved is not clear
        assert moved.obstructions, "stale unobstructed path was reused"

    def test_occluder_added_then_removed_restores_original(self):
        room = Room(walls=standard_office(furnished=False).walls, name="mut")
        cache = SceneCache(RayTracer(room))
        before = cache.all_paths(TX, RX)
        room.add_occluder(Circle(center=Vec2(2.5, 2.5), radius=0.3))
        during = cache.all_paths(TX, RX)
        assert during is not before
        room.occluders.clear()
        after = cache.all_paths(TX, RX)
        assert after is before  # the original entry is valid again

    def test_signature_distinguishes_geometry(self):
        a = occluder_signature([Circle(center=Vec2(1.0, 2.0), radius=0.3)])
        b = occluder_signature([Circle(center=Vec2(1.0, 2.1), radius=0.3)])
        c = occluder_signature([Circle(center=Vec2(1.0, 2.0), radius=0.4)])
        assert len({a, b, c}) == 3

    def test_explicit_invalidate_drops_entries_and_counts(self):
        cache = make_cache()
        cache.all_paths(TX, RX)
        assert len(cache) == 1
        with telemetry.scope("t") as sc:
            cache.invalidate()
            assert len(cache) == 0
            assert sc.registry.counter_value("scene.cache.invalidations") == 1
            cache.all_paths(TX, RX)
            assert sc.registry.counter_value("scene.cache.misses") == 1


class TestCounters:
    def test_hit_rate(self):
        cache = make_cache()
        with telemetry.scope("t") as sc:
            cache.all_paths(TX, RX)
            cache.all_paths(TX, RX)
            cache.all_paths(TX, RX)
            hits = sc.registry.counter_value("scene.cache.hits")
            misses = sc.registry.counter_value("scene.cache.misses")
            assert math.isclose(hits / (hits + misses), 2.0 / 3.0)
            assert hits == 2
            assert misses == 1
            assert sc.registry.counter_value("scene.tracer_calls") == 1
