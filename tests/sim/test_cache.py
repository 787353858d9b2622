"""SceneCache: memoization, occluder-keyed staleness, counters.

Counter assertions read the telemetry registry directly
(``scene.tracer_calls``, ``scene.cache.*``) inside a fresh scope per
test.
"""

import math

from repro import telemetry
from repro.sim import cache as cache_module
from repro.geometry.raytrace import RayTracer
from repro.geometry.room import Room, standard_office
from repro.geometry.shapes import Circle
from repro.geometry.vectors import Vec2
from repro.sim.cache import SceneCache, occluder_signature

TX = Vec2(0.5, 0.5)
RX = Vec2(4.5, 4.5)


def make_cache(furnished: bool = False) -> SceneCache:
    return SceneCache(RayTracer(standard_office(furnished=furnished)))


def retained_paths(cache: SceneCache) -> int:
    return sum(len(entry) for entry in cache._entries.values())


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
            cache.line_of_sight(TX, RX)
            assert sc.registry.counter_value("scene.cache.hits") == 0
            assert sc.registry.counter_value("scene.tracer_calls") == 4

    def test_reflection_paths_read_the_all_paths_entry(self):
        cache = make_cache()
        with telemetry.scope("t") as sc:
            paths = cache.all_paths(TX, RX)
            assert cache.reflection_paths(TX, RX) == paths[1:]
            assert sc.registry.counter_value("scene.tracer_calls") == 1
            assert sc.registry.counter_value("scene.cache.hits") == 1
        assert len(cache) == 1

    def test_bare_los_key_ignores_room_furniture(self):
        # A LOS that skips the room's furniture never reads it, so
        # moving that furniture keeps the entry.
        room = standard_office(furnished=True)
        cache = SceneCache(RayTracer(room))
        bare = cache.line_of_sight(TX, RX, include_room_occluders=False)
        room.occluders.pop()
        with telemetry.scope("t") as sc:
            again = cache.line_of_sight(TX, RX, include_room_occluders=False)
            assert sc.registry.counter_value("scene.cache.hits") == 1
        assert again is bare


class TestPathBound:
    """LRU eviction keeps the retained path count under MAX_PATHS."""

    def test_mixed_queries_stay_under_the_bound(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_PATHS", 40)
        cache = make_cache(furnished=True)
        for i in range(12):
            rx = Vec2(4.5, 0.5 + 0.3 * i)
            cache.line_of_sight(TX, rx)
            cache.all_paths(TX, rx, max_bounces=i % 2 + 1)
            assert retained_paths(cache) <= 40
        assert retained_paths(cache) == cache._paths
        assert 1 < len(cache) < 24

    def test_reread_entry_outlives_an_older_one(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_PATHS", 3)
        cache = make_cache()
        a, b, c, d = (Vec2(4.5, y) for y in (0.5, 1.5, 2.5, 3.5))
        for rx in (a, b, c):
            cache.line_of_sight(TX, rx)
        cache.line_of_sight(TX, a)  # re-read: a is now the newest
        cache.line_of_sight(TX, d)  # over the bound: evicts b, not a
        with telemetry.scope("t") as sc:
            cache.line_of_sight(TX, a)
            assert sc.registry.counter_value("scene.tracer_calls") == 0
            cache.line_of_sight(TX, b)
            assert sc.registry.counter_value("scene.tracer_calls") == 1
        assert retained_paths(cache) == 3

    def test_entry_larger_than_the_bound_is_kept_alone(self, monkeypatch):
        monkeypatch.setattr(cache_module, "MAX_PATHS", 3)
        cache = make_cache()
        cache.line_of_sight(TX, RX)
        paths = cache.all_paths(TX, RX)
        assert len(paths) > 3
        assert len(cache) == 1
        with telemetry.scope("t") as sc:
            assert cache.all_paths(TX, RX) is paths
            assert sc.registry.counter_value("scene.cache.hits") == 1


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
