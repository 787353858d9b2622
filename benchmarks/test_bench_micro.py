"""Microbenchmarks for the hot paths of the simulator.

These time the primitives that dominate the figure regenerations —
useful when optimizing and as a regression guard on simulation cost.
"""

import itertools

import numpy as np

from repro import telemetry
from repro.core.angle_search import BackscatterAngleSearch
from repro.core.reflector import MoVRReflector
from repro.experiments.testbed import default_testbed
from repro.geometry.bodies import PersonModel
from repro.geometry.raytrace import RayTracer
from repro.geometry.room import standard_office
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.budget import LinkBudget
from repro.link.radios import DEFAULT_RADIO_CONFIG, HEADSET_RADIO_CONFIG, Radio
from repro.phy.channel import MmWaveChannel
from repro.phy.ofdm import measure_link_snr_db


def test_bench_raytrace_all_paths(benchmark):
    tracer = RayTracer(standard_office())
    result = benchmark(
        tracer.all_paths, Vec2(0.3, 0.3), Vec2(3.5, 3.5), 2
    )
    assert len(result) >= 5


def test_bench_link_measure(benchmark):
    room = standard_office()
    budget = LinkBudget(RayTracer(room), MmWaveChannel())
    tx = Radio(Vec2(0.3, 0.3), boresight_deg=45.0)
    rx = Radio(Vec2(3.5, 3.5), boresight_deg=-135.0)
    result = benchmark(budget.measure, tx, rx, 45.0, -135.0)
    assert result.snr_db > 0.0


def test_bench_relay_candidates(benchmark):
    # Three calibrated reflectors; the first call traces and caches
    # every hop, so the benchmark times the relay ranking on a cached
    # scene (the seated-player case).
    system = default_testbed(
        seed=2016, num_reflectors=3, shadowing_sigma_db=0.0
    ).system
    headset = Radio(
        Vec2(2.5, 2.0), boresight_deg=-135.0, config=HEADSET_RADIO_CONFIG
    )
    expected = system.relay_candidates(headset)
    result = benchmark(system.relay_candidates, headset)
    assert len(result) == 3
    assert result == expected


#: Six players of an arena, facing the room.
PLAYERS = [(1.4, 1.1), (3.1, 1.2), (1.0, 2.9), (3.9, 3.1), (2.2, 3.9), (4.2, 2.0)]


def _arena_scenes(offset_m=0.0):
    """Each player's headset and the other players' bodies."""
    headsets = [
        Radio(Vec2(x + offset_m, y), boresight_deg=-135.0, config=HEADSET_RADIO_CONFIG)
        for x, y in PLAYERS
    ]
    bodies = [PersonModel(h.position, heading_deg=-135.0).occluders() for h in headsets]
    occluders = [
        [occ for j, body in enumerate(bodies) if j != i for occ in body]
        for i in range(len(headsets))
    ]
    return headsets, occluders


def test_bench_direct_links(benchmark):
    # Pass 1 of a tick: six headsets' direct links in one array pass.
    # Every round moves the players 1 mm, so each round traces six new
    # scenes and builds their link columns in one formula.
    system = default_testbed(seed=2016, num_reflectors=3, shadowing_sigma_db=0.0).system
    twin = default_testbed(seed=2016, num_reflectors=3, shadowing_sigma_db=0.0).system
    headsets, occluders = _arena_scenes()
    expected = [twin.direct_link(h, o) for h, o in zip(headsets, occluders)]
    assert system.direct_links(headsets, occluders) == expected
    cached = len(system.budget.cache)
    step = itertools.count(1)

    def new_scenes():
        return _arena_scenes(0.001 * next(step)), {}

    rounds = 20
    result = benchmark.pedantic(system.direct_links, setup=new_scenes, rounds=rounds)
    assert len(result) == len(PLAYERS)
    assert len(system.budget.cache) == cached + len(PLAYERS) * rounds


def test_bench_relay_candidates_many(benchmark):
    # Pass 2 of a tick: four blocked headsets bid for three reflectors
    # in one array pass, on cached scenes (the seated-player case).
    system = default_testbed(seed=2016, num_reflectors=3, shadowing_sigma_db=0.0).system
    twin = default_testbed(seed=2016, num_reflectors=3, shadowing_sigma_db=0.0).system
    headsets, occluders = _arena_scenes()
    headsets, occluders = headsets[:4], occluders[:4]
    expected = [twin.relay_candidates(h, o) for h, o in zip(headsets, occluders)]
    assert system.relay_candidates_many(headsets, occluders) == expected
    result = benchmark(system.relay_candidates_many, headsets, occluders)
    assert [len(bids) for bids in result] == [3, 3, 3, 3]
    assert result == expected


def test_bench_multipanel_gain_grid(benchmark):
    # The headset side of an Opt-NLOS sweep: 15 path arrivals against 60
    # candidate steerings spread over the three panels, one kernel call.
    headset = Radio(Vec2(2.5, 2.0), boresight_deg=-135.0, config=HEADSET_RADIO_CONFIG)
    arrivals = np.linspace(-175.0, 175.0, 15)[:, None]
    steerings = np.linspace(-180.0, 174.0, 60)[None, :]
    with telemetry.scope("grid") as sc:
        result = benchmark(headset.array.gain_dbi_batch, arrivals, steerings)
    # Every round evaluated the whole grid in one kernel call.
    batches = sc.registry.counter_value("kernel.batches")
    assert sc.registry.counter_value("kernel.angles") == batches * result.size
    panels = {headset.array.panel_for(s) for s in steerings[0]}
    assert len(panels) == 3
    assert result.tolist() == [
        [headset.array.gain_dbi(a, steer_override_deg=s) for s in steerings[0]]
        for a in arrivals[:, 0]
    ]


def test_bench_scene_miss(benchmark):
    # The serving miss: the AP measures a headset among six players'
    # bodies (12 circles) in the furnished office, and every round
    # moves the headset 1 mm, so every round traces a scene the cache
    # has not seen and builds its link columns.
    budget = LinkBudget(RayTracer(standard_office()), MmWaveChannel())
    ap = Radio(Vec2(0.3, 0.3), boresight_deg=45.0)
    players = [(1.4, 1.1), (3.1, 1.2), (1.0, 2.9), (3.9, 3.1), (2.2, 3.9), (4.2, 2.0)]
    bodies = [
        occ
        for x, y in players
        for occ in PersonModel(Vec2(x, y), heading_deg=-135.0).occluders()
    ]
    step = itertools.count()

    def new_scene():
        position = Vec2(2.5 + 0.001 * next(step), 2.2)
        headset = Radio(position, boresight_deg=-135.0, config=HEADSET_RADIO_CONFIG)
        return (ap, headset), {"extra_occluders": bodies}

    rounds = 40
    result = benchmark.pedantic(budget.measure_aligned, setup=new_scene, rounds=rounds)
    assert len(bodies) == 12
    assert len(budget.cache) == rounds
    assert result.snr_db > 0.0


def test_bench_ofdm_snr_measurement(benchmark):
    result = benchmark(
        measure_link_snr_db, 20.0, 0.0, 0.0, None, 7
    )
    assert 15.0 < result < 25.0


def test_bench_leakage_eval(benchmark):
    reflector = MoVRReflector(Vec2(4.7, 4.7), boresight_deg=-135.0)
    reflector.point_at(Vec2(0.3, 0.3), Vec2(2.5, 2.5))
    # The model itself: the reflector would answer from its memo.
    angles = (
        reflector.azimuth_to_prototype(reflector.tx_azimuth_deg),
        reflector.azimuth_to_prototype(reflector.rx_azimuth_deg),
    )
    result = benchmark(reflector.leakage_model.leakage_db, *angles)
    assert -85.0 < result < -45.0


def test_bench_fast_angle_sweep(benchmark):
    room = standard_office(furnished=False)
    tracer = RayTracer(room)
    ap = Radio(Vec2(0.3, 0.3), boresight_deg=45.0, config=DEFAULT_RADIO_CONFIG)
    position = Vec2(4.0, 4.2)
    reflector = MoVRReflector(
        position, boresight_deg=bearing_deg(position, ap.position)
    )
    search = BackscatterAngleSearch(ap, reflector, tracer, MmWaveChannel(), rng=1)
    result = benchmark(search.estimate_incidence_angle)
    assert result.reflector_error_deg <= 2.0


def test_bench_link_columns(benchmark):
    # A scene miss plus its link columns: the AP's two-bounce path set to
    # a headset among six players' bodies in the furnished office, and
    # the array formula over it.  The headset moves 1 mm per round, so
    # every round traces a new set and builds its columns.
    budget = LinkBudget(RayTracer(standard_office(furnished=True)), MmWaveChannel())
    ap = Vec2(0.3, 0.3)
    players = [(1.4, 1.1), (3.1, 1.2), (1.0, 2.9), (3.9, 3.1), (2.2, 3.9), (4.2, 2.0)]
    bodies = [
        occ
        for x, y in players
        for occ in PersonModel(Vec2(x, y), heading_deg=-135.0).occluders()
    ]
    step = itertools.count()

    def new_scene():
        return (Vec2(2.5 + 0.001 * next(step), 2.2),), {}

    def miss_and_columns(headset):
        paths = budget.cache.all_paths(ap, headset, 2, bodies)
        return budget.channel.link_columns(paths)

    rounds = 40
    columns = benchmark.pedantic(miss_and_columns, setup=new_scene, rounds=rounds)
    assert len(budget.cache) == rounds
    assert columns.shape[0] == 3 and columns.shape[1] > 10
