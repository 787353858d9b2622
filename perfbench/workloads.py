"""Seeded tick inputs for the serving benchmark's three workloads.

A *tick* is one 90 Hz scheduling instant for every headset in the room.
Its inputs are the headsets' poses and the extra occluders (hands,
heads, bystanders) present at that instant.  Every input is built here,
from the workload seed and the program's own motion and body models,
before any timing starts; the timed loop only feeds them to the
program.

The room itself — testbed geometry, reflector placement and gain
calibration — is installation state, not input: it is built from a
fixed installation seed so every workload seed serves the same room.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List, Tuple

import numpy as np

from repro.experiments.testbed import Testbed, default_testbed
from repro.geometry.bodies import (
    PersonModel,
    hand_occluder,
    person_blocking_path,
    self_head_blocking,
)
from repro.geometry.mobility import PoseSample, VrPlayerMotion, linear_walk_trace
from repro.geometry.room import Occluder
from repro.geometry.vectors import Vec2, bearing_deg
from repro.utils.rng import DEFAULT_SEED

#: The VR frame clock: one scheduling tick per displayed frame.
TICK_HZ = 90.0
TICK_S = 1.0 / TICK_HZ


@dataclass(frozen=True)
class Tick:
    """One scheduling instant's inputs."""

    t_s: float
    poses: Tuple[PoseSample, ...]
    occluders: Tuple[Occluder, ...]


@dataclass(frozen=True)
class Workload:
    """A named input family plus the room it runs in."""

    name: str
    num_users: int
    num_reflectors: int
    #: Ticks every repetition always completes; the simulated QoE
    #: metrics are scored over exactly these, so they do not depend on
    #: how fast the host is.
    guard_ticks: int
    #: Ticks of input built per repetition (an upper bound on the timed
    #: loop's length).
    input_ticks: int
    generate: Callable[[Testbed, np.random.Generator, int], List[Tick]]


def build_testbed(workload: Workload) -> Testbed:
    """The workload's room: AP, calibrated reflectors, controller, built
    from the library's default seed whatever the workload seed."""
    return default_testbed(
        seed=DEFAULT_SEED,
        num_reflectors=workload.num_reflectors,
        shadowing_sigma_db=0.0,
    )


# ---------------------------------------------------------------------------
# solo-roam: one roaming player, hand/head/body blockage episodes
# ---------------------------------------------------------------------------

#: One blockage episode of fixed length per slot, at a seeded onset; the
#: kind cycles through a seeded permutation, so every cycle of slots
#: blocks the player for the same time with each kind (stratified: short
#: runs still cover the §3 scenarios evenly).
_EPISODE_SLOT_S = 1.0
_EPISODE_S = 0.5
_EPISODE_KINDS = ("hand", "head", "body", "crowd")


def _episode_occluders(
    kind: str, param: float, position: Vec2, ap: Vec2, reflector: Vec2
) -> List[Occluder]:
    if kind == "hand":
        return [hand_occluder(position, bearing_deg(position, ap), reach_m=param)]
    if kind == "head":
        return [self_head_blocking(position, ap)]
    body = person_blocking_path(ap, position, param).occluders()
    if kind == "body":
        return body
    # "crowd": a bystander crosses the AP path while a spectator stands
    # at the player's shoulder on the reflector side — both serving
    # paths blocked at once.
    beside = position + Vec2.from_polar(0.45, bearing_deg(position, reflector))
    return body + PersonModel(position=beside).occluders()


def _solo_roam(bed: Testbed, rng: np.random.Generator, n: int) -> List[Tick]:
    duration = n * TICK_S
    trace = VrPlayerMotion(bed.room, seed=rng).generate(
        duration + TICK_S, sample_rate_hz=45.0
    )
    kinds = [str(k) for k in rng.permutation(_EPISODE_KINDS)]
    episodes = []  # (start, end, kind, param)
    for slot in range(int(duration / _EPISODE_SLOT_S) + 1):
        start = slot * _EPISODE_SLOT_S + float(
            rng.uniform(0.0, _EPISODE_SLOT_S - _EPISODE_S)
        )
        kind = kinds[slot % len(kinds)]
        param = float(
            rng.uniform(0.2, 0.35) if kind == "hand" else rng.uniform(0.3, 0.7)
        )
        episodes.append((start, start + _EPISODE_S, kind, param))
    ap = bed.ap.position
    reflector = bed.reflector.position
    ticks = []
    for k in range(n):
        t = k * TICK_S
        pose = trace.pose_at(t)
        start, end, kind, param = episodes[int(t / _EPISODE_SLOT_S)]
        occluders = (
            _episode_occluders(kind, param, pose.position, ap, reflector)
            if start <= t < end
            else []
        )
        ticks.append(Tick(t, (pose,), tuple(occluders)))
    return ticks


# ---------------------------------------------------------------------------
# arena-6: six roaming players, mutual blockage, three reflectors
# ---------------------------------------------------------------------------

#: Play-area centres: three players in file on each of two bearings
#: out of the AP corner, so nearer players' bodies shadow farther ones
#: and blocked players can outnumber the reflectors.
_ARENA_CENTRES = tuple(
    Vec2(0.3, 0.3) + Vec2.from_polar(distance, bearing)
    for bearing in (30.0, 60.0)
    for distance in (1.9, 2.9, 3.9)
)


#: A spectator paces back and forth across the AP's corner, shadowing
#: one bearing line of players after another.
_SPECTATOR_ENDS = (Vec2(1.7, 0.5), Vec2(0.5, 1.7))


def _arena(bed: Testbed, rng: np.random.Generator, n: int) -> List[Tick]:
    duration = n * TICK_S + TICK_S
    traces = [
        VrPlayerMotion(
            bed.room, play_center=centre, play_radius_m=0.4, seed=rng
        ).generate(duration, sample_rate_hz=45.0)
        for centre in _ARENA_CENTRES
    ]
    a, b = _SPECTATOR_ENDS
    pass_s = a.distance_to(b) / float(rng.uniform(0.6, 1.0))
    walk = linear_walk_trace(a, b, pass_s)
    offset = float(rng.uniform(0.0, 2.0 * pass_s))
    ticks = []
    for k in range(n):
        t = k * TICK_S
        phase = (t + offset) % (2.0 * pass_s)
        spot = walk.pose_at(phase if phase < pass_s else 2.0 * pass_s - phase)
        spectator = PersonModel(position=spot.position, heading_deg=135.0)
        poses = tuple(trace.pose_at(t) for trace in traces)
        ticks.append(Tick(t, poses, tuple(spectator.occluders())))
    return ticks


# ---------------------------------------------------------------------------
# seated-arcade: six fixed seats, discrete yaw, one passer-by on a loop
# ---------------------------------------------------------------------------

_SEATS = (
    Vec2(1.8, 2.0),
    Vec2(2.8, 2.0),
    Vec2(3.8, 2.0),
    Vec2(1.8, 3.4),
    Vec2(2.8, 3.4),
    Vec2(3.8, 3.4),
)
#: The passer-by's stations (position, heading) along the aisle.
_STATIONS = (
    (Vec2(1.3, 1.2), 0.0),
    (Vec2(2.3, 1.1), 0.0),
    (Vec2(3.3, 1.2), 0.0),
    (Vec2(1.1, 2.4), 90.0),
    # Right in front of the AP: shadows most seats' direct paths at
    # once, so blocked players outnumber reflectors.
    (Vec2(0.75, 0.75), -45.0),
)
#: Game phases: in each, every player faces one of a few discrete yaws,
#: so the room cycles through a small set of scenes that fits the
#: program's scene cache.
_NUM_PHASES = 4
_YAW_CHOICES = tuple(float(a) for a in range(-180, 180, 45))


#: Game phases last this long, visited in a seeded order (each phase once
#: per round); the passer-by holds each station this long, in turn.
_PHASE_S = 0.8
_STATION_S = 0.5


def _seated_arcade(bed: Testbed, rng: np.random.Generator, n: int) -> List[Tick]:
    yaw_table = rng.choice(_YAW_CHOICES, size=(_NUM_PHASES, len(_SEATS)))
    passer = [
        tuple(PersonModel(position=pos, heading_deg=heading).occluders())
        for pos, heading in _STATIONS
    ]
    phase_ticks = int(round(_PHASE_S * TICK_HZ))
    rounds = n // (phase_ticks * _NUM_PHASES) + 1
    phases = [int(p) for _ in range(rounds) for p in rng.permutation(_NUM_PHASES)]
    station_ticks = int(round(_STATION_S * TICK_HZ))
    first_station = int(rng.integers(len(_STATIONS)))
    ticks = []
    for k in range(n):
        t = k * TICK_S
        yaws = yaw_table[phases[k // phase_ticks]]
        station = (first_station + k // station_ticks) % len(_STATIONS)
        poses = tuple(PoseSample(t, seat, float(yaw)) for seat, yaw in zip(_SEATS, yaws))
        ticks.append(Tick(t, poses, passer[station]))
    return ticks


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        # Why each workload exists is recorded in BENCHMARK.json.
        Workload(
            name="solo-roam",
            num_users=1,
            num_reflectors=1,
            guard_ticks=720,
            input_ticks=4000,
            generate=_solo_roam,
        ),
        Workload(
            name="arena-6",
            num_users=6,
            num_reflectors=3,
            guard_ticks=60,
            input_ticks=600,
            generate=_arena,
        ),
        Workload(
            name="seated-arcade",
            num_users=6,
            num_reflectors=3,
            guard_ticks=300,
            input_ticks=1800,
            generate=_seated_arcade,
        ),
    )
}


def build_inputs(workload: Workload, bed: Testbed, seed: int, rep: int) -> List[Tick]:
    """Every tick's inputs for one repetition, deterministic in ``seed``."""
    rng = np.random.default_rng([seed, rep])
    return workload.generate(bed, rng, workload.input_ticks)

