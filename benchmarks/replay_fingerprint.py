"""SHA-256 fingerprint of a seeded serving replay.

Drives the serving loop on the serving benchmark's seeded inputs (the
workloads of ``perfbench/workloads.py``, imported read-only) and hashes,
in order, everything each scene trace produced: every traced path's
points, walls, penetrated walls and obstruction floats, and the path
set's link columns; then each tick's serving decisions.  A tick's
traces are hashed after the tick, in trace order, so they are read as
serving left them: their obstruction tables cut and link columns built
in the tick's joined passes, not one set at a time.  Two trees
whose replays print the same digest traced the same paths and served
the same decisions, float for float::

    PYTHONPATH=src python benchmarks/replay_fingerprint.py \\
        --workload arena-6 --seed 3 --ticks 200

The serving digest is the last line printed.  The line before it,
``installation <digest>``, hashes the testbed's set-up: each
reflector's gain-calibration result (final gain, knee, steps, gain and
current traces) and the state of the testbed's random generator after
set-up.  The line before those names the Python and NumPy versions:
the digests are pinned for CPython 3.10 and later (3.9's
``math.hypot`` rounds differently), and NumPy's ``sin`` and ``log10``
may round differently on another version or CPU.  Neither digest may
depend on ``PYTHONHASHSEED``: a digest that changes with it means set
or dict ordering leaked into the traced path order.
"""

from __future__ import annotations

import argparse
import hashlib
import platform
import struct
import sys
from pathlib import Path
from typing import Callable, List, Sequence, Tuple

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "perfbench"))
sys.path.insert(0, str(ROOT / "src"))

from workloads import WORKLOADS, build_inputs, build_testbed  # noqa: E402

import numpy as np  # noqa: E402

from repro.core.multiuser import MultiUserSystem  # noqa: E402
from repro.geometry.raytrace import PropagationPath, RayTracer  # noqa: E402
from repro.link.radios import HEADSET_RADIO_CONFIG, Radio  # noqa: E402
from repro.sim.cache import occluder_signature  # noqa: E402


class Fingerprint:
    """A running SHA-256 over traced path sets and decisions."""

    def __init__(self, room, channel) -> None:
        self._digest = hashlib.sha256()
        self._walls = {id(wall): i for i, wall in enumerate(room.walls)}
        self._channel = channel
        self._traced: List[List[PropagationPath]] = []
        self.path_sets = 0
        self.paths = 0

    def _floats(self, values: Sequence[float]) -> None:
        self._digest.update(struct.pack(f"<{len(values)}d", *values))

    def _text(self, value: str) -> None:
        self._digest.update(value.encode() + b"\0")

    def paths_traced(self, paths: List[PropagationPath]) -> None:
        """Queue one trace's paths, hashed by :meth:`tick_done`."""
        self._traced.append(paths)

    def tick_done(self, decisions) -> None:
        """Hash the tick's queued traces, in order, then its decisions."""
        traced, self._traced = self._traced, []
        for paths in traced:
            self._path_set(paths)
        for d in decisions:
            self._text(f"{d.user} {d.mode} {d.via} {d.contended}")
            self._floats([d.snr_db, d.rate_mbps, d.direct_snr_db])

    def _path_set(self, paths: List[PropagationPath]) -> None:
        self.path_sets += 1
        self.paths += len(paths)
        self._text(f"set {len(paths)}")
        for path in paths:
            self._floats([c for point in path.points for c in point.as_tuple()])
            self._text(repr([self._walls[id(w)] for w in path.walls]))
            self._text(repr([self._walls[id(w)] for w in path.penetrated_walls]))
            for o in path.obstructions:
                self._text(repr(occluder_signature([o.occluder])))
                self._floats(
                    [o.leg_index, o.depth_m, o.clearance_m, o.along_leg_m, o.leg_length_m]
                )
        self._floats(self._channel.link_columns(paths).ravel().tolist())

    def hexdigest(self) -> str:
        return self._digest.hexdigest()


def installation_digest(bed) -> str:
    """SHA-256 over every reflector's calibration result, in reflector
    order, and the generator state the set-up left."""
    digest = hashlib.sha256()
    for reflector in bed.system.reflectors:
        result = bed.system.gain_results[reflector.name]
        digest.update(
            f"{reflector.name} {result.knee_detected} {result.steps_taken} "
            f"{len(result.gain_trace_db)}\0".encode()
        )
        values = [result.final_gain_db, *result.gain_trace_db, *result.current_trace_ma]
        digest.update(struct.pack(f"<{len(values)}d", *values))
    digest.update(repr(bed.rng.bit_generator.state).encode())
    return digest.hexdigest()


def _recording(fingerprint: Fingerprint) -> Callable[[], None]:
    """Record every public tracer query's paths; returns the undo."""
    all_paths, line_of_sight = RayTracer.all_paths, RayTracer.line_of_sight

    def traced_all_paths(self, *args, **kwargs):
        paths = all_paths(self, *args, **kwargs)
        fingerprint.paths_traced(paths)
        return paths

    def traced_line_of_sight(self, *args, **kwargs):
        path = line_of_sight(self, *args, **kwargs)
        fingerprint.paths_traced([path])
        return path

    RayTracer.all_paths = traced_all_paths
    RayTracer.line_of_sight = traced_line_of_sight

    def undo() -> None:
        RayTracer.all_paths, RayTracer.line_of_sight = all_paths, line_of_sight

    return undo


def replay(workload_name: str, seed: int, ticks: int) -> Tuple[str, Fingerprint]:
    """Set up one workload's testbed and serve ``ticks`` ticks of its
    seeded inputs: the installation digest and the serving fingerprint."""
    workload = WORKLOADS[workload_name]
    bed = build_testbed(workload)
    installation = installation_digest(bed)
    inputs = build_inputs(workload, bed, seed, rep=0)[:ticks]
    fingerprint = Fingerprint(bed.room, bed.system.channel)
    multi = None
    if workload.num_users > 1:
        multi = MultiUserSystem(bed.system, num_users=workload.num_users)
    undo = _recording(fingerprint)
    try:
        for tick in inputs:
            if multi is not None:
                decisions = multi.step(tick.t_s, tick.poses, tick.occluders).decisions
            else:
                pose = tick.poses[0]
                radio = Radio(
                    pose.position,
                    boresight_deg=pose.yaw_deg,
                    config=HEADSET_RADIO_CONFIG,
                    name="headset",
                )
                decisions = (bed.system.decide(radio, tick.occluders, t_s=tick.t_s),)
            fingerprint.tick_done(decisions)
    finally:
        undo()
    return installation, fingerprint


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--ticks", type=int, required=True)
    args = parser.parse_args(argv)
    installation, fingerprint = replay(args.workload, args.seed, args.ticks)
    print(f"{fingerprint.path_sets} traced path sets, {fingerprint.paths} paths")
    print(f"python {platform.python_version()} numpy {np.__version__}")
    print(f"installation {installation}")
    print(fingerprint.hexdigest())
    return 0


if __name__ == "__main__":
    sys.exit(main())
