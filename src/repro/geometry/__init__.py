"""Scene geometry: vectors, shapes, rooms, ray tracing, bodies, motion."""

from repro.geometry.bodies import (
    HAND_RADIUS_M,
    HEAD_RADIUS_M,
    TORSO_RADIUS_M,
    PersonModel,
    hand_occluder,
    head_occluder,
    person_blocking_path,
    self_head_blocking,
)
from repro.geometry.mobility import (
    MotionTrace,
    PoseSample,
    VrPlayerMotion,
    head_turn_trace,
    linear_walk_trace,
)
from repro.geometry.raytrace import Obstruction, PropagationPath, RayTracer
from repro.geometry.room import (
    CONCRETE,
    DRYWALL,
    GLASS,
    METAL,
    Room,
    Wall,
    WallMaterial,
    rectangular_room,
    standard_office,
)
from repro.geometry.shapes import AxisAlignedBox, Circle, Segment
from repro.geometry.vectors import Vec2, bearing_deg

__all__ = [
    "HAND_RADIUS_M",
    "HEAD_RADIUS_M",
    "TORSO_RADIUS_M",
    "PersonModel",
    "hand_occluder",
    "head_occluder",
    "person_blocking_path",
    "self_head_blocking",
    "MotionTrace",
    "PoseSample",
    "VrPlayerMotion",
    "head_turn_trace",
    "linear_walk_trace",
    "Obstruction",
    "PropagationPath",
    "RayTracer",
    "CONCRETE",
    "DRYWALL",
    "GLASS",
    "METAL",
    "Room",
    "Wall",
    "WallMaterial",
    "rectangular_room",
    "standard_office",
    "AxisAlignedBox",
    "Circle",
    "Segment",
    "Vec2",
    "bearing_deg",
]
