"""Room model: walls with materials, plus movable occluders.

The evaluation room in the paper is a 5 m x 5 m office with standard
furniture.  A :class:`Room` owns the static geometry (walls and
furniture) while transient occluders (hands, heads, passers-by) are
attached per-scenario by the experiment code.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Union

from repro.geometry.shapes import AxisAlignedBox, Circle, Segment
from repro.geometry.vectors import Vec2

Occluder = Union[Circle, AxisAlignedBox]


@dataclass(frozen=True)
class WallMaterial:
    """Electromagnetic properties of a wall at mmWave frequencies.

    ``reflection_loss_db`` is the power lost on a specular bounce;
    ``penetration_loss_db`` is the loss for transmission *through* the
    wall (effectively infinite for the exterior walls of the model —
    mmWave does not usefully penetrate structural walls).
    """

    name: str
    reflection_loss_db: float
    penetration_loss_db: float = 60.0

    def __post_init__(self) -> None:
        if self.reflection_loss_db < 0.0:
            raise ValueError("reflection_loss_db must be non-negative")
        if self.penetration_loss_db < 0.0:
            raise ValueError("penetration_loss_db must be non-negative")


#: Painted drywall: the dominant indoor surface.  8-15 dB reflection
#: loss at 24-60 GHz is consistent with published indoor measurements;
#: we use 10 dB as the nominal value.
DRYWALL = WallMaterial(name="drywall", reflection_loss_db=10.0)

#: Concrete: slightly better reflector, impossible to penetrate.
CONCRETE = WallMaterial(name="concrete", reflection_loss_db=8.0, penetration_loss_db=80.0)

#: Glass window: partially transparent, lossy reflector.
GLASS = WallMaterial(name="glass", reflection_loss_db=12.0, penetration_loss_db=25.0)

#: Metal: near-perfect reflector (whiteboards, cabinets).
METAL = WallMaterial(name="metal", reflection_loss_db=1.0, penetration_loss_db=100.0)


@dataclass(frozen=True)
class Wall:
    """A wall: a segment plus its material."""

    segment: Segment
    material: WallMaterial = DRYWALL

    @property
    def length(self) -> float:
        return self.segment.length


@dataclass
class Room:
    """A 2-D floor plan: boundary walls, interior walls, and occluders.

    ``occluders`` holds the *static* furniture; scenario-specific
    blockers (a hand, a walking person) are passed separately to the
    ray tracer so that a single room can be reused across scenarios.
    """

    walls: List[Wall]
    occluders: List[Occluder] = field(default_factory=list)
    name: str = "room"

    def __post_init__(self) -> None:
        if not self.walls:
            raise ValueError("a room needs at least one wall")

    def add_occluder(self, occluder: Occluder) -> None:
        """Attach a static occluder (furniture) to the room."""
        self.occluders.append(occluder)

    def bounding_box(self) -> AxisAlignedBox:
        """Axis-aligned bounds of all wall endpoints."""
        xs = [p.x for w in self.walls for p in (w.segment.a, w.segment.b)]
        ys = [p.y for w in self.walls for p in (w.segment.a, w.segment.b)]
        return AxisAlignedBox(Vec2(min(xs), min(ys)), Vec2(max(xs), max(ys)))

    def contains(self, point: Vec2, margin: float = 0.0) -> bool:
        """True iff a point lies inside the room's bounding box.

        ``margin`` shrinks the usable area — placements keep radios a
        little away from the walls, as in the physical testbed.
        """
        box = self.bounding_box()
        return (
            box.min_corner.x + margin <= point.x <= box.max_corner.x - margin
            and box.min_corner.y + margin <= point.y <= box.max_corner.y - margin
        )


def rectangular_room(
    width_m: float,
    depth_m: float,
    material: WallMaterial = DRYWALL,
    name: str = "room",
) -> Room:
    """Build a rectangular room with its corner at the origin.

    >>> room = rectangular_room(5.0, 5.0)
    >>> len(room.walls)
    4
    """
    if width_m <= 0.0 or depth_m <= 0.0:
        raise ValueError("room dimensions must be positive")
    corners = [Vec2(0, 0), Vec2(width_m, 0), Vec2(width_m, depth_m), Vec2(0, depth_m)]
    walls = [
        Wall(Segment(corners[i], corners[(i + 1) % 4]), material) for i in range(4)
    ]
    return Room(walls=walls, name=name)


#: Whiteboard: glossy laminate over steel backing — a noticeably
#: better reflector than painted drywall.
WHITEBOARD = WallMaterial(name="whiteboard", reflection_loss_db=5.0)


def standard_office(furnished: bool = True) -> Room:
    """The paper's 5 m x 5 m office with standard furniture (section 5).

    The furniture layout is representative, not a floor plan from the
    paper (which does not give one): a desk, a filing cabinet and a
    bookshelf as occluders, plus flush wall fixtures (whiteboard,
    window) that enrich the specular environment — real offices offer
    more NLOS bounce diversity than four bare drywall walls.
    """
    room = rectangular_room(5.0, 5.0, DRYWALL, name="5x5-office")
    if furnished:
        # Desk along the north wall.
        room.add_occluder(AxisAlignedBox(Vec2(1.0, 4.2), Vec2(2.6, 4.8)))
        # Metal filing cabinet against the east wall (clear of the
        # corner mounting spots used for MoVR reflectors).
        room.add_occluder(AxisAlignedBox(Vec2(4.55, 1.9), Vec2(4.95, 2.5)))
        # Bookshelf along the west wall.
        room.add_occluder(AxisAlignedBox(Vec2(0.1, 1.5), Vec2(0.45, 3.0)))
        # Whiteboard flush on the east wall; window flush on the north
        # wall.  Flush panels share the wall line, so they add bounce
        # diversity without introducing crossing geometry.
        room.walls.append(
            Wall(Segment(Vec2(5.0, 2.8), Vec2(5.0, 4.3)), WHITEBOARD)
        )
        room.walls.append(Wall(Segment(Vec2(1.2, 5.0), Vec2(2.4, 5.0)), GLASS))
    return room
