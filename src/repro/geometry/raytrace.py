"""Image-method ray tracer for indoor mmWave propagation.

Produces :class:`PropagationPath` objects — the line-of-sight path and
specular wall reflections up to two bounces — annotated with per-leg
obstruction records.  The tracer is purely geometric: converting
lengths, bounces, and obstructions into dB of loss is the job of
``repro.phy.channel`` and ``repro.phy.blockage``, which keeps the
geometry reusable and independently testable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional, Sequence, Tuple

from repro.geometry.room import Occluder, Room, Wall
from repro.geometry.shapes import EPSILON, Circle, Segment
from repro.geometry.vectors import Vec2, bearing_deg

#: How close (meters) two nodes may be before the far-field assumption
#: (and the Friis equation) breaks down.
MIN_SEPARATION_M = 0.05


@dataclass(frozen=True)
class Obstruction:
    """One occluder cutting through one leg of a path.

    ``depth_m`` is the chord length of the leg inside the occluder;
    ``clearance_m`` is the (negative) distance from the leg to the
    occluder edge.  ``along_leg_m``/``leg_length_m`` locate the
    obstruction along the leg — knife-edge diffraction loss depends on
    the distances from the obstacle to each leg endpoint.
    """

    occluder: Occluder
    leg_index: int
    depth_m: float
    clearance_m: float
    along_leg_m: float
    leg_length_m: float


@dataclass(frozen=True)
class PropagationPath:
    """A geometric propagation path from TX to RX.

    ``points`` is the polyline TX, bounce..., RX.  ``walls`` holds the
    wall reflected on at each interior point (empty for LOS).
    ``penetrated_walls`` lists walls the direct path passes *through*
    (interior partitions) — each contributes its material's
    penetration loss, which at mmWave is usually fatal.
    """

    points: Tuple[Vec2, ...]
    walls: Tuple[Wall, ...]
    obstructions: Tuple[Obstruction, ...] = ()
    penetrated_walls: Tuple[Wall, ...] = ()

    def __post_init__(self) -> None:
        if len(self.points) < 2:
            raise ValueError("a path needs at least TX and RX points")
        if len(self.walls) != len(self.points) - 2:
            raise ValueError("need exactly one wall per interior bounce point")

    @property
    def num_bounces(self) -> int:
        return len(self.walls)

    @property
    def is_line_of_sight(self) -> bool:
        return self.num_bounces == 0

    @property
    def total_length_m(self) -> float:
        """Total traveled distance in meters."""
        return sum(
            self.points[i].distance_to(self.points[i + 1])
            for i in range(len(self.points) - 1)
        )

    @property
    def departure_angle_deg(self) -> float:
        """Azimuth of the first leg as seen from the transmitter."""
        return bearing_deg(self.points[0], self.points[1])

    @property
    def arrival_angle_deg(self) -> float:
        """Azimuth from the receiver back toward the last leg's origin.

        This is the direction the receiver must *point* to capture the
        path.
        """
        return bearing_deg(self.points[-1], self.points[-2])

    @property
    def total_reflection_loss_db(self) -> float:
        """Sum of per-bounce reflection losses in dB."""
        return sum(w.material.reflection_loss_db for w in self.walls)

    @property
    def total_penetration_loss_db(self) -> float:
        """Sum of through-wall penetration losses in dB."""
        return sum(w.material.penetration_loss_db for w in self.penetrated_walls)

    @property
    def is_obstructed(self) -> bool:
        return bool(self.obstructions)

    @property
    def legs(self) -> List[Segment]:
        return [
            Segment(self.points[i], self.points[i + 1])
            for i in range(len(self.points) - 1)
        ]

    def propagation_delay_s(self, speed: float = 299_792_458.0) -> float:
        """Time of flight in seconds."""
        return self.total_length_m / speed


class RayTracer:
    """Traces LOS and specular reflection paths inside a :class:`Room`."""

    def __init__(self, room: Room) -> None:
        self.room = room

    # ------------------------------------------------------------------
    # Public API
    # ------------------------------------------------------------------

    def line_of_sight(
        self,
        tx: Vec2,
        rx: Vec2,
        extra_occluders: Sequence[Occluder] = (),
        include_room_occluders: bool = True,
    ) -> PropagationPath:
        """The direct path, annotated with any occluders cutting it.

        The LOS path geometrically always exists; whether it is *usable*
        depends on its obstructions, which the blockage model converts
        to attenuation.  ``include_room_occluders=False`` skips the
        room's static furniture — used for infrastructure links (AP to
        wall-mounted reflector) that run above furniture height, a
        deliberate correction for the floor plan being 2-D.
        """
        self._check_separation(tx, rx)
        obstructions = self._leg_obstructions(
            (tx, rx), extra_occluders, include_room_occluders
        )
        penetrated = self._walls_crossed(tx, rx)
        return PropagationPath(
            points=(tx, rx),
            walls=(),
            obstructions=tuple(obstructions),
            penetrated_walls=tuple(penetrated),
        )

    def reflection_paths(
        self,
        tx: Vec2,
        rx: Vec2,
        max_bounces: int = 2,
        extra_occluders: Sequence[Occluder] = (),
    ) -> List[PropagationPath]:
        """All specular wall-reflection paths up to ``max_bounces`` (1 or 2).

        Paths whose legs pass through occluders are *kept* (with their
        obstruction records): a partially blocked reflection may still
        be the best alternative, exactly the situation the paper's
        Opt-NLOS baseline probes.
        """
        if max_bounces not in (1, 2):
            raise ValueError(f"max_bounces must be 1 or 2, got {max_bounces}")
        self._check_separation(tx, rx)
        paths: List[PropagationPath] = []
        # Image chains: a wall sequence and TX's image after each bounce
        # on it.  Extending the chains one bounce at a time mirrors each
        # prefix once and keeps the order: singles in wall order, then
        # doubles.  A wall never follows itself.
        chains: List[Tuple[Tuple[Wall, ...], Tuple[Vec2, ...]]] = [((), (tx,))]
        for _ in range(max_bounces):
            chains = [
                (walls + (wall,), images + (wall.segment.mirror_point(images[-1]),))
                for walls, images in chains
                for wall in self.room.walls
                if not walls or wall is not walls[-1]
            ]
            for walls, images in chains:
                path = self._bounce_path(images, rx, walls, extra_occluders)
                if path is not None:
                    paths.append(path)
        return paths

    def all_paths(
        self,
        tx: Vec2,
        rx: Vec2,
        max_bounces: int = 2,
        extra_occluders: Sequence[Occluder] = (),
    ) -> List[PropagationPath]:
        """LOS plus every reflection path up to ``max_bounces``."""
        return [self.line_of_sight(tx, rx, extra_occluders)] + self.reflection_paths(
            tx, rx, max_bounces, extra_occluders
        )

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    @staticmethod
    def _check_separation(tx: Vec2, rx: Vec2) -> None:
        if tx.distance_to(rx) < MIN_SEPARATION_M:
            raise ValueError(
                f"TX and RX closer than {MIN_SEPARATION_M} m: far-field model invalid"
            )

    def _bounce_path(
        self,
        images: Tuple[Vec2, ...],
        rx: Vec2,
        walls: Tuple[Wall, ...],
        extra_occluders: Sequence[Occluder],
    ) -> Optional[PropagationPath]:
        """The specular path from TX to RX reflecting off ``walls`` in order.

        ``images`` is TX followed by its image across each wall in turn.
        Walking back from RX, the line toward each image meets its wall
        at the bounce point.  Returns ``None`` when a bounce point
        misses its wall, a leg is shorter than the far-field limit, or
        a leg crosses any wall other than the ones it bounces on.
        """
        if images[-1].distance_to(rx) < EPSILON:
            return None
        points = [rx]
        for wall, image in zip(reversed(walls), reversed(images)):
            bounce = wall.segment.intersect(Segment(image, points[-1]))
            if bounce is None:
                return None
            points.append(bounce)
        points.append(images[0])
        points.reverse()
        legs = range(len(walls) + 1)
        if any(points[i].distance_to(points[i + 1]) < MIN_SEPARATION_M for i in legs):
            return None
        for i in legs:
            # A leg touches the walls it bounces on at its endpoints.
            touching = walls[max(0, i - 1) : i + 1]
            if any(self._walls_crossed(points[i], points[i + 1], touching)):
                return None
        points = tuple(points)
        obstructions = self._leg_obstructions(points, extra_occluders)
        return PropagationPath(points=points, walls=walls, obstructions=tuple(obstructions))

    def _walls_crossed(
        self, a: Vec2, b: Vec2, exclude: Tuple[Wall, ...] = ()
    ) -> Iterator[Wall]:
        """Walls the open segment (a, b) passes through, in room order.

        Endpoint grazes are ignored: a radio sits *against* a wall, not
        inside it.  The ``exclude`` walls, matched by identity among the
        room's walls, are skipped: a reflection leg touches its bounce
        walls.  Lazy, so a caller asking only whether any wall is
        crossed stops at the first.  LOS paths record the crossed walls
        for penetration loss; reflection paths that cross a wall are
        dropped instead, since penetration loss on top of reflection
        loss makes them irrelevant.
        """
        leg = Segment(a, b)
        skip = {id(wall) for wall in exclude}
        for wall in self.room.walls:
            if id(wall) in skip:
                continue
            hit = leg.intersect(wall.segment)
            if hit is None:
                continue
            if hit.distance_to(a) > 1e-6 and hit.distance_to(b) > 1e-6:
                yield wall

    def _leg_obstructions(
        self,
        points: Tuple[Vec2, ...],
        extra_occluders: Sequence[Occluder],
        include_room_occluders: bool = True,
    ) -> List[Obstruction]:
        occluders = (
            list(self.room.occluders) if include_room_occluders else []
        ) + list(extra_occluders)
        records: List[Obstruction] = []
        for leg_index in range(len(points) - 1):
            a, b = points[leg_index], points[leg_index + 1]
            leg_vec = b - a
            leg_length = leg_vec.norm
            for occ in occluders:
                depth = occ.chord_length(a, b)
                if depth <= 0.0:
                    continue
                if isinstance(occ, Circle):
                    clearance = occ.clearance(a, b)
                    along = (occ.center - a).dot(leg_vec) / leg_length
                else:
                    clearance = -depth / 2.0
                    along = (occ.center - a).dot(leg_vec) / leg_length
                along = min(leg_length, max(0.0, along))
                records.append(
                    Obstruction(
                        occluder=occ,
                        leg_index=leg_index,
                        depth_m=depth,
                        clearance_m=clearance,
                        along_leg_m=along,
                        leg_length_m=leg_length,
                    )
                )
        return records
