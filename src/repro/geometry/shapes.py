"""Geometric primitives used as walls and occluders.

Walls are :class:`Segment` instances; human body parts and furniture
are :class:`Circle` or :class:`AxisAlignedBox` occluders.  Shapes hold
geometry data and answer containment; where a ray crosses a wall or
cuts an occluder is computed by ``repro.geometry.raytrace``, on arrays
of every shape in a scene at once.  An occluder's per-shape rows (its
cache signature and the tracer's screening row) are built once per
shape: shapes are frozen, and a tick's body occluders are shared by
every user's scene.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Tuple

from repro.geometry.vectors import Vec2

#: Tolerance for "touching" intersections; geometry at sub-millimeter
#: scale is below the physical fidelity of the model.
EPSILON = 1e-9


@dataclass(frozen=True)
class Segment:
    """A line segment between two endpoints (used for walls)."""

    a: Vec2
    b: Vec2

    def __post_init__(self) -> None:
        if self.a.distance_to(self.b) < EPSILON:
            raise ValueError("degenerate segment: endpoints coincide")

    @property
    def length(self) -> float:
        return self.a.distance_to(self.b)

    @cached_property
    def direction(self) -> Vec2:
        # Cached: every image-method mirror across a wall reads it.
        return (self.b - self.a).normalized()

    @property
    def normal(self) -> Vec2:
        """Unit normal (+90 degrees from the a->b direction)."""
        return self.direction.perpendicular()

    @property
    def midpoint(self) -> Vec2:
        return (self.a + self.b) * 0.5

    def point_at(self, t: float) -> Vec2:
        """Point at parameter ``t`` in [0, 1] along the segment."""
        return self.a + (self.b - self.a) * t


@dataclass(frozen=True)
class Circle:
    """A circular occluder (head, body cross-section, furniture leg)."""

    center: Vec2
    radius: float

    def __post_init__(self) -> None:
        if self.radius <= 0.0:
            raise ValueError(f"circle radius must be positive, got {self.radius}")

    def contains(self, point: Vec2) -> bool:
        return point.distance_to(self.center) <= self.radius + EPSILON

    @cached_property
    def signature(self) -> Tuple:
        """The circle's geometry as a hashable tuple (scene-cache keys)."""
        return ("circle", self.center.x, self.center.y, self.radius)

    @cached_property
    def screen_row(self) -> Tuple[float, ...]:
        """The ray tracer's row for this occluder: centre, radius, and
        the corners of a box a little larger than the circle, so every
        leg cutting the circle passes the box's slab test."""
        c, pad = self.center, 1.01 * self.radius
        return (c.x, c.y, self.radius, c.x - pad, c.y - pad, c.x + pad, c.y + pad)


@dataclass(frozen=True)
class AxisAlignedBox:
    """An axis-aligned rectangular occluder (furniture, partitions)."""

    min_corner: Vec2
    max_corner: Vec2

    def __post_init__(self) -> None:
        if self.min_corner.x >= self.max_corner.x or self.min_corner.y >= self.max_corner.y:
            raise ValueError("box min_corner must be strictly below max_corner in x and y")

    @cached_property
    def center(self) -> Vec2:
        # Cached: the ray tracer reads it for every traced scene.
        return (self.min_corner + self.max_corner) * 0.5

    @property
    def width(self) -> float:
        return self.max_corner.x - self.min_corner.x

    @property
    def height(self) -> float:
        return self.max_corner.y - self.min_corner.y

    def contains(self, point: Vec2) -> bool:
        return (
            self.min_corner.x - EPSILON <= point.x <= self.max_corner.x + EPSILON
            and self.min_corner.y - EPSILON <= point.y <= self.max_corner.y + EPSILON
        )

    @cached_property
    def signature(self) -> Tuple:
        """The box's geometry as a hashable tuple (scene-cache keys)."""
        lo, hi = self.min_corner, self.max_corner
        return ("box", lo.x, lo.y, hi.x, hi.y)

    @cached_property
    def screen_row(self) -> Tuple[float, ...]:
        """The ray tracer's row for this occluder: centre, radius 0, and
        the box's corners."""
        c = self.center
        return (c.x, c.y, 0.0, *self.min_corner.as_tuple(), *self.max_corner.as_tuple())
