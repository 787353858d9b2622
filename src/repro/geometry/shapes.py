"""Geometric primitives used as walls and occluders.

Walls are :class:`Segment` instances; human body parts and furniture
are :class:`Circle` or :class:`AxisAlignedBox` occluders.  All shapes
answer the one question the ray tracer asks: *does the segment from A
to B pass through you, and if so where?*
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Optional

from repro.geometry.vectors import Vec2, point_segment_distance

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

    def intersect(self, other: "Segment") -> Optional[Vec2]:
        """Intersection point with another segment, or ``None``.

        Collinear overlaps return ``None``: a ray sliding exactly along
        a wall is a measure-zero configuration the physics does not
        model.
        """
        r = self.b - self.a
        s = other.b - other.a
        denom = r.cross(s)
        if abs(denom) < EPSILON:
            return None
        qp = other.a - self.a
        t = qp.cross(s) / denom
        u = qp.cross(r) / denom
        if -EPSILON <= t <= 1.0 + EPSILON and -EPSILON <= u <= 1.0 + EPSILON:
            return self.point_at(min(1.0, max(0.0, t)))
        return None

    def mirror_point(self, point: Vec2) -> Vec2:
        """Mirror ``point`` across the infinite line through the segment.

        This is the image-source operation of the image method of
        specular reflection.
        """
        d = self.direction
        ap = point - self.a
        along = d * ap.dot(d)
        perp = ap - along
        return point - perp * 2.0


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

    def intersects_segment(self, seg_a: Vec2, seg_b: Vec2) -> bool:
        """True iff the segment passes through (or touches) the circle."""
        return point_segment_distance(self.center, seg_a, seg_b) <= self.radius + EPSILON

    def chord_length(self, seg_a: Vec2, seg_b: Vec2) -> float:
        """Length of the segment's chord inside the circle (0 if disjoint).

        The blockage model uses the chord length as the obstruction
        depth for attenuation.
        """
        d = point_segment_distance(self.center, seg_a, seg_b)
        if d >= self.radius:
            return 0.0
        half = math.sqrt(self.radius * self.radius - d * d)
        # Clip the chord to the segment extent.
        ab = seg_b - seg_a
        length = ab.norm
        if length < EPSILON:
            return 0.0
        direction = ab / length
        t_center = (self.center - seg_a).dot(direction)
        t_lo = max(0.0, t_center - half)
        t_hi = min(length, t_center + half)
        return max(0.0, t_hi - t_lo)

    def clearance(self, seg_a: Vec2, seg_b: Vec2) -> float:
        """Signed clearance of the segment from the circle edge.

        Negative values mean the path cuts through the occluder; the
        magnitude feeds the knife-edge diffraction model.
        """
        return point_segment_distance(self.center, seg_a, seg_b) - self.radius


@dataclass(frozen=True)
class AxisAlignedBox:
    """An axis-aligned rectangular occluder (furniture, partitions)."""

    min_corner: Vec2
    max_corner: Vec2

    def __post_init__(self) -> None:
        if self.min_corner.x >= self.max_corner.x or self.min_corner.y >= self.max_corner.y:
            raise ValueError("box min_corner must be strictly below max_corner in x and y")

    @property
    def center(self) -> Vec2:
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

    def edges(self) -> List[Segment]:
        """The four boundary segments."""
        lo, hi = self.min_corner, self.max_corner
        corners = [lo, Vec2(hi.x, lo.y), hi, Vec2(lo.x, hi.y)]
        return [Segment(corners[i], corners[(i + 1) % 4]) for i in range(4)]

    def intersects_segment(self, seg_a: Vec2, seg_b: Vec2) -> bool:
        """True iff the segment enters the box (slab method)."""
        if self.contains(seg_a) or self.contains(seg_b):
            return True
        d = seg_b - seg_a
        t_min, t_max = 0.0, 1.0
        for lo, hi, origin, delta in (
            (self.min_corner.x, self.max_corner.x, seg_a.x, d.x),
            (self.min_corner.y, self.max_corner.y, seg_a.y, d.y),
        ):
            if abs(delta) < EPSILON:
                if origin < lo or origin > hi:
                    return False
                continue
            t1 = (lo - origin) / delta
            t2 = (hi - origin) / delta
            if t1 > t2:
                t1, t2 = t2, t1
            t_min = max(t_min, t1)
            t_max = min(t_max, t2)
            if t_min > t_max:
                return False
        return True

    def chord_length(self, seg_a: Vec2, seg_b: Vec2) -> float:
        """Length of the segment inside the box."""
        d = seg_b - seg_a
        seg_len = d.norm
        if seg_len < EPSILON:
            return seg_len if self.contains(seg_a) else 0.0
        t_min, t_max = 0.0, 1.0
        for lo, hi, origin, delta in (
            (self.min_corner.x, self.max_corner.x, seg_a.x, d.x),
            (self.min_corner.y, self.max_corner.y, seg_a.y, d.y),
        ):
            if abs(delta) < EPSILON:
                if origin < lo or origin > hi:
                    return 0.0
                continue
            t1 = (lo - origin) / delta
            t2 = (hi - origin) / delta
            if t1 > t2:
                t1, t2 = t2, t1
            t_min = max(t_min, t1)
            t_max = min(t_max, t2)
            if t_min > t_max:
                return 0.0
        return (t_max - t_min) * seg_len
