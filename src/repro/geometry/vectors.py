"""2-D vector algebra for the room-scale scene model.

The paper's testbed is a 5 m x 5 m office and all beam angles are
azimuthal (Fig. 7/8 sweep 40-140 degrees in the horizontal plane), so the
scene model is two-dimensional: positions are points on the floor plan
and beams are azimuth angles.  ``Vec2`` is immutable and hashable so
positions can key dictionaries and caches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterator, Tuple

from repro.utils.units import rad_to_deg, wrap_angle_deg


@dataclass(frozen=True)
class Vec2:
    """An immutable 2-D point/vector with float components (meters)."""

    x: float
    y: float

    def __add__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x + other.x, self.y + other.y)

    def __sub__(self, other: "Vec2") -> "Vec2":
        return Vec2(self.x - other.x, self.y - other.y)

    def __mul__(self, scalar: float) -> "Vec2":
        return Vec2(self.x * scalar, self.y * scalar)

    __rmul__ = __mul__

    def __truediv__(self, scalar: float) -> "Vec2":
        if scalar == 0.0:
            raise ZeroDivisionError("division of Vec2 by zero")
        return Vec2(self.x / scalar, self.y / scalar)

    def __neg__(self) -> "Vec2":
        return Vec2(-self.x, -self.y)

    def __iter__(self) -> Iterator[float]:
        yield self.x
        yield self.y

    def dot(self, other: "Vec2") -> float:
        """Scalar (dot) product."""
        return self.x * other.x + self.y * other.y

    def cross(self, other: "Vec2") -> float:
        """2-D cross product (z component of the 3-D cross)."""
        return self.x * other.y - self.y * other.x

    @property
    def norm(self) -> float:
        """Euclidean length."""
        return math.hypot(self.x, self.y)

    @property
    def norm_squared(self) -> float:
        """Squared Euclidean length (avoids the sqrt in comparisons)."""
        return self.x * self.x + self.y * self.y

    def normalized(self) -> "Vec2":
        """Unit vector in the same direction.

        Raises ``ValueError`` for the zero vector, which has no
        direction.
        """
        n = self.norm
        if n == 0.0:
            raise ValueError("cannot normalize the zero vector")
        return Vec2(self.x / n, self.y / n)

    def perpendicular(self) -> "Vec2":
        """The vector rotated +90 degrees (counter-clockwise)."""
        return Vec2(-self.y, self.x)

    def rotated(self, angle_deg: float) -> "Vec2":
        """The vector rotated counter-clockwise by ``angle_deg``."""
        a = math.radians(angle_deg)
        c, s = math.cos(a), math.sin(a)
        return Vec2(c * self.x - s * self.y, s * self.x + c * self.y)

    def distance_to(self, other: "Vec2") -> float:
        """Euclidean distance to another point."""
        return (self - other).norm

    def angle_deg(self) -> float:
        """Azimuth of this vector in degrees, in ``[-180, 180)``.

        Zero points along +x, angles increase counter-clockwise —
        the convention used for every beam angle in the library.
        """
        return wrap_angle_deg(rad_to_deg(math.atan2(self.y, self.x)))

    def as_tuple(self) -> Tuple[float, float]:
        return (self.x, self.y)

    @classmethod
    def from_polar(cls, radius: float, angle_deg: float) -> "Vec2":
        """Construct from a length and azimuth in degrees."""
        a = math.radians(angle_deg)
        return cls(radius * math.cos(a), radius * math.sin(a))

    @classmethod
    def zero(cls) -> "Vec2":
        return cls(0.0, 0.0)


def bearing_deg(origin: Vec2, target: Vec2) -> float:
    """Azimuth (degrees) of the direction from ``origin`` to ``target``.

    Computed from the coordinates in the operation order of
    ``(target - origin).angle_deg()``, without building the difference.

    >>> bearing_deg(Vec2(0, 0), Vec2(0, 1))
    90.0
    """
    dx, dy = target.x - origin.x, target.y - origin.y
    if dx == 0.0 and dy == 0.0:
        raise ValueError("bearing is undefined between identical points")
    return wrap_angle_deg(rad_to_deg(math.atan2(dy, dx)))
