"""Argument-validation helpers shared by the public API surface.

These raise consistent, descriptive ``ValueError``/``TypeError``
messages so misuse is caught at the boundary rather than surfacing as
a NaN three layers deeper in a link budget.
"""

from __future__ import annotations

import math
from typing import Any, Sequence


def require_positive(value: float, name: str) -> float:
    """Return ``value`` if strictly positive, else raise ``ValueError``."""
    value = require_finite(value, name)
    if value <= 0.0:
        raise ValueError(f"{name} must be positive, got {value}")
    return value


def require_non_negative(value: float, name: str) -> float:
    """Return ``value`` if >= 0, else raise ``ValueError``."""
    value = require_finite(value, name)
    if value < 0.0:
        raise ValueError(f"{name} must be non-negative, got {value}")
    return value


def require_finite(value: float, name: str) -> float:
    """Return ``value`` as float if finite, else raise."""
    try:
        value = float(value)
    except (TypeError, ValueError) as exc:
        raise TypeError(f"{name} must be a real number, got {value!r}") from exc
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")
    return value


def require_in_range(value: float, low: float, high: float, name: str) -> float:
    """Return ``value`` if within ``[low, high]``, else raise."""
    value = require_finite(value, name)
    if not low <= value <= high:
        raise ValueError(f"{name} must be in [{low}, {high}], got {value}")
    return value


def require_all_finite(values: Sequence[float], name: str) -> None:
    """Check every value as :func:`require_finite` does, in one pass;
    raises what it raises for the first value it refuses."""
    try:
        accepted = all(map(math.isfinite, values))
    except TypeError:
        accepted = False
    if not accepted:
        for value in values:
            require_finite(value, name)


def require_all_in_range(
    values: Sequence[float], low: float, high: float, name: str
) -> None:
    """Check every value as :func:`require_in_range` does, for finite
    bounds, in one pass; raises what it raises for the first value it
    refuses (a NaN fails both comparisons, an infinity one)."""
    try:
        accepted = all(low <= value <= high for value in values)
    except TypeError:
        accepted = False
    if not accepted:
        for value in values:
            require_in_range(value, low, high, name)


def require_probability(value: float, name: str) -> float:
    """Return ``value`` if in ``[0, 1]``."""
    return require_in_range(value, 0.0, 1.0, name)


def require_int(value: Any, name: str, minimum: int = None) -> int:
    """Return ``value`` as int, optionally enforcing a minimum."""
    if isinstance(value, bool) or not isinstance(value, (int,)):
        raise TypeError(f"{name} must be an integer, got {value!r}")
    if minimum is not None and value < minimum:
        raise ValueError(f"{name} must be >= {minimum}, got {value}")
    return value


def require_same_length(
    first: Sequence, second: Sequence, first_name: str, second_name: str
) -> None:
    """Raise ``ValueError`` unless ``first`` and ``second`` have equal
    lengths (one entry of ``second`` per entry of ``first``)."""
    if len(first) != len(second):
        raise ValueError(
            f"{second_name} has {len(second)} entries for {len(first)} {first_name}"
        )
