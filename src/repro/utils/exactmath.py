"""Elementwise scalar math over NumPy arrays, rounded as the scalar code is.

NumPy's ``hypot``, ``log10`` and ``power`` differ from
:mod:`math` and Python's ``**`` in the last bit for a small share of
inputs (``x ** 2`` is not even ``x * x`` for about 0.1% of floats).
An array formula that must give, bit for bit, what its scalar form
gives maps the scalar function over a flat list instead: slower than a
ufunc, far faster than a Python call per element of the whole formula.
Each function takes arrays of one shape and returns a float array of
that shape.

A formula written once for floats and arrays takes its functions from
:func:`ops`: these maps for an array, the scalar functions themselves
for a float, so the float form costs what plain float arithmetic costs.

Sums are the same hazard across interpreters: since CPython 3.12 the
builtin :func:`sum` of floats is compensated, so it can differ in the
last bit from the plain left-to-right sum that 3.9-3.11 compute.  A sum
that reaches a path, a decision or a report is :func:`left_sum`, which
adds left to right on every version.

>>> import numpy as np
>>> log10(np.array([1.0, 100.0])).tolist()
[0.0, 2.0]
>>> ops(100.0).log10(100.0)
2.0
"""

from __future__ import annotations

import math
import operator
from functools import partial, reduce
from itertools import repeat
from typing import Iterable
from types import SimpleNamespace

import numpy as np


def _collect(values, like: np.ndarray) -> np.ndarray:
    return np.fromiter(values, dtype=float, count=like.size).reshape(like.shape)


def hypot(dx: np.ndarray, dy: np.ndarray) -> np.ndarray:
    """Elementwise :func:`math.hypot` (``Vec2.norm``'s rounding)."""
    return _collect(map(math.hypot, dx.ravel().tolist(), dy.ravel().tolist()), dx)


def log10(x: np.ndarray) -> np.ndarray:
    """Elementwise :func:`math.log10`; raises on non-positive entries."""
    return _collect(map(math.log10, x.ravel().tolist()), x)


def exp10(x: np.ndarray) -> np.ndarray:
    """Elementwise ``10.0 ** x``."""
    return _collect(map(pow, repeat(10.0), x.ravel().tolist()), x)


def power(x: np.ndarray, exponent: float) -> np.ndarray:
    """Elementwise ``x ** exponent`` for one exponent."""
    return _collect(map(pow, x.ravel().tolist(), repeat(exponent)), x)


def square(x: np.ndarray) -> np.ndarray:
    """Elementwise ``x ** 2``."""
    return power(x, 2)


def left_sum(values: Iterable):
    """``0 + v0 + v1 + ...``, one addition at a time, on every version:
    what the builtin :func:`sum` gives up to CPython 3.11 (its ``sum`` of
    floats is compensated from 3.12 on).  ``left_sum([])`` is the
    integer 0; ``left_sum([1.0, 1e100, 1.0, -1e100])`` is 0.0."""
    return reduce(operator.add, values, 0)


#: The functions for arrays, and the scalar functions they map, by name.
#: ``minimum(cap, x)`` is exact either way.
_ARRAY = SimpleNamespace(log10=log10, exp10=exp10, power=power, minimum=np.minimum)
_SCALAR = SimpleNamespace(
    log10=math.log10, exp10=partial(pow, 10.0), power=pow, minimum=min
)


def ops(x) -> SimpleNamespace:
    """``log10``, ``exp10``, ``power`` and ``minimum`` for ``x``: the
    maps above for an array, :func:`math.log10`, ``10.0 **``, ``**``
    and :func:`min` for a float."""
    return _ARRAY if isinstance(x, np.ndarray) else _SCALAR
