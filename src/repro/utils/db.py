"""Decibel-domain arithmetic.

Every quantity in a link budget lives either in the linear domain
(power ratios, watts) or the logarithmic domain (dB, dBm).  Mixing the
two silently is the classic source of link-budget bugs, so this module
centralizes all conversions and the few operations that are legitimate
directly in the log domain (adding gains, combining incoherent powers).
"""

from __future__ import annotations

import math
from typing import Iterable, Optional, Union

import numpy as np

from repro.utils.exactmath import left_sum

ArrayLike = Union[float, np.ndarray]

#: Smallest linear power considered non-zero when converting to dB.
#: Anything below this maps to ``-inf`` dB rather than raising.
_LINEAR_FLOOR = 1e-30


def db_to_linear(value_db: ArrayLike) -> ArrayLike:
    """Convert a power ratio in dB to a linear power ratio.

    >>> db_to_linear(10.0)
    10.0
    >>> db_to_linear(0.0)
    1.0
    """
    return np.power(10.0, np.asarray(value_db, dtype=float) / 10.0) if isinstance(
        value_db, np.ndarray
    ) else 10.0 ** (value_db / 10.0)


def linear_to_db(value_linear: ArrayLike) -> ArrayLike:
    """Convert a linear power ratio to dB.

    Non-positive inputs map to ``-inf`` (a fully dark path) instead of
    raising, because blocked rays legitimately carry zero power.

    >>> linear_to_db(100.0)
    20.0
    """
    arr = np.asarray(value_linear, dtype=float)
    out = np.full_like(arr, -np.inf)
    mask = arr > _LINEAR_FLOOR
    np.log10(arr, where=mask, out=out)
    out *= 10.0
    if np.isscalar(value_linear) or arr.ndim == 0:
        return float(out)
    return out


def dbm_to_watts(value_dbm: ArrayLike) -> ArrayLike:
    """Convert a power in dBm to watts.

    >>> dbm_to_watts(30.0)
    1.0
    """
    if isinstance(value_dbm, np.ndarray):
        return np.power(10.0, (value_dbm - 30.0) / 10.0)
    return 10.0 ** ((value_dbm - 30.0) / 10.0)


def watts_to_dbm(value_watts: ArrayLike) -> ArrayLike:
    """Convert a power in watts to dBm.

    >>> watts_to_dbm(1.0)
    30.0
    """
    return linear_to_db(value_watts) + 30.0


def db_sum_powers(powers_db, axis: Optional[int] = None):
    """Incoherently combine powers expressed in dB (or dBm).

    This is the correct way to add the power of independent paths: the
    linear powers add, not the dB values.  ``-inf`` entries (dark
    paths) are ignored; an empty or all-dark input yields ``-inf``.

    Accepts either an iterable of floats (returns a float) or an
    ``ndarray``.  For arrays, ``axis`` selects the reduction axis —
    e.g. a per-path power grid of shape ``(P, T, R)`` combines into a
    ``(T, R)`` total with ``axis=0`` — and the result is an array
    (``axis=None`` reduces everything to a float).  Dark entries
    contribute zero linear power in either form.

    >>> round(db_sum_powers([10.0, 10.0]), 4)
    13.0103
    """
    if isinstance(powers_db, np.ndarray):
        # 10**(-inf) underflows to exactly 0.0 — dark paths drop out.
        total = np.sum(np.power(10.0, powers_db / 10.0), axis=axis)
        return linear_to_db(total)
    total = 0.0
    for p in powers_db:
        if p == -math.inf:
            continue
        total += 10.0 ** (p / 10.0)
    if total <= 0.0:
        return -math.inf
    return 10.0 * math.log10(total)


def db_mean_power(powers_db: Iterable[float]) -> float:
    """Mean of powers computed in the *linear* domain, returned in dB.

    Averaging dB values directly underweights strong samples; SNR
    averages in the paper are linear-domain means.
    """
    values = list(powers_db)
    if not values:
        raise ValueError("db_mean_power() requires at least one sample")
    finite = [10.0 ** (p / 10.0) for p in values if p != -math.inf]
    if not finite:
        return -math.inf
    mean_linear = left_sum(finite) / len(values)
    if mean_linear <= 0.0:
        return -math.inf
    return 10.0 * math.log10(mean_linear)


def amplitude_ratio_to_db(ratio: ArrayLike) -> ArrayLike:
    """Convert an amplitude (voltage/field) ratio to dB (20·log10)."""
    arr = np.asarray(ratio, dtype=float)
    out = np.full_like(arr, -np.inf)
    mask = arr > math.sqrt(_LINEAR_FLOOR)
    np.log10(arr, where=mask, out=out)
    out *= 20.0
    if np.isscalar(ratio) or arr.ndim == 0:
        return float(out)
    return out


def db_to_amplitude_ratio(value_db: ArrayLike) -> ArrayLike:
    """Convert dB to an amplitude (voltage/field) ratio."""
    if isinstance(value_db, np.ndarray):
        return np.power(10.0, value_db / 20.0)
    return 10.0 ** (value_db / 20.0)
