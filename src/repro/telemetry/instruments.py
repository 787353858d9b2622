"""The bounded reservoir behind histograms and time series.

:class:`Histogram` is the one value-holding instrument: exact
aggregates (``count``, ``total``, ``minimum``, ``maximum``) over the
whole stream plus a bounded reservoir of raw samples backing the
quantiles.  :class:`~repro.telemetry.timeseries.TimeSeries` builds on
it and only adds timestamps and a cadence gate.  Both are plain Python
objects with no locking — they are meant for observability, not exact
accounting under free threading.

Quantile estimates are exact (they match ``numpy.percentile`` on the
raw stream) until the stream outgrows ``max_samples``; beyond that the
reservoir is decimated to every ``stride``-th observation, which keeps
memory constant while preserving the stream's coverage in time.  The
reservoir is held in flat ``array('d')`` columns (8 bytes per value),
not as Python objects.  ``merge`` is a pure function (neither operand
is mutated) that applies the same capacity rule: exact aggregates
combine exactly, reservoirs concatenate and are halved while they are
at or over the cap.  Merges that stay under the cap are therefore
associative sample-for-sample.
"""

from __future__ import annotations

import math
from array import array
from typing import Dict, List, Tuple

import numpy as np

#: Default histogram reservoir capacity (raw samples retained).
DEFAULT_MAX_SAMPLES = 4096

#: Quantiles reported in every histogram summary.
SUMMARY_QUANTILES = (0.5, 0.95, 0.99)


class Histogram:
    """Bounded-memory distribution sketch with quantile estimates.

    Exact aggregates are maintained for the whole stream; a reservoir
    of raw samples backs the quantiles.  While ``count < max_samples``
    the reservoir *is* the raw stream, so ``quantile(q)`` equals
    ``numpy.percentile(stream, 100 * q)`` exactly.  When the reservoir
    fills it is halved (every other sample kept) and recording
    switches to every ``stride``-th observation.  The pattern depends
    only on the arrival sequence, so equal streams keep equal samples.
    """

    #: Reservoir columns per retained sample.
    _COLUMNS = 1

    __slots__ = (
        "name",
        "max_samples",
        "count",
        "total",
        "minimum",
        "maximum",
        "_kept",
        "_stride",
        "_phase",
    )

    def __init__(self, name: str, max_samples: int = DEFAULT_MAX_SAMPLES) -> None:
        if max_samples < 2:
            raise ValueError("max_samples must be >= 2")
        self.name = name
        self.max_samples = int(max_samples)
        self.count = 0
        self.total = 0.0
        self.minimum = math.inf
        self.maximum = -math.inf
        # The reservoir as parallel flat float columns, one entry per
        # retained sample: the values alone here; a time series keeps
        # its times first and the values last.
        self._kept: Tuple[array, ...] = tuple(
            array("d") for _ in range(self._COLUMNS)
        )
        self._stride = 1
        self._phase = 0

    # -- recording -------------------------------------------------------

    def record(self, value: float) -> None:
        v = float(value)
        if not math.isfinite(v):
            raise ValueError(f"histogram {self.name!r} observed non-finite {value!r}")
        self._add(v, (v,))

    def _add(self, value: float, row: Tuple[float, ...]) -> None:
        """Fold ``value`` into the aggregates and offer ``row`` (one entry
        per reservoir column) for keeping."""
        self.count += 1
        self.total += value
        if value < self.minimum:
            self.minimum = value
        if value > self.maximum:
            self.maximum = value
        if self._phase == 0:
            for column, entry in zip(self._kept, row):
                column.append(entry)
            self._decimate()
        self._phase = (self._phase + 1) % self._stride

    def _decimate(self) -> None:
        """Halve the reservoir (doubling the stride) until it is under the cap."""
        while len(self._kept[0]) >= self.max_samples:
            self._kept = tuple(column[::2] for column in self._kept)
            self._stride *= 2

    # -- derived values --------------------------------------------------

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    @property
    def retained(self) -> int:
        """Number of samples currently held in the reservoir."""
        return len(self._kept[0])

    @property
    def samples(self) -> List[float]:
        """The retained sample values (a copy, arrival order)."""
        return self._kept[-1].tolist()

    def quantile(self, q: float) -> float:
        """Estimate the ``q`` quantile (``0 <= q <= 1``) of the stream.

        Matches ``numpy.percentile(raw_stream, 100 * q)`` exactly
        while the reservoir has not been decimated.
        """
        if not 0.0 <= q <= 1.0:
            raise ValueError("q must be in [0, 1]")
        if not self.retained:
            raise ValueError(f"histogram {self.name!r} is empty")
        return float(np.percentile(self._kept[-1], 100.0 * q))

    def summary(self) -> Dict[str, object]:
        """JSON-ready digest: count, mean, extrema, p50/p95/p99."""
        out: Dict[str, object] = {
            "count": self.count,
            "mean": self.mean,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
        }
        for q in SUMMARY_QUANTILES:
            key = f"p{int(q * 100)}"
            out[key] = self.quantile(q) if self.retained else None
        return out

    # -- combination -----------------------------------------------------

    def merge(self, other: "Histogram") -> "Histogram":
        """Combine two reservoirs into a new one of the same type (pure).

        Exact aggregates add exactly; reservoirs concatenate and are
        then halved while at or over the (larger) cap, as recording
        would, so a scope that absorbs many children stays bounded.
        """
        out = type(self)(self.name, max(self.max_samples, other.max_samples))
        out.count = self.count + other.count
        out.total = self.total + other.total
        out.minimum = min(self.minimum, other.minimum)
        out.maximum = max(self.maximum, other.maximum)
        out._kept = tuple(a + b for a, b in zip(self._kept, other._kept))
        out._stride = max(self._stride, other._stride)
        out._decimate()
        return out

    def __repr__(self) -> str:  # pragma: no cover - debug aid
        kind = type(self).__name__
        return f"{kind}({self.name!r}, n={self.count}, retained={self.retained})"


__all__ = ["Histogram", "DEFAULT_MAX_SAMPLES", "SUMMARY_QUANTILES"]
