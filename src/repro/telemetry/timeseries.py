"""Time-series sampling: a bounded reservoir over simulation time.

A histogram answers "how much / how long in total" — a distribution
of sweep times, a count of handoffs.  What it cannot answer is
*when*: how long was the SNR below the HD threshold, did the outage
cluster at the start of the session or smear across it?  A
:class:`TimeSeries` records ``(t, value)`` samples against the
caller's clock (simulation seconds in the experiments) so QoE
questions become windowed computations over the session timeline (see
:mod:`repro.telemetry.slo`).

It is a :class:`~repro.telemetry.instruments.Histogram` whose
reservoir carries a column of timestamps beside the values (two flat
float arrays, 16 bytes per retained sample), so exact aggregates,
deterministic decimation and the capped pure merge are the
histogram's.  On top it adds:

* **Fixed cadence** — a ``min_interval_s`` gate drops samples that
  arrive faster than the configured cadence, so a pathological caller
  (a kHz decision loop) cannot flood the buffer.  A sample whose
  timestamp moves *backwards* re-opens the gate: experiments that run
  several sessions in one scope restart their clocks at zero.
* **Timeline extent** — ``first_t_s``/``last_t_s`` cover every
  accepted sample, and :meth:`TimeSeries.points` returns the retained
  samples in time order (merged scopes interleave timelines).
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from repro.telemetry.instruments import Histogram

#: Default retained-sample capacity per series.
DEFAULT_MAX_POINTS = 2048

#: Default cadence gate: accept at most one sample per 5 simulated ms
#: (200 Hz), comfortably above the 90 Hz VR frame clock.
DEFAULT_MIN_INTERVAL_S = 0.005


class TimeSeries(Histogram):
    """A bounded ``(t, value)`` reservoir with exact aggregates."""

    #: Reservoir columns: times, then values.
    _COLUMNS = 2

    __slots__ = ("min_interval_s", "first_t_s", "last_t_s", "_gate_t")

    def __init__(
        self,
        name: str,
        max_samples: int = DEFAULT_MAX_POINTS,
        min_interval_s: float = 0.0,
    ) -> None:
        if min_interval_s < 0.0:
            raise ValueError("min_interval_s must be >= 0")
        super().__init__(name, max_samples)
        self.min_interval_s = float(min_interval_s)
        self.first_t_s: Optional[float] = None
        self.last_t_s: Optional[float] = None
        self._gate_t: Optional[float] = None

    # -- recording -------------------------------------------------------

    def sample(self, t_s: float, value: float) -> bool:
        """Offer one sample; returns whether the cadence gate accepted it."""
        t = float(t_s)
        v = float(value)
        if not math.isfinite(t):
            raise ValueError(f"series {self.name!r} got non-finite time {t_s!r}")
        if not math.isfinite(v):
            raise ValueError(f"series {self.name!r} got non-finite value {value!r}")
        if (
            self.min_interval_s > 0.0
            and self._gate_t is not None
            and 0.0 <= t - self._gate_t < self.min_interval_s
        ):
            return False
        self._gate_t = t
        if self.first_t_s is None or t < self.first_t_s:
            self.first_t_s = t
        if self.last_t_s is None or t > self.last_t_s:
            self.last_t_s = t
        self._add(v, (t, v))
        return True

    # -- reading ---------------------------------------------------------

    def points(self) -> List[Tuple[float, float]]:
        """Retained ``(t, value)`` samples in time order.

        Sorting matters because merged scopes (or multi-session
        experiments that restart their clock) interleave timelines.
        The sort is stable, so equal timestamps keep arrival order.
        """
        return sorted(zip(*self._kept), key=lambda p: p[0])

    def summary(self) -> Dict[str, object]:
        """JSON-ready digest (no raw points)."""
        return {
            "count": self.count,
            "retained": self.retained,
            "first_t_s": self.first_t_s,
            "last_t_s": self.last_t_s,
            "min": self.minimum if self.count else None,
            "max": self.maximum if self.count else None,
            "mean": self.mean if self.count else None,
        }

    def to_dict(self) -> Dict[str, object]:
        """Full JSON export: the digest plus the retained points."""
        out = self.summary()
        out["points"] = [[t, v] for t, v in self.points()]
        return out

    # -- combination -----------------------------------------------------

    def merge(self, other: "TimeSeries") -> "TimeSeries":
        """The histogram merge plus the combined timeline extent.

        The cadence gate resets: a merged series is a finished
        timeline, not a live sampling target.
        """
        out = super().merge(other)
        out.min_interval_s = max(self.min_interval_s, other.min_interval_s)
        firsts = [t for t in (self.first_t_s, other.first_t_s) if t is not None]
        lasts = [t for t in (self.last_t_s, other.last_t_s) if t is not None]
        out.first_t_s = min(firsts) if firsts else None
        out.last_t_s = max(lasts) if lasts else None
        return out


__all__ = ["TimeSeries", "DEFAULT_MAX_POINTS", "DEFAULT_MIN_INTERVAL_S"]
