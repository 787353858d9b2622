"""The metrics registry: named instruments, snapshots, and merging.

One :class:`MetricsRegistry` belongs to each telemetry scope (see
:mod:`repro.telemetry.scopes`).  Metrics are created lazily on first
use, so call sites never need to pre-declare what they measure:

    telemetry.inc("scene.cache.hits")
    telemetry.observe("link.sweep_ms", elapsed_ms)

Metric names are dotted paths; the convention is
``<subsystem>.<thing>[.<aspect>]`` (``scene.tracer_calls``,
``kernel.angles``, ``angle_search.sweep_ms``).
"""

from __future__ import annotations

from typing import Dict, List, Optional

from repro.telemetry.instruments import Histogram
from repro.telemetry.timeseries import DEFAULT_MIN_INTERVAL_S, TimeSeries


class MetricsRegistry:
    """A namespace of integer counters, histograms, and time series."""

    def __init__(self) -> None:
        self._counters: Dict[str, int] = {}
        self._histograms: Dict[str, Histogram] = {}
        self._series: Dict[str, TimeSeries] = {}

    # -- instrument access (get-or-create) -------------------------------

    def histogram(self, name: str) -> Histogram:
        instrument = self._histograms.get(name)
        if instrument is None:
            instrument = self._histograms[name] = Histogram(name)
        return instrument

    def series(
        self, name: str, min_interval_s: float = DEFAULT_MIN_INTERVAL_S
    ) -> TimeSeries:
        """Get-or-create a time series (the cadence gate is set once)."""
        instrument = self._series.get(name)
        if instrument is None:
            instrument = self._series[name] = TimeSeries(
                name, min_interval_s=min_interval_s
            )
        return instrument

    def get_series(self, name: str) -> Optional[TimeSeries]:
        """The named series, or ``None`` if nothing sampled it."""
        return self._series.get(name)

    def series_names(self) -> List[str]:
        """Sorted names of every recorded time series.

        Lets consumers discover dynamically named series — e.g. the
        SLO engine finding every ``user<i>.rate.mbps`` a multi-user
        run sampled.
        """
        return sorted(self._series)

    # -- recording conveniences ------------------------------------------

    def inc(self, name: str, amount: int = 1) -> None:
        # The hottest telemetry call (per kernel batch): one dict read
        # and one dict write.
        counters = self._counters
        counters[name] = counters.get(name, 0) + amount

    def observe(self, name: str, value: float) -> None:
        self.histogram(name).record(value)

    def sample(
        self,
        name: str,
        t_s: float,
        value: float,
        min_interval_s: float = DEFAULT_MIN_INTERVAL_S,
    ) -> bool:
        """Offer one time-series sample; returns whether it was taken."""
        return self.series(name, min_interval_s).sample(t_s, value)

    # -- reading ---------------------------------------------------------

    def counter_value(self, name: str) -> int:
        return self._counters.get(name, 0)

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready dump of every metric in this registry."""
        return {
            "counters": dict(sorted(self._counters.items())),
            "histograms": {
                n: h.summary() for n, h in sorted(self._histograms.items())
            },
            "series": {n: s.summary() for n, s in sorted(self._series.items())},
        }

    def series_export(self) -> Dict[str, Dict[str, object]]:
        """Full time-series dump including retained points (``--timeseries``)."""
        return {n: s.to_dict() for n, s in sorted(self._series.items())}

    def reset(self) -> None:
        """Drop every metric (start of a fresh measurement window)."""
        self._counters.clear()
        self._histograms.clear()
        self._series.clear()

    # -- combination ------------------------------------------------------

    def merge_from(self, other: "MetricsRegistry") -> None:
        """Fold ``other``'s measurements into this registry.

        Counters add; histograms and series merge (aggregates stay
        exact, reservoirs stay under their cap).  Used when a nested
        telemetry scope exits: the parent absorbs the child's activity
        without the child ever being able to zero the parent.
        """
        for name, value in other._counters.items():
            self.inc(name, value)
        for ours, theirs in (
            (self._histograms, other._histograms),
            (self._series, other._series),
        ):
            for name, reservoir in theirs.items():
                mine = ours.get(name)
                # Merging into an empty reservoir copies, so the parent
                # never shares state with the child.
                ours[name] = (
                    reservoir.merge(type(reservoir)(name))
                    if mine is None
                    else mine.merge(reservoir)
                )


__all__ = ["MetricsRegistry"]
