"""System-wide observability: metrics, tracing spans, and event logs.

Three coordinated facilities, all scoped through one contextvar stack
(:mod:`repro.telemetry.scopes`):

* **Metrics** — named integer counters plus one bounded reservoir,
  :class:`Histogram` (exact count/total/min/max, deterministic
  stride-halving decimation, p50/p95/p99 quantiles, a pure capped
  merge), which :class:`TimeSeries` extends with timestamps and a
  cadence gate (:mod:`repro.telemetry.instruments`,
  :mod:`repro.telemetry.timeseries`, :mod:`repro.telemetry.registry`).
  The scene cache, the batch kernels, and the link sweeps record here;
  experiment reports carry the active scope's snapshot under
  ``metrics``.
* **Spans** — nestable wall-time regions forming a per-run tree,
  exportable as JSON or Chrome ``chrome://tracing`` trace events
  (:mod:`repro.telemetry.spans`).
* **Events** — typed control-plane transitions (blockage, handoff,
  gain backoff, outage, rate change) with timestamps and link state
  (:mod:`repro.telemetry.events`).

Usage::

    from repro import telemetry

    telemetry.inc("scene.cache.hits")
    telemetry.observe("link.sweep_ms", elapsed_ms)
    telemetry.sample("link.snr_db", t_s, snr_db)
    with telemetry.span("angle_search.sweep") as sp:
        ...
        sp.attrs["probes"] = n
    telemetry.emit(telemetry.EventKind.HANDOFF, t_s=now, via="movr0")

    with telemetry.scope("fig9") as sc:
        ...                      # everything above records into sc
    sc.snapshot()                # metrics + events + spans, JSON-ready

See ``docs/observability.md`` for the full model and how to add an
instrument.
"""

from repro.telemetry.events import ControlEvent, EventKind
from repro.telemetry.instruments import DEFAULT_MAX_SAMPLES, Histogram
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.scopes import (
    ROOT_SCOPE,
    TelemetryScope,
    current_scope,
    emit,
    inc,
    metrics,
    observe,
    sample,
    scope,
    span,
)
from repro.telemetry.spans import Span, Tracer, chrome_trace_events, chrome_trace_json
from repro.telemetry.timeseries import (
    DEFAULT_MAX_POINTS,
    DEFAULT_MIN_INTERVAL_S,
    TimeSeries,
)

__all__ = [
    "ControlEvent",
    "EventKind",
    "Histogram",
    "DEFAULT_MAX_SAMPLES",
    "MetricsRegistry",
    "TelemetryScope",
    "ROOT_SCOPE",
    "current_scope",
    "metrics",
    "scope",
    "inc",
    "observe",
    "sample",
    "span",
    "emit",
    "TimeSeries",
    "DEFAULT_MAX_POINTS",
    "DEFAULT_MIN_INTERVAL_S",
    "Span",
    "Tracer",
    "chrome_trace_events",
    "chrome_trace_json",
]
