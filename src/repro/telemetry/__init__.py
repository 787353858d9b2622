"""System-wide observability: metrics, tracing spans, and event logs.

Three coordinated facilities, all scoped through one contextvar stack
(:mod:`repro.telemetry.scopes`):

* **Metrics** — named counters, gauges, and bounded histograms with
  p50/p95/p99 quantiles (:mod:`repro.telemetry.instruments`,
  :mod:`repro.telemetry.registry`).  The scene cache, the batch
  kernels, and the link sweeps record here; experiment reports read
  the active scope's registry (their ``perf`` section keeps the
  pre-telemetry counter names).
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
from repro.telemetry.instruments import (
    DEFAULT_MAX_SAMPLES,
    Counter,
    Gauge,
    Histogram,
)
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
    set_gauge,
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
    "Counter",
    "Gauge",
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
    "set_gauge",
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
