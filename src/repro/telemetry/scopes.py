"""Contextvar-backed telemetry scopes.

A :class:`TelemetryScope` bundles one measurement window's metrics
registry, span tracer, and event log.  Scopes nest: entering a scope
pushes it onto a contextvar stack, and instrumented code always
records into the *innermost* scope.  When a scope exits, everything it
collected is folded into its parent — counters add, histograms merge,
events append, span trees graft under the parent's open span.

That propagation rule is what makes nested experiment invocation safe:
a sub-experiment gets a fresh registry (its report reflects only its
own work), it cannot zero or steal the parent's numbers, and the
parent still ends up with the complete tally.

The stack is rooted in a process-wide scope, so instrumentation always
has somewhere to record even outside any experiment.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from typing import Dict, Iterator, List, Optional, Tuple

from repro.telemetry.events import ControlEvent, EventKind
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.spans import Span, Tracer
from repro.telemetry.timeseries import DEFAULT_MIN_INTERVAL_S


class TelemetryScope:
    """One measurement window: metrics + spans + events."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.registry = MetricsRegistry()
        self.tracer = Tracer()
        self.events: List[ControlEvent] = []

    def snapshot(self) -> Dict[str, object]:
        """JSON-ready dump of everything this scope collected."""
        return {
            "scope": self.name,
            "metrics": self.registry.snapshot(),
            "events": [e.to_dict() for e in self.events],
            "spans": [s.to_dict() for s in self.tracer.roots],
        }


#: The always-present process-wide scope.
ROOT_SCOPE = TelemetryScope("root")

_STACK: "ContextVar[Tuple[TelemetryScope, ...]]" = ContextVar(
    "repro_telemetry_scopes", default=(ROOT_SCOPE,)
)


def current_scope() -> TelemetryScope:
    """The innermost active scope (never ``None``)."""
    return _STACK.get()[-1]


def metrics() -> MetricsRegistry:
    """The innermost scope's metrics registry."""
    return _STACK.get()[-1].registry


@contextmanager
def scope(name: str) -> Iterator[TelemetryScope]:
    """Enter a fresh telemetry scope; fold into the parent on exit."""
    parent = _STACK.get()[-1]
    sc = TelemetryScope(name)
    token = _STACK.set(_STACK.get() + (sc,))
    try:
        yield sc
    finally:
        _STACK.reset(token)
        parent.registry.merge_from(sc.registry)
        parent.events.extend(sc.events)
        parent.tracer.graft(sc.tracer.roots)


# -- recording helpers (hot-path friendly) -------------------------------


def inc(name: str, amount: int = 1) -> None:
    """Increment a counter in the innermost scope."""
    _STACK.get()[-1].registry.inc(name, amount)


def observe(name: str, value: float) -> None:
    """Record one histogram observation in the innermost scope."""
    _STACK.get()[-1].registry.observe(name, value)


def sample(
    name: str,
    t_s: float,
    value: float,
    min_interval_s: float = DEFAULT_MIN_INTERVAL_S,
) -> bool:
    """Offer one time-series sample to the innermost scope.

    ``min_interval_s`` sets the series' cadence gate when this call
    creates it.  Returns whether the sample was accepted.
    """
    return _STACK.get()[-1].registry.sample(name, t_s, value, min_interval_s)


@contextmanager
def span(name: str, **attrs: object) -> Iterator[Span]:
    """Open a tracing span in the innermost scope.

    Attributes may be passed up front or set on the yielded span
    (``sp.attrs["probes"] = n``) before it closes.
    """
    tracer = _STACK.get()[-1].tracer
    sp = tracer.start(name, attrs)
    try:
        yield sp
    finally:
        tracer.finish(sp)


def emit(kind: EventKind, t_s: Optional[float] = None, **fields: object) -> ControlEvent:
    """Append a typed control-plane event to the innermost scope.

    Also bumps the ``events.<kind>`` counter so metric snapshots carry
    event totals without scanning the log.
    """
    event = ControlEvent(kind=kind, t_s=t_s, fields=fields)
    sc = _STACK.get()[-1]
    sc.events.append(event)
    sc.registry.inc(f"events.{kind.value}")
    return event


__all__ = [
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
]
