"""Experiment harness: reports, tables, paper-shape checks, telemetry.

Every experiment module returns a :class:`ExperimentReport` carrying
the raw rows (one dict per table row / CDF point), free-form notes,
and a list of :class:`ShapeCheck` results — assertions that the
*shape* of the reproduced figure matches the paper's qualitative
claims (who wins, by roughly what factor), which is the reproduction
contract recorded in EXPERIMENTS.md.

Each ``run_*`` function is wrapped in :func:`scoped_run`, which gives
the run its own :mod:`repro.telemetry` scope.  The report therefore
also carries that run's **telemetry**: the metric snapshot (counters,
gauges, histogram quantiles), the typed control-plane event log, and
the tracing-span tree — all rendered in the text report and
serialized in the JSON.  Nested experiment invocations are safe: a
sub-experiment records into (and may reset) only its own scope, and
its totals fold into the caller's scope when it returns.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

from repro import telemetry
from repro.telemetry import slo as slo_engine
from repro.telemetry.registry import MetricsRegistry
from repro.telemetry.scopes import TelemetryScope

#: The report's ``perf`` keys (the pre-telemetry counter names) and the
#: registry metric each one reads.
LEGACY_COUNTER_METRICS: Dict[str, str] = {
    "tracer_calls": "scene.tracer_calls",
    "cache_hits": "scene.cache.hits",
    "cache_misses": "scene.cache.misses",
    "cache_invalidations": "scene.cache.invalidations",
    "kernel_batches": "kernel.batches",
    "kernel_angles": "kernel.angles",
    "link_sweeps": "link.sweeps",
}


def legacy_perf_snapshot(registry: MetricsRegistry) -> Dict[str, object]:
    """The seven scene/kernel counters plus the derived rates
    (``cache_hit_rate``, ``mean_kernel_batch``) a report's ``perf``
    carries."""
    snap: Dict[str, object] = {
        legacy: registry.counter_value(metric)
        for legacy, metric in LEGACY_COUNTER_METRICS.items()
    }
    hits = registry.counter_value("scene.cache.hits")
    misses = registry.counter_value("scene.cache.misses")
    queries = hits + misses
    snap["cache_hit_rate"] = round(hits / queries, 4) if queries else 0.0
    batches = registry.counter_value("kernel.batches")
    angles = registry.counter_value("kernel.angles")
    snap["mean_kernel_batch"] = round(angles / batches, 2) if batches else 0.0
    return snap


#: How many events the text report shows without ``--events``.
DEFAULT_MAX_EVENTS = 8

#: Sentinel for "use the report's own max_events option".
_USE_REPORT_DEFAULT = object()


@dataclass(frozen=True)
class ShapeCheck:
    """One qualitative claim from the paper, verified against our data."""

    claim: str
    passed: bool
    detail: str

    def __str__(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"[{status}] {self.claim} — {self.detail}"


@dataclass
class ExperimentReport:
    """The output of one experiment run."""

    experiment_id: str
    title: str
    rows: List[Dict[str, object]] = field(default_factory=list)
    checks: List[ShapeCheck] = field(default_factory=list)
    notes: List[str] = field(default_factory=list)
    perf: Dict[str, object] = field(default_factory=dict)
    #: Typed control-plane events (dicts with ``kind``/``t_s``/state).
    events: List[Dict[str, object]] = field(default_factory=list)
    #: Tracing-span trees (see :class:`repro.telemetry.Span`).
    spans: List[Dict[str, object]] = field(default_factory=list)
    #: Full metric snapshot: counters, gauges, histogram quantiles,
    #: and time-series digests.
    metrics: Dict[str, object] = field(default_factory=dict)
    #: SLO verdicts over the run's time series (dicts from
    #: :meth:`repro.telemetry.slo.SloResult.to_dict`).
    slos: List[Dict[str, object]] = field(default_factory=list)
    #: Event-log render truncation for this report (``None`` = use
    #: :data:`DEFAULT_MAX_EVENTS`); overridable per call and via the
    #: CLI's ``--max-events`` / ``--events`` flags.
    max_events: Optional[int] = None

    def add_row(self, **fields: object) -> None:
        self.rows.append(dict(fields))

    def attach_perf(self, registry=None) -> None:
        """Snapshot a registry's legacy perf counters.

        Kept for the pre-telemetry report surface: ``perf`` carries
        the seven scene/kernel counters plus the derived rates, read
        via :func:`legacy_perf_snapshot`.  The full metric snapshot
        (histograms included) lands in :attr:`metrics` via
        :meth:`attach_telemetry`.
        """
        registry = registry if registry is not None else telemetry.metrics()
        self.perf = legacy_perf_snapshot(registry)

    def attach_telemetry(self, scope: TelemetryScope) -> None:
        """Capture everything a telemetry scope collected for this run."""
        self.attach_perf(scope.registry)
        self.metrics = scope.registry.snapshot()
        self.events = [event.to_dict() for event in scope.events]
        self.spans = [span.to_dict() for span in scope.tracer.roots]

    def check(self, claim: str, passed: bool, detail: str) -> ShapeCheck:
        result = ShapeCheck(claim=claim, passed=bool(passed), detail=detail)
        self.checks.append(result)
        return result

    def note(self, text: str) -> None:
        self.notes.append(text)

    @property
    def all_checks_pass(self) -> bool:
        return all(c.passed for c in self.checks)

    @property
    def failed_checks(self) -> List[ShapeCheck]:
        return [c for c in self.checks if not c.passed]

    # -- rendering --------------------------------------------------------

    def format_table(self, max_rows: Optional[int] = None) -> str:
        """Render rows as a fixed-width text table."""
        if not self.rows:
            return "(no rows)"
        rows = self.rows if max_rows is None else self.rows[:max_rows]
        columns = list(rows[0].keys())
        rendered: List[List[str]] = []
        for row in rows:
            rendered.append([_format_cell(row.get(c)) for c in columns])
        widths = [
            max(len(col), *(len(r[i]) for r in rendered)) for i, col in enumerate(columns)
        ]
        header = "  ".join(col.ljust(widths[i]) for i, col in enumerate(columns))
        separator = "  ".join("-" * w for w in widths)
        body = [
            "  ".join(cell.ljust(widths[i]) for i, cell in enumerate(r))
            for r in rendered
        ]
        suffix = []
        if max_rows is not None and len(self.rows) > max_rows:
            suffix.append(f"... ({len(self.rows) - max_rows} more rows)")
        return "\n".join([header, separator] + body + suffix)

    def _resolve_max_events(self, max_events: object) -> Optional[int]:
        """Call-level override > report option > module default."""
        if max_events is _USE_REPORT_DEFAULT:
            return self.max_events if self.max_events is not None else DEFAULT_MAX_EVENTS
        return max_events  # type: ignore[return-value]

    def format_events(self, max_events: object = _USE_REPORT_DEFAULT) -> List[str]:
        """Event-log lines: ``[t=1.234s] handoff from_mode=los ...``.

        ``max_events=None`` renders the full log; the default defers
        to the report's :attr:`max_events` option.
        """
        max_events = self._resolve_max_events(max_events)
        shown = self.events if max_events is None else self.events[:max_events]
        lines = [f"  {_format_event(event)}" for event in shown]
        if max_events is not None and len(self.events) > max_events:
            lines.append(
                f"  ... ({len(self.events) - max_events} more events; "
                "--events shows all)"
            )
        return lines

    def format_slos(self, detail: bool = False) -> List[str]:
        """SLO verdict lines; ``detail`` adds the per-window breakdown."""
        lines: List[str] = []
        for verdict in self.slos:
            status = "PASS" if verdict.get("passed") else "VIOLATED"
            lines.append(
                f"  [{status}] {verdict.get('name')} — {verdict.get('objective')} "
                f"({verdict.get('violated_windows')}/{len(verdict.get('windows', []))} "
                f"windows violated, worst burn "
                f"{float(verdict.get('worst_burn_rate', 0.0)):.2f}x, "
                f"n={verdict.get('samples')})"
            )
            if detail:
                for window in verdict.get("windows", []):
                    mark = "VIOL" if window.get("violated") else "ok"
                    lines.append(
                        f"    [{mark}] window {float(window['start_s']):.1f}-"
                        f"{float(window['end_s']):.1f}s: observed "
                        f"{float(window['observed']):.4g} "
                        f"(burn {float(window['burn_rate']):.2f}x, "
                        f"n={window['samples']})"
                    )
        return lines

    def format_report(
        self,
        max_rows: Optional[int] = None,
        max_events: object = _USE_REPORT_DEFAULT,
        slo_detail: bool = False,
    ) -> str:
        """Full human-readable report: table, notes, checks, telemetry."""
        lines = [f"=== {self.experiment_id}: {self.title} ===", ""]
        lines.append(self.format_table(max_rows))
        if self.notes:
            lines.append("")
            lines.extend(f"note: {n}" for n in self.notes)
        if self.checks:
            lines.append("")
            lines.append("shape checks vs the paper:")
            lines.extend(f"  {c}" for c in self.checks)
        if self.slos:
            lines.append("")
            lines.append(f"SLOs ({len(self.slos)} evaluated):")
            lines.extend(self.format_slos(detail=slo_detail))
        series = self.metrics.get("series") if self.metrics else None
        if series:
            lines.append("")
            lines.append("time series:")
            for name, digest in series.items():
                lines.append(f"  {name}: {_format_series(digest)}")
        if self.events:
            lines.append("")
            lines.append(f"control events ({len(self.events)}):")
            lines.extend(self.format_events(max_events))
        if self.perf:
            lines.append("")
            lines.append("perf counters:")
            lines.extend(
                f"  {key}: {_format_cell(value)}"
                for key, value in self.perf.items()
            )
        histograms = self.metrics.get("histograms") if self.metrics else None
        if histograms:
            lines.append("")
            lines.append("latency histograms (ms):")
            for name, digest in histograms.items():
                lines.append(f"  {name}: {_format_histogram(digest)}")
        if self.spans:
            lines.append("")
            lines.append(f"trace spans: {sum(_span_count(s) for s in self.spans)}")
        return "\n".join(lines)

    def print_report(
        self,
        max_rows: Optional[int] = None,
        max_events: object = _USE_REPORT_DEFAULT,
        slo_detail: bool = False,
    ) -> None:
        print(
            self.format_report(max_rows, max_events=max_events, slo_detail=slo_detail)
        )

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> Dict[str, object]:
        """JSON-ready dictionary (used by the CLI's ``--json`` flag)."""
        return {
            "experiment_id": self.experiment_id,
            "title": self.title,
            "rows": [dict(r) for r in self.rows],
            "notes": list(self.notes),
            "checks": [
                {"claim": c.claim, "passed": c.passed, "detail": c.detail}
                for c in self.checks
            ],
            "all_checks_pass": self.all_checks_pass,
            "perf": dict(self.perf),
            "events": [dict(e) for e in self.events],
            "spans": [dict(s) for s in self.spans],
            "metrics": dict(self.metrics),
            "slos": [dict(s) for s in self.slos],
        }

    def save_json(self, path: str) -> None:
        """Write the report as strict JSON.

        Non-finite floats (dark-link SNRs are legitimately ``-inf``)
        are stringified, since strict JSON has no representation for
        them and ``Infinity`` tokens break non-Python consumers.
        """
        import json
        import math

        def sanitize(value: object) -> object:
            if isinstance(value, float) and not math.isfinite(value):
                return str(value)
            if isinstance(value, dict):
                return {k: sanitize(v) for k, v in value.items()}
            if isinstance(value, list):
                return [sanitize(v) for v in value]
            return value

        with open(path, "w") as handle:
            json.dump(sanitize(self.to_dict()), handle, indent=2, allow_nan=False)

    @classmethod
    def load_json(cls, path: str) -> "ExperimentReport":
        """Load a report saved by :meth:`save_json`."""
        import json

        with open(path) as handle:
            data = json.load(handle)
        report = cls(experiment_id=data["experiment_id"], title=data["title"])
        for row in data["rows"]:
            report.add_row(**row)
        for note in data["notes"]:
            report.note(note)
        for check in data["checks"]:
            report.check(check["claim"], check["passed"], check["detail"])
        report.perf = dict(data.get("perf", {}))
        report.events = [dict(e) for e in data.get("events", [])]
        report.spans = [dict(s) for s in data.get("spans", [])]
        report.metrics = dict(data.get("metrics", {}))
        report.slos = [dict(s) for s in data.get("slos", [])]
        return report


def scoped_run(
    experiment_id: str,
) -> Callable[[Callable[..., ExperimentReport]], Callable[..., ExperimentReport]]:
    """Give an experiment's ``run_*`` function its own telemetry scope.

    The wrapped function runs inside ``telemetry.scope(experiment_id)``
    under a root span named after the experiment; on return, the
    scope's metrics, events, and spans are attached to the report.
    Because scopes nest, an experiment invoked from inside another
    experiment (or from a test that is itself measuring) can neither
    zero nor steal its caller's counters — the caller absorbs the
    sub-run's totals when the scope exits.
    """

    def decorate(fn: Callable[..., ExperimentReport]) -> Callable[..., ExperimentReport]:
        @functools.wraps(fn)
        def wrapper(*args: object, **kwargs: object) -> ExperimentReport:
            with telemetry.scope(experiment_id) as sc:
                with telemetry.span(experiment_id):
                    report = fn(*args, **kwargs)
                if isinstance(report, ExperimentReport):
                    # Evaluate the stock QoE objectives over whatever
                    # time series the run sampled (skipped wholesale
                    # when it sampled none).  Violations emit typed
                    # ``slo_violation`` events into this scope, so they
                    # land in the report's own event log.
                    results = slo_engine.evaluate_scope(sc)
                    report.slos = [r.to_dict() for r in results]
                    report.attach_telemetry(sc)
            return report

        return wrapper

    return decorate


def _format_event(event: Dict[str, object]) -> str:
    t_s = event.get("t_s")
    when = "t=?" if t_s is None else f"t={float(t_s):.3f}s"
    kind = event.get("kind", "?")
    detail = " ".join(
        f"{k}={_format_cell(v)}"
        for k, v in event.items()
        if k not in ("kind", "t_s")
    )
    return f"[{when}] {kind}" + (f" {detail}" if detail else "")


def _format_series(digest: object) -> str:
    if not isinstance(digest, dict):
        return str(digest)
    parts = [f"n={digest.get('count')}", f"kept={digest.get('retained')}"]
    first, last = digest.get("first_t_s"), digest.get("last_t_s")
    if isinstance(first, (int, float)) and isinstance(last, (int, float)):
        parts.append(f"t={first:.2f}..{last:.2f}s")
    for key in ("min", "mean", "max"):
        value = digest.get(key)
        if isinstance(value, (int, float)):
            parts.append(f"{key}={value:.3g}")
    return " ".join(parts)


def _format_histogram(digest: object) -> str:
    if not isinstance(digest, dict):
        return str(digest)
    parts = [f"n={digest.get('count')}"]
    for key in ("mean", "p50", "p95", "p99", "max"):
        value = digest.get(key)
        if isinstance(value, (int, float)):
            parts.append(f"{key}={value:.3f}")
    return " ".join(parts)


def _span_count(span: Dict[str, object]) -> int:
    children = span.get("children")
    if not isinstance(children, list):
        return 1
    return 1 + sum(_span_count(c) for c in children if isinstance(c, dict))


def _format_cell(value: object) -> str:
    if isinstance(value, bool):
        return "yes" if value else "no"
    if isinstance(value, float):
        if value != value:  # NaN
            return "nan"
        if abs(value) >= 1000.0 or (value != 0.0 and abs(value) < 0.01):
            return f"{value:.3g}"
        return f"{value:.2f}"
    return str(value)
