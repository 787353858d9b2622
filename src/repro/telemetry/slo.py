"""Service-level objectives over telemetry time series.

An SLO turns a QoE question — "was the link above the HD threshold
essentially all the time?" — into a declarative, windowed check over
the series recorded by :mod:`repro.telemetry.timeseries`.  The model
follows production SLO practice scaled down to a session:

* an **objective** constrains either the *fraction of samples* that
  violate a predicate inside a rolling window (``outage fraction <
  1% per 30 s``) or a *quantile* of the windowed values (``p99
  handoff gap < 20 ms``);
* windows of ``window_s`` slide by half a window across the series'
  timeline, so a violation cluster cannot hide by straddling a tile
  boundary;
* each window's **burn rate** is how fast it consumes the objective's
  error budget (observed / allowed); a window with burn rate > 1 is a
  violation, and consecutive violating windows form one *episode*;
* every episode emits a typed ``slo_violation`` control event, so SLO
  breaches land in the same event log as handoffs and outages.

Evaluation is a pure function of the (time-sorted) sample list.
Because window boundaries derive only from the earliest timestamp and
``window_s``, evaluating a stream that was split across nested scopes
and folded back together gives exactly the verdicts of the unsplit
stream — pinned by a hypothesis test in ``tests/telemetry/test_slo.py``.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.telemetry.events import EventKind
from repro.telemetry.scopes import TelemetryScope, emit as emit_event

#: Serving-mode encoding used by the ``link.mode_code`` series
#: (:meth:`repro.core.controller.MoVRSystem.decide` samples it) and
#: the per-user ``user<i>.mode_code`` series of the multi-user core.
#: ``nlos`` — a contention loser riding the best environmental
#: reflection — is degraded-but-connected, so it sits between
#: ``reflector`` and the outage threshold.
SERVING_MODE_CODES: Dict[str, float] = {
    "los": 0.0,
    "reflector": 1.0,
    "nlos": 1.4,
    "outage": 2.0,
}

#: ``link.mode_code`` samples strictly above this are outages.
OUTAGE_CODE_THRESHOLD = 1.5


@dataclass(frozen=True)
class SloSpec:
    """One declarative objective over a named time series.

    ``kind="fraction"``: the fraction of window samples that are
    ``bad_when`` (``"below"``/``"above"``) ``threshold`` must stay
    within ``budget``.  ``kind="quantile"``: the ``q`` quantile of the
    window's values must stay at or below ``limit``.
    """

    name: str
    series: str
    objective: str
    window_s: float
    kind: str = "fraction"
    bad_when: str = "below"
    threshold: float = 0.0
    budget: float = 0.01
    q: float = 0.99
    limit: float = 0.0
    min_samples: int = 2

    def __post_init__(self) -> None:
        if self.kind not in ("fraction", "quantile"):
            raise ValueError(f"unknown SLO kind {self.kind!r}")
        if self.bad_when not in ("below", "above"):
            raise ValueError(f"bad_when must be 'below' or 'above', got {self.bad_when!r}")
        if self.window_s <= 0.0:
            raise ValueError("window_s must be positive")
        if self.kind == "fraction" and not 0.0 < self.budget <= 1.0:
            raise ValueError("budget must be in (0, 1]")
        if self.kind == "quantile":
            if not 0.0 <= self.q <= 1.0:
                raise ValueError("q must be in [0, 1]")
            if self.limit <= 0.0:
                raise ValueError("limit must be positive")
        if self.min_samples < 1:
            raise ValueError("min_samples must be >= 1")


@dataclass(frozen=True)
class SloWindow:
    """One evaluated window of an SLO."""

    start_s: float
    end_s: float
    samples: int
    #: Bad-sample fraction (fraction SLOs) or the quantile value.
    observed: float
    #: observed / allowed — > 1 is a violation.
    burn_rate: float
    violated: bool

    def to_dict(self) -> Dict[str, object]:
        return {
            "start_s": self.start_s,
            "end_s": self.end_s,
            "samples": self.samples,
            "observed": self.observed,
            "burn_rate": self.burn_rate,
            "violated": self.violated,
        }


@dataclass(frozen=True)
class SloResult:
    """The verdict for one SLO over one session."""

    spec: SloSpec
    samples: int
    windows: Tuple[SloWindow, ...]
    passed: bool

    @property
    def violated_windows(self) -> int:
        return sum(1 for w in self.windows if w.violated)

    @property
    def worst_window(self) -> Optional[SloWindow]:
        if not self.windows:
            return None
        return max(self.windows, key=lambda w: w.burn_rate)

    @property
    def episodes(self) -> List[Tuple[SloWindow, SloWindow]]:
        """Runs of consecutive violating windows as (first, last) pairs."""
        runs: List[Tuple[SloWindow, SloWindow]] = []
        first: Optional[SloWindow] = None
        last: Optional[SloWindow] = None
        for window in self.windows:
            if window.violated:
                if first is None:
                    first = window
                last = window
            elif first is not None:
                runs.append((first, last))
                first = last = None
        if first is not None:
            runs.append((first, last))
        return runs

    def to_dict(self) -> Dict[str, object]:
        worst = self.worst_window
        return {
            "name": self.spec.name,
            "series": self.spec.series,
            "objective": self.spec.objective,
            "window_s": self.spec.window_s,
            "kind": self.spec.kind,
            "samples": self.samples,
            "passed": self.passed,
            "violated_windows": self.violated_windows,
            "worst_burn_rate": worst.burn_rate if worst else 0.0,
            "windows": [w.to_dict() for w in self.windows],
        }


def evaluate_slo(
    spec: SloSpec, points: Sequence[Tuple[float, float]]
) -> Optional[SloResult]:
    """Evaluate one spec over time-sorted ``(t, value)`` samples.

    Returns ``None`` when the series has fewer than ``min_samples``
    points — "not evaluated" is distinct from "passed".
    """
    if len(points) < spec.min_samples:
        return None
    times = np.asarray([p[0] for p in points], dtype=float)
    values = np.asarray([p[1] for p in points], dtype=float)
    t0 = float(times[0])
    t_end = float(times[-1])
    hop = spec.window_s / 2.0
    windows: List[SloWindow] = []
    start = t0
    while True:
        end = start + spec.window_s
        # Final window is anchored to include the tail sample.
        mask = (times >= start) & (times < end)
        if start + spec.window_s >= t_end:
            mask = (times >= start) & (times <= end)
        n = int(mask.sum())
        if n >= spec.min_samples:
            windowed = values[mask]
            if spec.kind == "fraction":
                if spec.bad_when == "below":
                    bad = int((windowed < spec.threshold).sum())
                else:
                    bad = int((windowed > spec.threshold).sum())
                observed = bad / n
                burn = observed / spec.budget
            else:
                observed = float(np.percentile(windowed, 100.0 * spec.q))
                burn = observed / spec.limit
            windows.append(
                SloWindow(
                    start_s=start,
                    end_s=end,
                    samples=n,
                    observed=observed,
                    burn_rate=burn,
                    violated=burn > 1.0,
                )
            )
        if start + spec.window_s >= t_end:
            break
        start += hop
    if not windows:
        return None
    return SloResult(
        spec=spec,
        samples=len(points),
        windows=tuple(windows),
        passed=all(not w.violated for w in windows),
    )


# ---------------------------------------------------------------------------
# The default QoE objective catalog
# ---------------------------------------------------------------------------


def default_slos() -> Tuple[SloSpec, ...]:
    """The stock session-health objectives.

    Built lazily (not at import time) because the HD-SNR threshold
    derives from the MCS table and the VR traffic model.
    """
    from repro.rate.mcs import required_snr_db_for_rate
    from repro.vr.traffic import DEFAULT_TRAFFIC

    required = DEFAULT_TRAFFIC.required_rate_mbps
    hd_snr = required_snr_db_for_rate(required)
    return (
        SloSpec(
            name="outage-fraction",
            series="link.mode_code",
            objective="outage fraction < 1% per 30 s window",
            window_s=30.0,
            kind="fraction",
            bad_when="above",
            threshold=OUTAGE_CODE_THRESHOLD,
            budget=0.01,
        ),
        SloSpec(
            name="time-below-hd-snr",
            series="link.snr_db",
            objective=f"time below the HD SNR threshold ({hd_snr:.1f} dB) < 5% per 10 s window",
            window_s=10.0,
            kind="fraction",
            bad_when="below",
            threshold=hd_snr,
            budget=0.05,
        ),
        SloSpec(
            name="time-below-required-rate",
            series="rate.mbps",
            objective=f"time below the required VR rate ({required:.0f} Mbps) < 5% per 10 s window",
            window_s=10.0,
            kind="fraction",
            bad_when="below",
            threshold=required,
            budget=0.05,
        ),
        SloSpec(
            name="handoff-gap-p99",
            series="link.handoff_gap_ms",
            objective="p99 serving-path switch gap < 20 ms per 30 s window",
            window_s=30.0,
            kind="quantile",
            q=0.99,
            limit=20.0,
            min_samples=1,
        ),
        # Multi-user aggregates (sampled by repro.core.multiuser; the
        # specs are inert in single-user runs, whose scopes never
        # record these series).  The worst-user variant is the hard
        # one: every headset must stay playable, not just the average.
        SloSpec(
            name="worst-user-rate",
            series="users.worst.rate_mbps",
            objective=f"worst user below the required VR rate ({required:.0f} Mbps) < 10% per 10 s window",
            window_s=10.0,
            kind="fraction",
            bad_when="below",
            threshold=required,
            budget=0.10,
        ),
        SloSpec(
            name="mean-user-rate",
            series="users.mean.rate_mbps",
            objective=f"mean user rate below the required VR rate ({required:.0f} Mbps) < 5% per 10 s window",
            window_s=10.0,
            kind="fraction",
            bad_when="below",
            threshold=required,
            budget=0.05,
        ),
        SloSpec(
            name="control-availability",
            series="control.up",
            objective="control-plane outage fraction < 10% per 30 s window",
            window_s=30.0,
            kind="fraction",
            bad_when="below",
            threshold=0.5,
            budget=0.10,
        ),
    )


#: Pattern of the per-headset adapted-rate series a multi-user run
#: records (one :class:`repro.rate.adaptation.RateAdapter` per user
#: with ``series_prefix="user<i>."``).
_PER_USER_RATE_SERIES = re.compile(r"^user(\d+)\.rate\.mbps$")


def per_user_slos(scope: TelemetryScope) -> Tuple[SloSpec, ...]:
    """One required-rate objective per discovered ``user<i>.rate.mbps``.

    Multi-user runs create their QoE series dynamically (the user
    count is a parameter), so the catalog cannot list them statically;
    this discovers whatever the scope actually recorded.
    """
    from repro.vr.traffic import DEFAULT_TRAFFIC

    required = DEFAULT_TRAFFIC.required_rate_mbps
    specs = []
    for name in scope.registry.series_names():
        match = _PER_USER_RATE_SERIES.match(name)
        if match is None:
            continue
        user = int(match.group(1))
        specs.append(
            SloSpec(
                name=f"user{user}-time-below-required-rate",
                series=name,
                objective=f"user {user} below the required VR rate ({required:.0f} Mbps) < 5% per 10 s window",
                window_s=10.0,
                kind="fraction",
                bad_when="below",
                threshold=required,
                budget=0.05,
            )
        )
    return tuple(specs)


def evaluate_scope(
    scope: TelemetryScope,
    specs: Optional[Sequence[SloSpec]] = None,
    emit: bool = True,
) -> List[SloResult]:
    """Evaluate every spec whose series the scope actually recorded.

    With ``specs=None`` the stock catalog applies, extended with one
    per-user required-rate objective for every ``user<i>.rate.mbps``
    series the scope recorded (see :func:`per_user_slos`).

    With ``emit=True`` (the default), each violation episode appends
    one ``slo_violation`` event to the *active* telemetry scope —
    callers evaluate before the measured scope exits, so the events
    land in the same log as the session's handoffs and outages.
    """
    if specs is None:
        specs = tuple(default_slos()) + per_user_slos(scope)
    results: List[SloResult] = []
    for spec in specs:
        series = scope.registry.get_series(spec.series)
        if series is None:
            continue
        result = evaluate_slo(spec, series.points())
        if result is None:
            continue
        results.append(result)
        if emit and not result.passed:
            for first, last in result.episodes:
                emit_event(
                    EventKind.SLO_VIOLATION,
                    t_s=first.start_s,
                    slo=spec.name,
                    series=spec.series,
                    window_s=spec.window_s,
                    until_s=last.end_s,
                    observed=max(w.observed for w in result.windows if w.violated),
                    burn_rate=max(w.burn_rate for w in result.windows if w.violated),
                )
    return results


__all__ = [
    "SERVING_MODE_CODES",
    "OUTAGE_CODE_THRESHOLD",
    "SloSpec",
    "SloWindow",
    "SloResult",
    "evaluate_slo",
    "evaluate_scope",
    "default_slos",
    "per_user_slos",
]
