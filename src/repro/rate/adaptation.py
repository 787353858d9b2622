"""Rate adaptation: choosing an MCS from a noisy SNR time series.

VR traffic is non-elastic (the paper, section 1): the link either sustains
the required rate or the frame glitches.  The adapter therefore runs
with a protection margin and hysteresis — it steps *down* immediately
when the SNR dips below the current MCS's threshold but steps *up*
only after the SNR has held above the next threshold for a dwell
period, avoiding rate flapping around a threshold.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro import telemetry
from repro.rate.mcs import Mcs, PhyType, best_mcs_for_snr
from repro.utils.validation import require_non_negative


@dataclass
class RateAdapter:
    """Hysteresis-based 802.11ad rate adaptation.

    ``margin_db`` protects against SNR estimation error; ``up_dwell``
    is how many consecutive observations must clear the next MCS's
    threshold (plus margin) before stepping up.
    """

    margin_db: float = 2.0
    up_dwell: int = 3
    phys: Sequence[PhyType] = (PhyType.CONTROL, PhyType.SINGLE_CARRIER, PhyType.OFDM)
    #: Prefix for the QoE series names, so several adapters — one per
    #: headset — can coexist in one telemetry scope: ``"user0."``
    #: yields ``user0.rate.mbps`` / ``user0.rate.snr_db``.
    series_prefix: str = ""
    _current: Optional[Mcs] = field(default=None, init=False)
    _up_count: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        require_non_negative(self.margin_db, "margin_db")
        if self.up_dwell < 1:
            raise ValueError("up_dwell must be >= 1")

    @property
    def current_mcs(self) -> Optional[Mcs]:
        return self._current

    @property
    def current_rate_mbps(self) -> float:
        return 0.0 if self._current is None else self._current.data_rate_mbps

    def observe(self, snr_db: float, t_s: Optional[float] = None) -> Optional[Mcs]:
        """Feed one SNR observation; returns the MCS now in use.

        ``t_s`` (the caller's clock) stamps the ``rate_change`` event
        emitted whenever the MCS actually moves.

        Hysteresis policy: a target *below* the current rate (or an
        outage) is adopted immediately — never linger above what the
        channel supports.  A target above the current rate, **or an
        equal-rate MCS on a different PHY**, is adopted only after
        ``up_dwell`` consecutive observations: both moves cost a
        retrain, so both get the same dwell, and the adapter converges
        to the policy's preferred MCS instead of sticking to a stale
        equal-rate choice forever.  An equal-rate switch does not emit
        a ``rate_change`` event (the QoE-visible rate is unchanged).
        """
        previous = self._current
        if t_s is not None and math.isfinite(snr_db):
            telemetry.sample(self.series_prefix + "rate.snr_db", t_s, snr_db)
        target = best_mcs_for_snr(snr_db, phys=self.phys, margin_db=self.margin_db)
        if target is None:
            # Outage: drop everything immediately.
            self._current = None
            self._up_count = 0
        elif (
            self._current is None
            or target.data_rate_mbps < self._current.data_rate_mbps
        ):
            self._current = target
            self._up_count = 0
        elif target == self._current:
            self._up_count = 0
        else:
            # Step up — or sidestep to an equal-rate MCS on another PHY
            # — after the dwell.
            self._up_count += 1
            if self._up_count >= self.up_dwell:
                self._current = target
                self._up_count = 0
        self._emit_change(previous, snr_db, t_s)
        return self._current

    def _emit_change(
        self, previous: Optional[Mcs], snr_db: float, t_s: Optional[float]
    ) -> None:
        before = None if previous is None else previous.data_rate_mbps
        after = None if self._current is None else self._current.data_rate_mbps
        if t_s is not None:
            # The adapted-rate QoE series; 0 means nothing decodes.
            telemetry.sample(
                self.series_prefix + "rate.mbps", t_s, 0.0 if after is None else after
            )
        if before == after:
            return
        telemetry.inc("rate.changes")
        telemetry.emit(
            telemetry.EventKind.RATE_CHANGE,
            t_s=t_s,
            from_rate_mbps=0.0 if previous is None else previous.data_rate_mbps,
            to_rate_mbps=0.0 if self._current is None else self._current.data_rate_mbps,
            snr_db=snr_db,
        )

    def run(
        self,
        snr_series_db: Sequence[float],
        times_s: Optional[Sequence[float]] = None,
        *,
        t0_s: float = 0.0,
        dt_s: Optional[float] = None,
    ) -> List[float]:
        """Run over a whole SNR trace; returns the per-step rate in Mbps.

        Trace-driven runs should supply a time base so the
        ``rate_change`` events are stamped with the trace clock rather
        than ``None``: either ``times_s`` (one timestamp per sample)
        or a uniform ``dt_s`` step starting at ``t0_s``.
        """
        if times_s is not None and dt_s is not None:
            raise ValueError("pass either times_s or dt_s, not both")
        if times_s is not None and len(times_s) != len(snr_series_db):
            raise ValueError(
                f"times_s has {len(times_s)} entries for "
                f"{len(snr_series_db)} SNR samples"
            )
        if dt_s is not None:
            require_non_negative(dt_s, "dt_s")
        rates = []
        for i, snr in enumerate(snr_series_db):
            if times_s is not None:
                t: Optional[float] = float(times_s[i])
            elif dt_s is not None:
                t = t0_s + i * dt_s
            else:
                t = None
            self.observe(snr, t_s=t)
            rates.append(self.current_rate_mbps)
        return rates

    def reset(self) -> None:
        self._current = None
        self._up_count = 0


def outage_fraction(
    snr_series_db: Sequence[float],
    required_rate_mbps: float,
    adapter: Optional[RateAdapter] = None,
    times_s: Optional[Sequence[float]] = None,
    *,
    t0_s: float = 0.0,
    dt_s: Optional[float] = None,
) -> float:
    """Fraction of observations where the adapted rate misses the VR
    requirement — the glitch metric of the end-to-end experiments.

    ``times_s`` / ``t0_s`` + ``dt_s`` thread a trace time base through
    to the adapter so emitted ``rate_change`` events carry timestamps
    (see :meth:`RateAdapter.run`).
    """
    if not snr_series_db:
        raise ValueError("empty SNR series")
    if required_rate_mbps <= 0.0:
        raise ValueError("required_rate_mbps must be positive")
    adapter = adapter if adapter is not None else RateAdapter()
    adapter.reset()
    rates = adapter.run(snr_series_db, times_s, t0_s=t0_s, dt_s=dt_s)
    misses = sum(1 for r in rates if r < required_rate_mbps)
    return misses / len(rates)
