"""Airtime scheduling: data frames vs beam-search probes.

Section 6 of the paper: "Finding the best beam alignment is the most time
consuming process in the design" — because every probe the AP spends
measuring a candidate beam is airtime stolen from the video stream.
This module models a TDD link where probing and data share the channel
and answers: *how many frames does a search of N probes cost?*
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

from repro import telemetry
from repro.link.beams import DEFAULT_PROBE_TIME_S
from repro.utils.exactmath import left_sum
from repro.utils.validation import require_non_negative, require_positive
from repro.vr.traffic import DEFAULT_TRAFFIC, VrTrafficModel

#: Guard against float noise when comparing airtime slices against the
#: per-frame slack at window boundaries.
_TIME_EPS_S = 1e-12


@dataclass(frozen=True)
class SearchImpact:
    """What one beam search costs the video stream."""

    search_time_s: float
    frames_at_risk: int
    frames_lost: int
    stall_s: float
    #: Where the search started inside its first frame window (the
    #: worst-case offset when the caller did not pin one).
    start_offset_s: float = 0.0

    @property
    def disruptive(self) -> bool:
        return self.frames_lost > 0


@dataclass(frozen=True)
class SharedWindowImpact:
    """One TDD frame window shared by N users' frames plus probes."""

    num_users: int
    probe_time_s: float
    #: Total airtime wanted this window: probes + every user's frame.
    demand_s: float
    #: Delivery budget: a frame missing the deadline is a glitch.
    capacity_s: float
    frames_lost: int
    lost_users: Tuple[int, ...]

    @property
    def frames_delivered(self) -> int:
        return self.num_users - self.frames_lost

    @property
    def utilization(self) -> float:
        """Demanded airtime over the deadline budget (> 1 = oversubscribed)."""
        if self.capacity_s <= 0.0:
            return math.inf
        return self.demand_s / self.capacity_s


@dataclass
class AirtimeScheduler:
    """A TDD link shared between VR frames and beam probing.

    ``guard_fraction`` reserves headroom beyond the raw frame airtime
    (MAC overhead, ACKs).  During a search the data link is down: the
    radio cannot probe candidate beams and deliver frames at once.
    A frame is lost when the search occupies so much of its deadline
    window that the remaining airtime cannot carry it.
    """

    traffic: VrTrafficModel = DEFAULT_TRAFFIC
    link_rate_mbps: float = 6756.75
    probe_time_s: float = DEFAULT_PROBE_TIME_S
    guard_fraction: float = 0.1

    def __post_init__(self) -> None:
        require_positive(self.link_rate_mbps, "link_rate_mbps")
        require_positive(self.probe_time_s, "probe_time_s")
        require_non_negative(self.guard_fraction, "guard_fraction")

    @property
    def frame_airtime_s(self) -> float:
        """Airtime one frame occupies, including guard overhead."""
        return self.traffic.frame_airtime_s(self.link_rate_mbps) * (
            1.0 + self.guard_fraction
        )

    @property
    def slack_per_frame_s(self) -> float:
        """Idle time inside each frame deadline window."""
        return max(0.0, self.traffic.frame_deadline_s - self.frame_airtime_s)

    def _impact_at_offset(
        self, search_time_s: float, offset_s: float
    ) -> Tuple[int, int]:
        """(frames_at_risk, frames_lost) for a search starting
        ``offset_s`` into frame 0's interval.

        Frame ``k``'s deadline window is ``[k*T, k*T + D)``; the search
        occupies ``[offset, offset + S)``.  A frame is at risk when the
        search overlaps its window at all, and lost when the overlap
        exceeds the window's slack (deadline minus frame airtime).
        """
        if search_time_s <= 0.0:
            return 0, 0
        interval = self.traffic.frame_interval_s
        deadline = self.traffic.frame_deadline_s
        slack = deadline - self.frame_airtime_s
        end = offset_s + search_time_s
        # Windows k with k*T < end and k*T + D > offset.
        k_min = max(0, int(math.floor((offset_s - deadline) / interval)) + 1)
        k_max = int(math.ceil(end / interval)) - 1
        at_risk = 0
        lost = 0
        for k in range(k_min, k_max + 1):
            window_start = k * interval
            overlap = min(end, window_start + deadline) - max(offset_s, window_start)
            if overlap <= _TIME_EPS_S:
                continue
            at_risk += 1
            if overlap > slack + _TIME_EPS_S:
                lost += 1
        return at_risk, lost

    def _worst_case_offset(self, search_time_s: float) -> float:
        """The start offset (within one frame interval) that loses the
        most frames.

        The loss count as a function of the offset is piecewise
        constant; it can only flip where some window's search overlap
        crosses zero or the per-frame slack, and those breakpoints
        repeat with the frame interval — so a handful of candidate
        offsets (each checked just before/after the breakpoint) covers
        every case exactly.
        """
        interval = self.traffic.frame_interval_s
        deadline = self.traffic.frame_deadline_s
        slack = deadline - self.frame_airtime_s
        breakpoints = {
            0.0,
            (-search_time_s) % interval,
            (slack - search_time_s) % interval,
            (deadline - slack) % interval,
            deadline % interval,
            (deadline - search_time_s) % interval,
        }
        candidates = set()
        eps = 1e-9
        for b in breakpoints:
            for offset in (b - eps, b, b + eps):
                candidates.add(min(max(offset, 0.0), interval * (1.0 - 1e-12)))
        best_offset, best_key = 0.0, (-1, -1)
        for offset in sorted(candidates):
            at_risk, lost = self._impact_at_offset(search_time_s, offset)
            if (lost, at_risk) > best_key:
                best_key = (lost, at_risk)
                best_offset = offset
        return best_offset

    def search_impact(
        self, num_probes: int, start_offset_s: Optional[float] = None
    ) -> SearchImpact:
        """Frames lost by a blocking search of ``num_probes`` probes.

        The search runs contiguously (beam switching mid-frame would
        corrupt the frame).  Frames whose deadline windows the search
        overlaps are lost unless enough of the window remains to carry
        the frame.

        ``start_offset_s`` places the search start inside a frame
        interval (taken modulo the interval).  Searches are triggered
        by blockage, not by the frame clock, so the default is the
        **worst-case** offset: a search straddling window boundaries
        can overlap one more deadline window than a boundary-aligned
        one, and assuming alignment undercounts the risk.
        """
        if num_probes < 0:
            raise ValueError("num_probes must be non-negative")
        search_time = num_probes * self.probe_time_s
        interval = self.traffic.frame_interval_s
        if search_time <= 0.0:
            offset = 0.0 if start_offset_s is None else start_offset_s % interval
            at_risk, lost = 0, 0
        elif start_offset_s is None:
            offset = self._worst_case_offset(search_time)
            at_risk, lost = self._impact_at_offset(search_time, offset)
        else:
            if not math.isfinite(start_offset_s) or start_offset_s < 0.0:
                raise ValueError(
                    f"start_offset_s must be finite and non-negative, "
                    f"got {start_offset_s}"
                )
            offset = start_offset_s % interval
            at_risk, lost = self._impact_at_offset(search_time, offset)
        telemetry.inc("scheduler.searches")
        telemetry.inc("scheduler.frames_lost", lost)
        telemetry.observe("scheduler.search_time_ms", search_time * 1000.0)
        return SearchImpact(
            search_time_s=search_time,
            frames_at_risk=at_risk,
            frames_lost=lost,
            stall_s=lost * interval,
            start_offset_s=offset,
        )

    def share_frame_window(
        self,
        user_rates_mbps: Sequence[float],
        probe_counts: Optional[Sequence[int]] = None,
        priority_offset: int = 0,
    ) -> SharedWindowImpact:
        """Schedule one frame window shared by N users plus probes.

        Every user owes one video frame per window; ``probe_counts``
        adds each user's beam-search probes, which occupy the head of
        the window (a probing radio cannot deliver frames).  Frames
        are then served shortest-airtime-first — the throughput-optimal
        order — with ties rotated by ``priority_offset`` so equal-rate
        users take turns losing when the window oversubscribes.  A
        frame is lost when its delivery would finish past the deadline
        or its user's link is down (rate <= 0).
        """
        n = len(user_rates_mbps)
        if n < 1:
            raise ValueError("share_frame_window needs at least one user")
        if probe_counts is None:
            probe_counts = [0] * n
        if len(probe_counts) != n:
            raise ValueError(
                f"probe_counts has {len(probe_counts)} entries for {n} users"
            )
        if any(p < 0 for p in probe_counts):
            raise ValueError("probe counts must be non-negative")
        deadline = self.traffic.frame_deadline_s
        guard = 1.0 + self.guard_fraction
        probe_time = sum(probe_counts) * self.probe_time_s
        airtimes = [
            self.traffic.frame_airtime_s(rate) * guard for rate in user_rates_mbps
        ]
        demand = probe_time + left_sum(a for a in airtimes if math.isfinite(a))
        order = sorted(range(n), key=lambda i: (airtimes[i], (i - priority_offset) % n))
        cursor = probe_time
        lost: List[int] = []
        for i in order:
            airtime = airtimes[i]
            if math.isfinite(airtime) and cursor + airtime <= deadline + _TIME_EPS_S:
                cursor += airtime
            else:
                lost.append(i)
        lost.sort()
        telemetry.inc("scheduler.shared_windows")
        telemetry.inc("scheduler.shared.frames_lost", len(lost))
        return SharedWindowImpact(
            num_users=n,
            probe_time_s=probe_time,
            demand_s=demand,
            capacity_s=deadline,
            frames_lost=len(lost),
            lost_users=tuple(lost),
        )

    def max_probes_without_frame_loss(self) -> int:
        """Largest contiguous probe burst that costs zero frames."""
        budget = self.traffic.frame_deadline_s - self.frame_airtime_s
        if budget <= 0.0:
            return 0
        return int(budget / self.probe_time_s)


def compare_search_strategies(
    probe_counts: dict,
    scheduler: Optional[AirtimeScheduler] = None,
) -> List[dict]:
    """Tabulate the frame cost of each search strategy.

    ``probe_counts`` maps strategy name -> probes per search.
    """
    scheduler = scheduler if scheduler is not None else AirtimeScheduler()
    rows = []
    for name, probes in probe_counts.items():
        impact = scheduler.search_impact(probes)
        rows.append(
            {
                "strategy": name,
                "probes": probes,
                "search_time_ms": impact.search_time_s * 1000.0,
                "frames_lost": impact.frames_lost,
                "stall_ms": impact.stall_s * 1000.0,
            }
        )
    return rows
