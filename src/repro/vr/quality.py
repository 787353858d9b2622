"""Quality-of-experience metrics for the VR stream.

VR data is non-elastic: a frame that misses its deadline is a visible
glitch.  :class:`GlitchTracker` accumulates per-frame outcomes into the
metrics the end-to-end experiments report: glitch rate, longest stall,
and mean time between glitches.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

from repro.utils.exactmath import left_sum


@dataclass(frozen=True)
class FrameOutcome:
    """Delivery outcome of one frame."""

    frame_index: int
    emit_time_s: float
    delivered: bool
    delivery_time_s: Optional[float] = None

    def __post_init__(self) -> None:
        if self.delivered and self.delivery_time_s is None:
            raise ValueError("delivered frames must record a delivery time")
        if self.delivery_time_s is not None and self.delivery_time_s < self.emit_time_s:
            raise ValueError("delivery cannot precede emission")

    @property
    def latency_s(self) -> Optional[float]:
        if self.delivery_time_s is None:
            return None
        return self.delivery_time_s - self.emit_time_s


@dataclass
class GlitchTracker:
    """Accumulates frame outcomes into QoE metrics."""

    frame_interval_s: float
    outcomes: List[FrameOutcome] = field(default_factory=list)

    def __post_init__(self) -> None:
        if self.frame_interval_s <= 0.0:
            raise ValueError("frame_interval_s must be positive")

    def record(self, outcome: FrameOutcome) -> None:
        if self.outcomes and outcome.frame_index <= self.outcomes[-1].frame_index:
            raise ValueError("frame outcomes must be recorded in order")
        self.outcomes.append(outcome)

    # -- metrics ----------------------------------------------------------

    @property
    def total_frames(self) -> int:
        return len(self.outcomes)

    @property
    def glitch_count(self) -> int:
        return sum(1 for o in self.outcomes if not o.delivered)

    @property
    def glitch_rate(self) -> float:
        """Fraction of frames missed."""
        if not self.outcomes:
            raise ValueError("no frames recorded")
        return self.glitch_count / self.total_frames

    @property
    def longest_stall_s(self) -> float:
        """Longest run of consecutive missed frames, in seconds."""
        longest = 0
        run = 0
        for o in self.outcomes:
            run = run + 1 if not o.delivered else 0
            longest = max(longest, run)
        return longest * self.frame_interval_s

    @property
    def mean_time_between_glitches_s(self) -> float:
        """Average spacing of glitch events (inf when glitch-free)."""
        if not self.outcomes:
            raise ValueError("no frames recorded")
        if self.glitch_count == 0:
            return float("inf")
        duration = self.total_frames * self.frame_interval_s
        return duration / self.glitch_count

    def mean_latency_s(self) -> float:
        """Mean delivery latency over delivered frames."""
        latencies = [o.latency_s for o in self.outcomes if o.delivered]
        if not latencies:
            raise ValueError("no delivered frames")
        return left_sum(latencies) / len(latencies)

    def summary(self) -> dict:
        """All metrics, ready for the experiment report printers."""
        return {
            "frames": self.total_frames,
            "glitches": self.glitch_count,
            "glitch_rate": self.glitch_rate,
            "longest_stall_s": self.longest_stall_s,
            "mtbg_s": self.mean_time_between_glitches_s,
        }


def glitch_rate_from_rates(
    rates_mbps: Sequence[float],
    required_rate_mbps: float,
) -> float:
    """Fraction of sampling intervals where the link rate misses the VR
    requirement — a coarse glitch proxy when frame-level simulation is
    not needed."""
    if not rates_mbps:
        raise ValueError("empty rate series")
    if required_rate_mbps <= 0.0:
        raise ValueError("required_rate_mbps must be positive")
    misses = sum(1 for r in rates_mbps if r < required_rate_mbps)
    return misses / len(rates_mbps)
