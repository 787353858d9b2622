"""Retry/timeout/backoff policy for the MoVR control plane.

Section 4 of the paper runs everything — angle search, gain
calibration, steady-state beam pushes — over a BLE link that 2.4 GHz
interference interrupts routinely.  This module is the policy half of
fault handling: how long to wait before re-establishing a dropped
connection, how the wait grows across consecutive failures, and when
to give up.  The mechanism half (what state to restore, where to
resume the sweep) lives in
:class:`repro.control.protocol.ReflectorCoordinator`.

Backoff is deterministic (no jitter term): the simulator's clock is
the only randomness source that matters here, and a reproducible
backoff sequence is what lets the recovery-latency tests assert exact
timings.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.utils.exactmath import left_sum
from repro.utils.validation import require_non_negative, require_positive


@dataclass(frozen=True)
class RetryPolicy:
    """Exponential-backoff reconnection policy.

    Attempt ``n`` (1-based) waits ``initial_backoff_s *
    backoff_factor**(n-1)`` seconds, capped at ``max_backoff_s``,
    before trying to re-establish the BLE connection.  After
    ``max_reconnect_attempts`` failed attempts the control plane is
    declared dead and the original ``ConnectionError`` propagates.
    """

    max_reconnect_attempts: int = 6
    initial_backoff_s: float = 0.05
    backoff_factor: float = 2.0
    max_backoff_s: float = 1.0

    def __post_init__(self) -> None:
        if self.max_reconnect_attempts < 1:
            raise ValueError("max_reconnect_attempts must be >= 1")
        require_positive(self.initial_backoff_s, "initial_backoff_s")
        if self.backoff_factor < 1.0:
            raise ValueError("backoff_factor must be >= 1.0")
        require_positive(self.max_backoff_s, "max_backoff_s")
        if self.max_backoff_s < self.initial_backoff_s:
            raise ValueError("max_backoff_s must be >= initial_backoff_s")

    def backoff_s(self, attempt: int) -> float:
        """Wait before reconnection ``attempt`` (1-based)."""
        if attempt < 1:
            raise ValueError("attempt is 1-based")
        return min(
            self.initial_backoff_s * self.backoff_factor ** (attempt - 1),
            self.max_backoff_s,
        )

    @property
    def worst_case_wait_s(self) -> float:
        """Total backoff if every allowed attempt is needed."""
        return left_sum(
            self.backoff_s(n) for n in range(1, self.max_reconnect_attempts + 1)
        )


@dataclass(frozen=True)
class RecoveryEpisode:
    """One control-plane loss and its (successful) recovery."""

    lost_t_s: float
    recovered_t_s: float
    attempts: int

    def __post_init__(self) -> None:
        require_non_negative(self.lost_t_s, "lost_t_s")
        if self.recovered_t_s < self.lost_t_s:
            raise ValueError("recovered_t_s must be >= lost_t_s")
        if self.attempts < 1:
            raise ValueError("attempts must be >= 1")

    @property
    def downtime_s(self) -> float:
        """Recovery latency: how long the control plane was dark."""
        return self.recovered_t_s - self.lost_t_s


def downtime_cdf(episodes: List[RecoveryEpisode]) -> List[float]:
    """Sorted recovery latencies — the experiment's CDF x-values."""
    return sorted(e.downtime_s for e in episodes)


__all__ = ["RetryPolicy", "RecoveryEpisode", "downtime_cdf"]
