"""Output invariants and simulated-QoE scoring for the serving benchmark.

Both work only on what the program hands back from a tick — the
per-user decisions, the adapted rates and the shared window's lost
users — never on the program's own telemetry counters, so a change
cannot move its score by editing a counter.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

from repro.rate.mcs import data_rate_mbps_for_snr
from repro.vr.traffic import DEFAULT_TRAFFIC

MODES = frozenset({"los", "reflector", "nlos", "outage"})


@dataclass(frozen=True)
class Outcome:
    """What one tick handed back to its caller."""

    #: Per-user decisions (``LinkDecision`` or ``UserDecision``): each
    #: has ``mode``, ``via``, ``snr_db``, ``rate_mbps`` and ``connected``.
    decisions: Tuple[object, ...]
    #: Each user's rate-adapted link rate after the tick.
    adapted_mbps: Tuple[float, ...]
    #: Users whose frame missed the shared TDD window this tick.
    lost_users: Tuple[int, ...] = ()
    #: ``None`` when the tick raised instead of returning.
    error: Optional[str] = None


def violations(
    outcome: Outcome, num_users: int, reflectors: Iterable[str]
) -> List[str]:
    """Every output invariant this tick broke (empty when sound)."""
    if outcome.error is not None:
        return [f"raised {outcome.error}"]
    known = set(reflectors)
    problems = []
    if len(outcome.decisions) != num_users:
        problems.append(f"{len(outcome.decisions)} decisions for {num_users} users")
    if len(outcome.adapted_mbps) != len(outcome.decisions):
        problems.append("adapted-rate count differs from decision count")
    assigned = []
    for user, d in enumerate(outcome.decisions):
        if d.mode not in MODES:
            problems.append(f"user {user}: unknown mode {d.mode!r}")
        if d.via not in (known if d.mode == "reflector" else {None}):
            problems.append(f"user {user}: mode {d.mode!r} with via {d.via!r}")
        if d.via is not None:
            assigned.append(d.via)
        expected = data_rate_mbps_for_snr(d.snr_db)
        if d.rate_mbps != expected:
            problems.append(
                f"user {user}: rate {d.rate_mbps} Mbps but SNR {d.snr_db} dB "
                f"gives {expected} Mbps"
            )
        if (d.rate_mbps > 0.0) != d.connected:
            problems.append(
                f"user {user}: rate {d.rate_mbps} Mbps while connected={d.connected}"
            )
    if len(assigned) != len(set(assigned)):
        problems.append(f"a reflector serves two users: {sorted(assigned)}")
    lost = outcome.lost_users
    if len(lost) != len(set(lost)):
        problems.append(f"duplicate lost users {lost}")
    if len(lost) > num_users or any(not 0 <= u < num_users for u in lost):
        problems.append(f"lost users {lost} outside {num_users} users")
    return problems


def score(outcomes: Sequence[Outcome], num_users: int) -> Dict[str, float]:
    """Totals behind the simulated QoE metrics, over every user-frame:
    frames, frames not delivered, frames in outage, sum of adapted rates.

    A user-frame is not delivered when the user is in outage, lost the
    shared window, or the frame's airtime at the adapted rate exceeds
    the frame deadline.  A tick that raised delivers none of its frames.
    """
    deadline = DEFAULT_TRAFFIC.frame_deadline_s
    undelivered = outages = 0
    rate_sum = 0.0
    for outcome in outcomes:
        if outcome.error is not None:
            undelivered += num_users
            continue
        lost = set(outcome.lost_users)
        for user, (d, rate) in enumerate(zip(outcome.decisions, outcome.adapted_mbps)):
            rate_sum += rate
            outage = d.mode == "outage"
            outages += outage
            airtime = DEFAULT_TRAFFIC.frame_airtime_s(rate)
            if outage or user in lost or not airtime <= deadline:
                undelivered += 1
    return {
        "user_frames": len(outcomes) * num_users,
        "undelivered": undelivered,
        "outages": outages,
        "rate_sum_mbps": rate_sum,
    }

