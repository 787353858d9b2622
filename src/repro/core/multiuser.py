"""Serving N headsets from one AP and a shared reflector fleet.

The paper serves exactly one headset, but its own blockage study (§3)
already features the killer multi-user scenario: "another person
walking between the AP and the headset".  With several players in one
room, three things the single-user controller never faces become the
whole problem:

* **Reflector contention** — a reflector is an analog
  amplify-and-forward device steered at exactly one headset, so two
  blocked players wanting the same wall reflector must be arbitrated.
  The loser falls back to the best environmental reflection
  (Opt-NLOS, §3) and the arbitration is recorded as a typed
  ``contention`` event.
* **Airtime sharing** — N video streams plus every user's beam-search
  probes share one TDD channel
  (:meth:`repro.control.scheduler.AirtimeScheduler.share_frame_window`),
  so frame loss becomes a function of N even when every link is
  healthy.
* **Mutual blockage** — each player's body
  (:class:`repro.geometry.bodies.PersonModel`) is an occluder in every
  *other* player's scene.  The per-user occluder sets flow through the
  shared :class:`repro.sim.SceneCache` unchanged: its value-based
  occluder signatures key each user's scene separately.

Per-headset QoE lands in ``user<i>.*`` telemetry series (one
:class:`repro.rate.adaptation.RateAdapter` per user with
``series_prefix="user<i>."``) and is folded into the aggregate
``users.worst.rate_mbps`` / ``users.mean.rate_mbps`` series that the
stock SLO catalog watches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

from repro import telemetry
from repro.baselines.nlos_relay import OptNlosBaseline
from repro.control.scheduler import AirtimeScheduler, SharedWindowImpact
from repro.core.controller import LinkDecision, MoVRSystem, RelayMeasurement
from repro.geometry.bodies import PersonModel
from repro.geometry.mobility import PoseSample
from repro.geometry.room import Occluder
from repro.link.radios import HEADSET_RADIO_CONFIG, Radio
from repro.rate.adaptation import RateAdapter
from repro.telemetry.slo import SERVING_MODE_CODES
from repro.utils.exactmath import left_sum

#: Probes one beam search costs when a user's serving path changes —
#: the hierarchical search of the ablation study, not the exhaustive
#: 12k-probe sweep (see EXPERIMENTS.md).
DEFAULT_PROBES_PER_SEARCH = 234


#: A multi-user decision is a :class:`LinkDecision` with ``user`` set.
UserDecision = LinkDecision


@dataclass(frozen=True)
class MultiUserTick:
    """Everything one multi-user scheduling instant produced."""

    t_s: float
    decisions: Tuple[LinkDecision, ...]
    #: The shared TDD window this tick's frames competed for.
    window: SharedWindowImpact

    @property
    def frames_lost(self) -> int:
        return self.window.frames_lost


class MultiUserSystem:
    """One room, one AP, a shared reflector fleet, N headsets.

    Wraps a calibrated single-user :class:`MoVRSystem`, which owns every
    per-headset piece (link budgets, relay ranking, reflector lookup,
    the :class:`LinkDecision` record), and adds the joint decisions the
    single-user controller cannot make: reflector arbitration, shared
    airtime, and cross-player blockage.
    """

    def __init__(self, system: MoVRSystem, num_users: int) -> None:
        if num_users < 1:
            raise ValueError("num_users must be >= 1")
        self.system = system
        self.num_users = num_users
        self.scheduler = AirtimeScheduler()
        self.nlos = OptNlosBaseline(system.budget)
        self.adapters = [
            RateAdapter(series_prefix=f"user{i}.") for i in range(num_users)
        ]
        # Per-user serving-path memory behind the typed event log.
        self._last_mode: List[Optional[str]] = [None] * num_users
        self._last_via: List[Optional[str]] = [None] * num_users
        self._tick = 0

    # ------------------------------------------------------------------
    # Scene assembly
    # ------------------------------------------------------------------

    def headset_radio(self, user: int, pose: PoseSample) -> Radio:
        """The user's headset radio at a pose."""
        return Radio(
            pose.position,
            boresight_deg=pose.yaw_deg,
            config=HEADSET_RADIO_CONFIG,
            name=f"headset{user}",
        )

    def mutual_occluders(
        self,
        user: int,
        poses: Sequence[PoseSample],
        extra_occluders: Sequence[Occluder] = (),
    ) -> List[Occluder]:
        """The occluders in ``user``'s scene: shared extras plus every
        *other* player's body."""
        return _others_bodies(user, _bodies(poses), extra_occluders)

    # ------------------------------------------------------------------
    # Joint decision
    # ------------------------------------------------------------------

    def step(
        self,
        t_s: float,
        poses: Sequence[PoseSample],
        extra_occluders: Sequence[Occluder] = (),
    ) -> MultiUserTick:
        """Decide every user's serving path and share the TDD window.

        ``poses`` must have one entry per user.  Healthy direct links
        are preferred (they need no relay resources); blocked users bid
        for every reflector that improves on their blocked direct path,
        and the arbiter processes bidders best-bid-first (ties break
        toward the lower user index, deterministically), awarding each
        their best still-unclaimed reflector — a reflector steers at
        exactly one headset.  A bidder whose every wanted reflector was
        claimed by higher-priority users falls back to Opt-NLOS and
        emits a ``contention`` event; blocked users no reflector could
        help at all fall back too, silently (coverage, not contention).
        """
        if len(poses) != self.num_users:
            raise ValueError(
                f"got {len(poses)} poses for {self.num_users} users"
            )
        system = self.system
        radios = [self.headset_radio(i, pose) for i, pose in enumerate(poses)]
        # Each player's body is built once and shared by every other
        # user's scene (same values and order as mutual_occluders).
        bodies = _bodies(poses)
        occluders = [
            _others_bodies(i, bodies, extra_occluders) for i in range(self.num_users)
        ]

        # Pass 1: every direct link in one array pass; users clearing
        # the handoff threshold keep the AP and never enter the
        # arbitration.
        decisions: List[Optional[LinkDecision]] = [None] * self.num_users
        blocked: List[int] = []
        directs = [link.snr_db for link in system.direct_links(radios, occluders)]
        for i, direct in enumerate(directs):
            if direct >= system.handoff_snr_db:
                decisions[i] = LinkDecision.serving("los", direct, direct, user=i)
            else:
                blocked.append(i)

        # Pass 2: every blocked user's candidate reflectors, best first,
        # in one array pass (only candidates that actually improve on
        # the blocked direct path are worth bidding for).
        candidates = system.relay_candidates_many(
            [radios[i] for i in blocked], [occluders[i] for i in blocked]
        )
        bids: Dict[int, List[RelayMeasurement]] = {
            i: [c for c in ranked if c.end_to_end_snr_db > directs[i]]
            for i, ranked in zip(blocked, candidates)
        }

        # Pass 3: arbitration, best-bid-first (ties toward the lower
        # user index, deterministically).  Each bidder takes their best
        # still-unclaimed reflector; whoever finds every wanted
        # reflector already claimed is a contention loser.
        claimed: Dict[str, int] = {}
        assignment: Dict[int, RelayMeasurement] = {}
        order = sorted(
            (i for i in blocked if bids[i]),
            key=lambda i: (-bids[i][0].end_to_end_snr_db, i),
        )
        for i in order:
            for candidate in bids[i]:
                if candidate.reflector_name not in claimed:
                    claimed[candidate.reflector_name] = i
                    assignment[i] = candidate
                    break

        for i in blocked:
            won = assignment.get(i)
            if won is not None:
                # Re-steer the awarded reflector at its winner (bids
                # were evaluated sequentially and left stale beams).
                # The bid was measured with the beams aimed exactly so,
                # so it stands as the winner's link budget.
                system.reflector(won.reflector_name).point_at(
                    system.ap.position, radios[i].position
                )
                decisions[i] = LinkDecision.serving(
                    "reflector",
                    won.end_to_end_snr_db,
                    directs[i],
                    via=won.reflector_name,
                    user=i,
                )
            else:
                contended = bool(bids[i])  # wanted reflectors, got none
                decisions[i] = self._nlos_fallback(
                    i, radios[i], occluders[i], directs[i], contended
                )
                if contended:
                    wanted = bids[i][0]
                    telemetry.inc("multiuser.contention")
                    telemetry.emit(
                        telemetry.EventKind.CONTENTION,
                        t_s=t_s,
                        user=i,
                        reflector=wanted.reflector_name,
                        winner=claimed[wanted.reflector_name],
                        wanted_snr_db=wanted.end_to_end_snr_db,
                        fallback_snr_db=decisions[i].snr_db,
                        fallback_mode=decisions[i].mode,
                    )

        final_decisions = tuple(d for d in decisions if d is not None)
        assert len(final_decisions) == self.num_users

        # Rate adaptation + QoE series, then the shared TDD window at
        # the adapted per-user rates: frame loss becomes a function of
        # how many frames (and search probes) the window must carry.
        probe_counts = []
        for i, decision in enumerate(final_decisions):
            self.adapters[i].observe(decision.snr_db, t_s=t_s)
            searched = (
                decision.mode != self._last_mode[i]
                or decision.via != self._last_via[i]
            )
            probe_counts.append(DEFAULT_PROBES_PER_SEARCH if searched else 0)
            self._emit_transitions(i, decision, t_s)
        rates = [a.current_rate_mbps for a in self.adapters]
        window = self.scheduler.share_frame_window(
            rates, probe_counts=probe_counts, priority_offset=self._tick
        )
        self._sample_aggregates(t_s, rates, final_decisions, window)
        telemetry.inc("multiuser.ticks")
        telemetry.inc("multiuser.frames_lost", window.frames_lost)
        self._tick += 1
        return MultiUserTick(t_s=t_s, decisions=final_decisions, window=window)

    def reset_link_state(self) -> None:
        """Forget serving-path memory (start of a fresh session)."""
        self._last_mode = [None] * self.num_users
        self._last_via = [None] * self.num_users
        self._tick = 0
        for adapter in self.adapters:
            adapter.reset()

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------

    def _nlos_fallback(
        self,
        user: int,
        radio: Radio,
        occluders: Sequence[Occluder],
        direct_snr_db: float,
        contended: bool,
    ) -> LinkDecision:
        """Best environmental reflection (or the weak direct path)."""
        result = self.nlos.evaluate(self.system.ap, radio, occluders)
        return LinkDecision.serving(
            "nlos" if result.snr_db >= direct_snr_db else "los",
            max(result.snr_db, direct_snr_db),
            direct_snr_db,
            user=user,
            contended=contended,
        )

    def _emit_transitions(
        self, user: int, decision: LinkDecision, t_s: float
    ) -> None:
        """Per-user serving events, mirroring the single-user log.

        A HANDOFF is a *serving-path* switch: the relay resource
        changed (reflector acquired, released, or swapped).  ``los``
        <-> ``nlos`` moves re-steer the same AP<->headset radio pair
        onto a different path, so they are not handoffs.  This is why
        the log does not reuse :meth:`MoVRSystem._emit_transitions`,
        which counts a change of mode too; the serving benchmark's
        traced run recounts ``multiuser.handoffs`` from the returned
        decisions under exactly this via-only rule.
        """
        telemetry.sample(
            f"user{user}.mode_code", t_s, SERVING_MODE_CODES[decision.mode]
        )
        if math.isfinite(decision.snr_db):
            telemetry.sample(f"user{user}.snr_db", t_s, decision.snr_db)
        last_mode = self._last_mode[user]
        last_via = self._last_via[user]
        if last_mode is not None:
            if decision.mode == "outage" and last_mode != "outage":
                telemetry.emit(
                    telemetry.EventKind.OUTAGE_BEGIN,
                    t_s=t_s,
                    user=user,
                    from_mode=last_mode,
                    snr_db=decision.snr_db,
                )
            elif last_mode == "outage" and decision.mode != "outage":
                telemetry.emit(
                    telemetry.EventKind.OUTAGE_END,
                    t_s=t_s,
                    user=user,
                    to_mode=decision.mode,
                    via=decision.via,
                    snr_db=decision.snr_db,
                )
            elif decision.via != last_via:
                telemetry.inc("multiuser.handoffs")
                telemetry.emit(
                    telemetry.EventKind.HANDOFF,
                    t_s=t_s,
                    user=user,
                    from_mode=last_mode,
                    from_via=last_via,
                    to_mode=decision.mode,
                    to_via=decision.via,
                    snr_db=decision.snr_db,
                    direct_snr_db=decision.direct_snr_db,
                )
        self._last_mode[user] = decision.mode
        self._last_via[user] = decision.via

    def _sample_aggregates(
        self,
        t_s: float,
        rates: Sequence[float],
        decisions: Tuple[LinkDecision, ...],
        window: SharedWindowImpact,
    ) -> None:
        telemetry.sample("users.worst.rate_mbps", t_s, min(rates))
        telemetry.sample("users.mean.rate_mbps", t_s, left_sum(rates) / len(rates))
        telemetry.sample(
            "users.frame_loss_fraction", t_s, window.frames_lost / window.num_users
        )
        telemetry.sample(
            "users.connected", t_s, sum(1 for d in decisions if d.connected)
        )


def _bodies(poses: Sequence[PoseSample]) -> List[List[Occluder]]:
    """Each pose's body occluders, torso before head."""
    return [
        PersonModel(position=pose.position, heading_deg=pose.yaw_deg).occluders()
        for pose in poses
    ]


def _others_bodies(
    user: int, bodies: Sequence[List[Occluder]], extra_occluders: Sequence[Occluder]
) -> List[Occluder]:
    """The shared extras, then every other player's body by index."""
    occluders = list(extra_occluders)
    for j, body in enumerate(bodies):
        if j != user:
            occluders.extend(body)
    return occluders


__all__ = [
    "DEFAULT_PROBES_PER_SEARCH",
    "MultiUserSystem",
    "MultiUserTick",
    "UserDecision",
]
