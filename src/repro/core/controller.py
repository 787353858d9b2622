"""The MoVR system controller: blockage detection and reflector handoff.

Ties everything together (Fig. 5 of the paper): the AP serves the headset
over the direct path while it is healthy; when blockage drops the
direct SNR below the handoff threshold, the AP steers onto the best
calibrated reflector, which amplifies-and-forwards to the headset.
The controller owns calibration (gain control per reflector, beam
angles from the backscatter search or from VR tracking geometry) and
exposes per-instant link decisions for the experiments.  It is the one
owner of per-headset serving: the :class:`LinkDecision` record and its
rate rule, relay ranking and reflector lookup, which
:mod:`repro.core.multiuser` reuses for every headset in a room.
"""

from __future__ import annotations

import math
import sys
import time
from dataclasses import dataclass
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from repro import telemetry
from repro.telemetry.slo import SERVING_MODE_CODES
from repro.core.gain_control import CurrentSensingGainController, GainControlResult
from repro.core.reflector import MoVRReflector, leakages_db_many
from repro.geometry.raytrace import PropagationPath, RayTracer
from repro.geometry.room import Occluder, Room
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.budget import LinkBudget, LinkMeasurement
from repro.link.radios import Radio
from repro.phy.antenna import panel_gains_dbi
from repro.phy.channel import MmWaveChannel
from repro.phy.noise import relay_path_snr_db
from repro.rate.mcs import data_rate_mbps_for_snr
from repro.utils.rng import RngLike, make_rng
from repro.utils.validation import require_finite, require_same_length


@dataclass(frozen=True)
class RelayMeasurement:
    """Link budget of an AP -> reflector -> headset relay path."""

    reflector_name: str
    amp_input_dbm: float
    amp_output_dbm: float
    received_power_dbm: float
    first_hop_snr_db: float
    second_hop_snr_db: float
    end_to_end_snr_db: float
    stable: bool


#: Callers keep a decision per headset per frame (decision logs, the
#: serving benchmark's outcomes), so the record is slotted where
#: dataclasses can slot it (Python 3.10+): about a third smaller.
_SLOTTED = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True, **_SLOTTED)
class LinkDecision:
    """One headset's serving decision for one instant."""

    #: ``los`` | ``reflector`` | ``nlos`` (multi-user contention or
    #: coverage fallback onto the best environmental reflection) |
    #: ``outage``.
    mode: str
    snr_db: float
    rate_mbps: float
    via: Optional[str] = None
    direct_snr_db: float = -math.inf
    #: The headset's index in a multi-user room (0 when serving one).
    user: int = 0
    #: True when this user wanted a reflector but lost it to a
    #: higher-priority user this instant.
    contended: bool = False

    @property
    def connected(self) -> bool:
        return self.mode != "outage"

    @classmethod
    def serving(
        cls,
        mode: str,
        snr_db: float,
        direct_snr_db: float,
        via: Optional[str] = None,
        user: int = 0,
        contended: bool = False,
    ) -> "LinkDecision":
        """Serve over ``mode`` at the rate ``snr_db`` decodes.

        A path that decodes nothing is an outage, whatever it was
        meant to be, and an outage is served by no reflector.
        """
        rate = data_rate_mbps_for_snr(snr_db)
        if rate <= 0.0:
            mode, via = "outage", None
        return cls(mode, snr_db, rate, via, direct_snr_db, user, contended)


class MoVRSystem:
    """One room with an AP, a headset link target, and MoVR reflectors."""

    def __init__(
        self,
        room: Room,
        ap: Radio,
        reflectors: Sequence[MoVRReflector],
        channel: Optional[MmWaveChannel] = None,
        handoff_snr_db: float = 13.0,
        elevated_mounting: bool = True,
        rng: RngLike = None,
    ) -> None:
        require_finite(handoff_snr_db, "handoff_snr_db")
        self.room = room
        self.ap = ap
        self.reflectors = list(reflectors)
        self.channel = channel if channel is not None else MmWaveChannel()
        self.tracer = RayTracer(room)
        self.budget = LinkBudget(self.tracer, self.channel)
        self.handoff_snr_db = handoff_snr_db
        #: Reflectors stick to walls above head height and the AP sits
        #: on a shelf (Fig. 5 of the paper shows both elevated), so the
        #: AP-to-reflector feed clears people and furniture, and the
        #: descending reflector-to-headset hop is only obstructed by
        #: things carried at the headset itself (a raised hand, the
        #: player's own head).  This corrects the 2-D floor plan's lack
        #: of elevation; disable to study floor-level mounting.
        self.elevated_mounting = elevated_mounting
        self._rng = make_rng(rng)
        self._gain_results: Dict[str, GainControlResult] = {}
        # Link-state memory behind the typed event log: decide() emits
        # blockage/handoff/outage transitions by comparing against the
        # previous instant.
        self._last_mode: Optional[str] = None
        self._last_via: Optional[str] = None
        self._blockage_active = False
        self._last_decide_t: Optional[float] = None
        # Reflectors whose BLE control plane is currently down: the AP
        # cannot push beam updates to them, so they are excluded from
        # handoff until the coordinator reports recovery.
        self._control_down: Dict[str, Optional[float]] = {}
        self._degraded_emitted = False

    # ------------------------------------------------------------------
    # Calibration
    # ------------------------------------------------------------------

    def calibrate_reflector_gains(self) -> Dict[str, GainControlResult]:
        """Run the current-sensing gain controller on every reflector.

        Each reflector first aims its receive beam at the AP (the
        incidence angle is "measured once at installation"); the gain
        knee is then found at the installed beam geometry.  The fleet's
        leakages at those beams are one :func:`leakages_db_many` read and
        its feed hops one :meth:`_amp_inputs_dbm` pass; then, reflector
        by reflector, the feed hop draws its shadowing and the
        calibration its readings, from the system's generator.
        """
        results: Dict[str, GainControlResult] = {}
        with telemetry.span("controller.calibrate", reflectors=len(self.reflectors)):
            for reflector in self.reflectors:
                reflector.set_beams(
                    bearing_deg(reflector.position, self.ap.position),
                    reflector.tx_azimuth_deg,
                )
            leakages = leakages_db_many(
                self.reflectors,
                [(r.rx_azimuth_deg, r.tx_azimuth_deg) for r in self.reflectors],
            )
            # The inputs are taken one per turn: each feed hop draws its
            # shadowing after the previous reflector's readings.
            inputs = self._amp_inputs_dbm(self.reflectors, ())
            for reflector, leakage, input_dbm in zip(self.reflectors, leakages, inputs):
                controller = CurrentSensingGainController(reflector, rng=self._rng)
                results[reflector.name] = controller.calibrate(input_dbm, leakage)
        self._gain_results = results
        return results

    @property
    def gain_results(self) -> Dict[str, GainControlResult]:
        return dict(self._gain_results)

    # ------------------------------------------------------------------
    # Link evaluation
    # ------------------------------------------------------------------

    def direct_link(
        self,
        headset_radio: Radio,
        extra_occluders: Sequence[Occluder] = (),
    ) -> LinkMeasurement:
        """The direct AP <-> headset link, both beams on the LOS path:
        the one-headset case of :meth:`direct_links`."""
        return self.direct_links((headset_radio,), (extra_occluders,))[0]

    def direct_links(
        self,
        headset_radios: Sequence[Radio],
        occluder_lists: Sequence[Sequence[Occluder]],
    ) -> List[LinkMeasurement]:
        """Each headset's direct link among its own occluders, as one
        array pass (:meth:`LinkBudget.measure_aligned_many`); the AP is
        left steered at the last headset."""
        return self.budget.measure_aligned_many(
            self.ap, headset_radios, occluder_lists
        )

    def _headset_local_occluders(
        self,
        headset_position: Vec2,
        extra_occluders: Sequence[Occluder],
        radius_m: float = 0.6,
    ) -> Sequence[Occluder]:
        """Occluders attached to the player (hand, own head).

        With elevated mounting, the descending reflector-to-headset hop
        only intersects obstacles in the headset's immediate vicinity.
        """
        local = []
        for occ in extra_occluders:
            center = occ.center
            if center.distance_to(headset_position) <= radius_m:
                local.append(occ)
        return local

    def _feed_hop(
        self, reflector: MoVRReflector, extra_occluders: Sequence[Occluder]
    ) -> PropagationPath:
        """The AP -> reflector hop.  With elevated mounting it clears
        every occluder, furniture included."""
        if self.elevated_mounting:
            return self.budget.cache.line_of_sight(
                self.ap.position,
                reflector.position,
                (),
                include_room_occluders=False,
            )
        return self.budget.cache.line_of_sight(
            self.ap.position, reflector.position, extra_occluders
        )

    def _amp_input_dbm(
        self,
        reflector: MoVRReflector,
        extra_occluders: Sequence[Occluder],
    ) -> float:
        """Signal power at the reflector's amplifier input port, its
        receive beam where it is: the one-reflector case of
        :meth:`_amp_inputs_dbm`."""
        return next(self._amp_inputs_dbm((reflector,), extra_occluders))

    def _amp_inputs_dbm(
        self,
        reflectors: Sequence[MoVRReflector],
        extra_occluders: Sequence[Occluder],
    ) -> Iterator[float]:
        """The signal power at each reflector's amplifier input port, its
        receive beam where it is, in reflector order.

        The feed hops' link columns are one array formula and their AP
        and receive-array gains one :func:`panel_gains_dbi` call; each
        hop's shadowing is drawn only when its input is taken, so a
        caller drawing from the same generator between inputs (gain
        calibration's readings) keeps the order of a reflector-by-
        reflector installation.  The AP steers at each reflector: along
        the feed hop's departure, which is the bearing from the AP to
        the reflector, float for float."""
        hops = [self._feed_hop(reflector, extra_occluders) for reflector in reflectors]
        columns = np.concatenate(
            self.channel.link_columns_many([(hop,) for hop in hops]), axis=1
        )
        departures, arrivals = columns[:2].tolist()
        panels, toward, steer = [], [], []
        for reflector, departure, arrival in zip(reflectors, departures, arrivals):
            panels += [self.ap.array.panel_for(departure), reflector.rx_array]
            toward += [departure, arrival]
            steer += [departure, reflector.rx_azimuth_deg]
        gains = panel_gains_dbi(panels, toward, steer).tolist()
        tx_power = self.ap.config.tx_power_dbm
        for k in range(len(reflectors)):
            # One shadowing draw, as LinkBudget.hop_columns_many draws it.
            (feed_gain,) = self.channel.shadowed_db(columns[2, k : k + 1]).tolist()
            yield tx_power + gains[2 * k] + feed_gain + gains[2 * k + 1]

    def relay_link(
        self,
        reflector: MoVRReflector,
        headset_radio: Radio,
        extra_occluders: Sequence[Occluder] = (),
        repoint: bool = True,
    ) -> RelayMeasurement:
        """Full amplify-and-forward budget through one reflector: the
        one-pair case of :meth:`_relay_bids`.

        Steers the reflector's beams (RX at the AP, TX at the headset —
        the angles MoVR gets from calibration plus VR tracking), then
        accounts for amplifier noise, saturation, and the harmonic
        SNR combination inherent to analog relays.  ``repoint=False``
        keeps the reflector's current beams (beam-sweep studies).
        """
        beams = (
            reflector.bearings_to(self.ap.position, headset_radio.position)
            if repoint
            else None
        )
        return self._relay_bids(
            [(0, reflector, beams)], (headset_radio,), (extra_occluders,)
        )[0]

    def relay_candidates(
        self,
        headset_radio: Radio,
        extra_occluders: Sequence[Occluder] = (),
    ) -> List[RelayMeasurement]:
        """Every reflector that could serve the headset, best SNR first:
        the one-headset case of :meth:`relay_candidates_many`."""
        return self.relay_candidates_many((headset_radio,), (extra_occluders,))[0]

    def relay_candidates_many(
        self,
        headset_radios: Sequence[Radio],
        occluder_lists: Sequence[Sequence[Occluder]],
    ) -> List[List[RelayMeasurement]]:
        """Per headset, every reflector that could serve it among its own
        occluders, best SNR first, as one array pass.

        Reflectors whose control plane is down are not candidates: the
        AP cannot steer them, so handing off to one would serve the
        headset with stale beams.  They rejoin automatically when
        :meth:`mark_control_recovered` is called.  Reflectors that
        cannot steer at both the AP and the headset are skipped too; the
        others are aimed at both along the bearings that check computed,
        headset by headset, so each is left aimed at the last headset it
        was evaluated for.  Equal SNRs keep reflector order (the sort is
        stable).
        """
        require_same_length(
            headset_radios, occluder_lists, "headset_radios", "occluder_lists"
        )
        ap = self.ap.position
        pairs = []
        for user, radio in enumerate(headset_radios):
            for reflector in self.reflectors:
                if reflector.name in self._control_down:
                    continue
                beams = reflector.bearings_to(ap, radio.position)
                if reflector.can_steer(*beams):
                    pairs.append((user, reflector, beams))
        candidates: List[List[RelayMeasurement]] = [[] for _ in headset_radios]
        bids = self._relay_bids(pairs, headset_radios, occluder_lists)
        for (user, _, _), bid in zip(pairs, bids):
            candidates[user].append(bid)
        for bids_of_user in candidates:
            bids_of_user.sort(key=lambda m: -m.end_to_end_snr_db)
        return candidates

    def _relay_bids(
        self,
        pairs: Sequence[Tuple[int, MoVRReflector, Optional[Tuple[float, float]]]],
        headset_radios: Sequence[Radio],
        occluder_lists: Sequence[Sequence[Occluder]],
    ) -> List[RelayMeasurement]:
        """The relay budget of each (headset index, reflector, beams)
        pair, in pair order.

        Each pair in turn sets the reflector's beams (``None`` keeps
        them) and looks up its feed hop, then its out hop; the new hop
        columns come from one array formula and the shadowing from one
        draw per hop, in that order.  One :func:`panel_gains_dbi` call
        (one antenna-kernel call per array pattern) covers each pair's
        four gains: the AP's along the feed hop, the receive array's
        toward the AP, the transmit array's toward the headset and the
        gain of the headset's panel facing the reflector.  The leakage
        of every pair's beam state is one pair of pattern calls per
        equal leakage model (:func:`leakages_db_many`).  Each pair then
        finishes with the scalar amplifier, stability and two-hop SNR
        formulas.
        """
        if not pairs:
            return []
        cache = self.budget.cache
        local: Dict[int, Sequence[Occluder]] = {}
        hops, steerings = [], []
        for user, reflector, beams in pairs:
            if beams is not None:
                reflector.set_beams(*beams)
            steerings.append((reflector.rx_azimuth_deg, reflector.tx_azimuth_deg))
            hops.append(self._feed_hop(reflector, occluder_lists[user]))
            headset = headset_radios[user].position
            if not self.elevated_mounting:
                out = cache.line_of_sight(
                    reflector.position, headset, occluder_lists[user]
                )
            else:
                # Only the occluders near the headset cut the descending
                # hop; they depend on the headset alone.
                if user not in local:
                    local[user] = self._headset_local_occluders(
                        headset, occluder_lists[user]
                    )
                out = cache.line_of_sight(
                    reflector.position,
                    headset,
                    local[user],
                    include_room_occluders=False,
                )
            hops.append(out)
        departures, arrivals, hop_gains = self.budget.hop_columns_many(hops)

        # Feed hops are the even entries, out hops the odd ones.  The AP
        # steers along the feed's departure (the bearing to the
        # reflector) and each headset's serving panel along the out
        # hop's arrival (the bearing back at the reflector), float for
        # float.
        panels, toward, steer = [], [], []
        for k, ((user, reflector, _), (rx_steer, tx_steer)) in enumerate(
            zip(pairs, steerings)
        ):
            feed_departure, out_departure = departures[2 * k], departures[2 * k + 1]
            feed_arrival, out_arrival = arrivals[2 * k], arrivals[2 * k + 1]
            panels += [
                self.ap.array.panel_for(feed_departure),
                reflector.rx_array,
                reflector.tx_array,
                headset_radios[user].array.panel_for(out_arrival),
            ]
            toward += [feed_departure, feed_arrival, out_departure, out_arrival]
            steer += [feed_departure, rx_steer, tx_steer, out_arrival]
        gains = panel_gains_dbi(panels, toward, steer).tolist()
        leakages = leakages_db_many([reflector for _, reflector, _ in pairs], steerings)

        bids = []
        implementation_loss = self.ap.config.implementation_loss_db
        tx_power = self.ap.config.tx_power_dbm
        for k, (user, reflector, _) in enumerate(pairs):
            ap_gain, rx_gain, tx_gain, headset_gain = gains[4 * k:4 * k + 4]
            amp_input = tx_power + ap_gain + hop_gains[2 * k] + rx_gain
            first_hop_snr = amp_input - reflector.front_end_noise.noise_floor_dbm
            amp_output = reflector.output_power_dbm(amp_input, leakages[k])
            stable = reflector.is_stable(leakages[k])
            received = (
                amp_output
                + tx_gain
                + hop_gains[2 * k + 1]
                + headset_gain
                - implementation_loss
            )
            second_hop_snr = received - headset_radios[user].config.noise_floor_dbm
            if not stable:
                end_to_end = -math.inf  # oscillating amplifier: garbage out
            else:
                end_to_end = relay_path_snr_db(first_hop_snr, second_hop_snr)
            bids.append(
                RelayMeasurement(
                    reflector_name=reflector.name,
                    amp_input_dbm=amp_input,
                    amp_output_dbm=amp_output,
                    received_power_dbm=received,
                    first_hop_snr_db=first_hop_snr,
                    second_hop_snr_db=second_hop_snr,
                    end_to_end_snr_db=end_to_end,
                    stable=stable,
                )
            )
        return bids

    def best_relay(
        self,
        headset_radio: Radio,
        extra_occluders: Sequence[Occluder] = (),
    ) -> Optional[RelayMeasurement]:
        """The serving reflector candidate with the highest SNR."""
        candidates = self.relay_candidates(headset_radio, extra_occluders)
        return candidates[0] if candidates else None

    def reflector(self, name: str) -> MoVRReflector:
        """The reflector called ``name``; unknown names are rejected."""
        for reflector in self.reflectors:
            if reflector.name == name:
                return reflector
        known = ", ".join(r.name for r in self.reflectors)
        raise ValueError(f"unknown reflector {name!r}; known: {known}")

    # ------------------------------------------------------------------
    # Control-plane availability (graceful degradation)
    # ------------------------------------------------------------------

    @property
    def control_down(self) -> frozenset:
        """Names of reflectors currently excluded from handoff."""
        return frozenset(self._control_down)

    def mark_control_lost(self, reflector_name: str, t_s: Optional[float] = None) -> None:
        """Exclude a reflector from handoff: its control plane is dark.

        Idempotent; unknown names are rejected.  The ``control_lost``
        event itself is emitted by the coordinator that detected the
        loss — this is the data-plane reaction.
        """
        self.reflector(reflector_name)
        if reflector_name in self._control_down:
            return
        self._control_down[reflector_name] = t_s
        telemetry.inc("controller.control_lost")

    def mark_control_recovered(
        self, reflector_name: str, t_s: Optional[float] = None
    ) -> None:
        """Re-admit a reflector whose control plane recovered."""
        self.reflector(reflector_name)
        if reflector_name not in self._control_down:
            return
        del self._control_down[reflector_name]
        telemetry.inc("controller.control_recovered")
        if not self._control_down:
            # Fully healed: the next degraded episode is a new event.
            self._degraded_emitted = False

    def attach_coordinator(self, coordinator) -> None:
        """Wire a :class:`ReflectorCoordinator`'s loss/recovery
        callbacks to this system's handoff exclusion set."""
        name = coordinator.reflector.name
        self.reflector(name)
        coordinator.on_control_lost = lambda t_s: self.mark_control_lost(name, t_s)
        coordinator.on_control_recovered = lambda t_s: self.mark_control_recovered(
            name, t_s
        )

    def decide(
        self,
        headset_radio: Radio,
        extra_occluders: Sequence[Occluder] = (),
        t_s: Optional[float] = None,
    ) -> LinkDecision:
        """Pick the serving path for the current instant.

        The direct path is preferred whenever it clears the handoff
        threshold (it needs no relay resources); otherwise the best
        reflector serves; if nothing decodes, the link is in outage.

        ``t_s`` (the caller's clock, e.g. simulation time) stamps the
        control-plane events this decision may emit — blockage
        detected/cleared, AP<->reflector handoff, outage begin/end.
        """
        started = time.perf_counter()
        direct = self.direct_link(headset_radio, extra_occluders).snr_db
        mode, snr, via = "los", direct, None
        if direct < self.handoff_snr_db:
            relay = self.best_relay(headset_radio, extra_occluders)
            if relay is not None and relay.end_to_end_snr_db > direct:
                mode, via = "reflector", relay.reflector_name
                snr = relay.end_to_end_snr_db
        decision = LinkDecision.serving(mode, snr, direct, via=via)
        telemetry.inc("controller.decisions")
        telemetry.observe(
            "controller.decide_ms", (time.perf_counter() - started) * 1000.0
        )
        if t_s is not None:
            self._sample_link_state(decision, t_s)
        self._emit_transitions(decision, t_s)
        if t_s is not None:
            self._last_decide_t = t_s
        return decision

    def _sample_link_state(self, decision: LinkDecision, t_s: float) -> None:
        """Offer this instant's link state to the QoE time series.

        Dark-link SNRs are legitimately ``-inf`` and are skipped (the
        ``link.mode_code`` series carries the outage signal); every
        series uses the default 200 Hz cadence gate.
        """
        telemetry.sample("link.mode_code", t_s, SERVING_MODE_CODES[decision.mode])
        telemetry.sample("link.rate_mbps", t_s, decision.rate_mbps)
        if math.isfinite(decision.snr_db):
            telemetry.sample("link.snr_db", t_s, decision.snr_db)
        if math.isfinite(decision.direct_snr_db):
            telemetry.sample("link.direct_snr_db", t_s, decision.direct_snr_db)
        if decision.via is not None:
            gain_db = self.reflector(decision.via).amplifier.gain_db
            telemetry.sample("link.amp_gain_db", t_s, gain_db)

    # ------------------------------------------------------------------
    # Control-plane event log
    # ------------------------------------------------------------------

    def reset_link_state(self) -> None:
        """Forget the previous decision (start of a fresh session).

        Without this, the first decision of a new session would be
        compared against the last decision of the previous one and
        could emit a spurious handoff/outage transition.
        """
        self._last_mode = None
        self._last_via = None
        self._blockage_active = False
        self._last_decide_t = None
        # Control-plane availability is infrastructure state and
        # survives a session reset, but the next degraded decision
        # should announce itself again.
        self._degraded_emitted = False

    def _emit_transitions(self, decision: LinkDecision, t_s: Optional[float]) -> None:
        """Emit typed events for every state change this decision made.

        A change of mode *or* via is a handoff here: with one headset,
        ``los`` <-> ``reflector`` is the paper's handoff.
        :meth:`MultiUserSystem._emit_transitions` counts a change of
        via only, and its ``multiuser.handoffs`` counter is pinned by
        the serving benchmark's traced run, so the two logs stay
        separate rather than share one transition rule.
        """
        if self._control_down and decision.connected and not self._degraded_emitted:
            # Serving with a shrunken candidate set: flag it once per
            # degraded episode so reports show the exposure window.
            telemetry.emit(
                telemetry.EventKind.DEGRADED_SERVING,
                t_s=t_s,
                down=sorted(self._control_down),
                mode=decision.mode,
                via=decision.via,
                snr_db=decision.snr_db,
            )
            self._degraded_emitted = True
        blocked = decision.direct_snr_db < self.handoff_snr_db
        if blocked and not self._blockage_active:
            telemetry.emit(
                telemetry.EventKind.BLOCKAGE_DETECTED,
                t_s=t_s,
                direct_snr_db=decision.direct_snr_db,
                threshold_db=self.handoff_snr_db,
            )
        elif not blocked and self._blockage_active:
            telemetry.emit(
                telemetry.EventKind.BLOCKAGE_CLEARED,
                t_s=t_s,
                direct_snr_db=decision.direct_snr_db,
            )
        self._blockage_active = blocked
        if self._last_mode is not None and (
            decision.mode != self._last_mode or decision.via != self._last_via
        ):
            # The serving-path switch gap: time since the last healthy
            # decision on the old path.  At the 90 Hz VR frame clock
            # this is one frame interval; a slower decision loop shows
            # up directly in the handoff-gap SLO.
            gap_ms: Optional[float] = None
            if t_s is not None and self._last_decide_t is not None:
                gap = (t_s - self._last_decide_t) * 1000.0
                if gap >= 0.0:
                    gap_ms = gap
            if decision.mode == "outage":
                telemetry.emit(
                    telemetry.EventKind.OUTAGE_BEGIN,
                    t_s=t_s,
                    from_mode=self._last_mode,
                    snr_db=decision.snr_db,
                )
            elif self._last_mode == "outage":
                if gap_ms is not None:
                    telemetry.sample(
                        "link.handoff_gap_ms", t_s, gap_ms, min_interval_s=0.0
                    )
                telemetry.emit(
                    telemetry.EventKind.OUTAGE_END,
                    t_s=t_s,
                    to_mode=decision.mode,
                    via=decision.via,
                    snr_db=decision.snr_db,
                )
            else:
                if gap_ms is not None:
                    telemetry.sample(
                        "link.handoff_gap_ms", t_s, gap_ms, min_interval_s=0.0
                    )
                gap_field = {} if gap_ms is None else {"gap_ms": gap_ms}
                telemetry.emit(
                    telemetry.EventKind.HANDOFF,
                    t_s=t_s,
                    from_mode=self._last_mode,
                    from_via=self._last_via,
                    to_mode=decision.mode,
                    to_via=decision.via,
                    snr_db=decision.snr_db,
                    direct_snr_db=decision.direct_snr_db,
                    **gap_field,
                )
        self._last_mode = decision.mode
        self._last_via = decision.via
