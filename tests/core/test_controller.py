"""Unit tests for the MoVR system controller."""

import math

import pytest

from repro import telemetry
from repro.core.controller import LinkDecision, MoVRSystem, RelayMeasurement
from repro.core.reflector import MoVRReflector
from repro.geometry.bodies import hand_occluder, person_blocking_path
from repro.geometry.room import standard_office
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.budget import LinkMeasurement
from repro.link.radios import HEADSET_RADIO_CONFIG, Radio
from repro.phy.channel import MmWaveChannel
from repro.rate.mcs import data_rate_mbps_for_snr


@pytest.fixture(scope="module")
def system():
    room = standard_office(furnished=False)
    ap = Radio(Vec2(0.3, 0.3), boresight_deg=45.0, name="ap")
    reflector = MoVRReflector(
        Vec2(4.7, 4.7),
        boresight_deg=bearing_deg(Vec2(4.7, 4.7), Vec2(2.5, 2.5)),
        name="movr0",
    )
    sys = MoVRSystem(
        room, ap, [reflector], channel=MmWaveChannel(shadowing_sigma_db=0.0)
    )
    sys.calibrate_reflector_gains()
    return sys


def headset_at(x, y, yaw=0.0):
    return Radio(Vec2(x, y), boresight_deg=yaw, config=HEADSET_RADIO_CONFIG)


class TestCalibration:
    def test_gain_results_recorded(self, system):
        results = system.gain_results
        assert "movr0" in results
        assert results["movr0"].final_gain_db > 40.0

    def test_reflector_stable_after_calibration(self, system):
        assert system.reflectors[0].is_stable()


class TestDirectLink:
    def test_healthy_at_midroom(self, system):
        snr = system.direct_link(headset_at(2.5, 2.5)).snr_db
        assert 20.0 < snr < 40.0

    def test_blockage_collapses(self, system):
        hs = headset_at(3.0, 3.0)
        hand = hand_occluder(hs.position, bearing_deg(hs.position, Vec2(0.3, 0.3)))
        clear = system.direct_link(hs).snr_db
        blocked = system.direct_link(hs, extra_occluders=[hand]).snr_db
        assert clear - blocked > 12.0


class TestRelayLink:
    def test_relay_budget_consistent(self, system):
        hs = headset_at(2.0, 3.0)
        m = system.relay_link(system.reflectors[0], hs)
        assert m.stable
        # End-to-end SNR cannot beat either hop.
        assert m.end_to_end_snr_db <= min(m.first_hop_snr_db, m.second_hop_snr_db)
        assert m.end_to_end_snr_db >= min(m.first_hop_snr_db, m.second_hop_snr_db) - 3.1

    def test_relay_comparable_to_los(self, system):
        """Paper section 5.2: MoVR delivers SNR comparable to (usually above)
        the unblocked LOS."""
        hs = headset_at(2.0, 3.0)
        los = system.direct_link(hs).snr_db
        relay = system.relay_link(system.reflectors[0], hs).end_to_end_snr_db
        assert relay > los - 4.0

    def test_elevated_feed_ignores_walking_person(self, system):
        hs = headset_at(3.5, 3.6)
        person = person_blocking_path(Vec2(0.3, 0.3), hs.position, 0.9)
        clear = system.relay_link(system.reflectors[0], hs).end_to_end_snr_db
        with_person = system.relay_link(
            system.reflectors[0], hs, extra_occluders=person.occluders()
        ).end_to_end_snr_db
        assert with_person == pytest.approx(clear, abs=1.0)

    def test_floor_mounting_is_blockable(self):
        room = standard_office(furnished=False)
        ap = Radio(Vec2(0.3, 0.3), boresight_deg=45.0)
        reflector = MoVRReflector(
            Vec2(4.7, 4.7), boresight_deg=bearing_deg(Vec2(4.7, 4.7), Vec2(2.5, 2.5))
        )
        sys = MoVRSystem(
            room,
            ap,
            [reflector],
            channel=MmWaveChannel(shadowing_sigma_db=0.0),
            elevated_mounting=False,
        )
        sys.calibrate_reflector_gains()
        hs = headset_at(3.5, 3.6)
        person = person_blocking_path(Vec2(0.3, 0.3), hs.position, 0.9)
        clear = sys.relay_link(reflector, hs).end_to_end_snr_db
        blocked = sys.relay_link(
            reflector, hs, extra_occluders=person.occluders()
        ).end_to_end_snr_db
        assert blocked < clear - 5.0

    def test_hand_toward_reflector_blocks_second_hop(self, system):
        hs = headset_at(2.0, 3.0)
        toward_reflector = bearing_deg(hs.position, system.reflectors[0].position)
        hand = hand_occluder(hs.position, toward_reflector)
        clear = system.relay_link(system.reflectors[0], hs)
        blocked = system.relay_link(
            system.reflectors[0], hs, extra_occluders=[hand]
        )
        # The blockage lands squarely on the second hop...
        assert blocked.second_hop_snr_db < clear.second_hop_snr_db - 10.0
        # ...and degrades the end-to-end SNR (less than the full hop
        # loss, because the first hop limits the harmonic combination).
        assert blocked.end_to_end_snr_db < clear.end_to_end_snr_db - 4.0


class TestDecide:
    def test_prefers_los_when_healthy(self, system):
        decision = system.decide(headset_at(2.5, 2.5))
        assert decision.mode == "los"
        assert decision.via is None
        assert decision.connected

    def test_hands_off_under_blockage(self, system):
        hs = headset_at(3.0, 3.0)
        hand = hand_occluder(hs.position, bearing_deg(hs.position, Vec2(0.3, 0.3)))
        decision = system.decide(hs, extra_occluders=[hand])
        assert decision.mode == "reflector"
        assert decision.via == "movr0"
        assert decision.rate_mbps >= 4000.0
        assert decision.direct_snr_db < system.handoff_snr_db

    def test_best_relay_none_when_unreachable(self, system):
        # A headset the reflector cannot steer to (behind its wall) is
        # geometrically impossible indoors; emulate by asking for a
        # relay to a far-corner pose outside the scan range.
        hs = headset_at(4.9, 4.9)
        relay = system.best_relay(hs)
        # Either unreachable (None) or served with finite SNR.
        assert relay is None or math.isfinite(relay.end_to_end_snr_db)

    def test_decision_reports_rate_from_snr(self, system):
        decision = system.decide(headset_at(2.5, 2.5))
        assert decision.rate_mbps == data_rate_mbps_for_snr(decision.snr_db)

    def test_handoff_threshold_validated(self):
        room = standard_office(furnished=False)
        ap = Radio(Vec2(0.3, 0.3), boresight_deg=45.0)
        with pytest.raises(ValueError):
            MoVRSystem(room, ap, [], handoff_snr_db=float("nan"))


class TestControlPlaneDegradation:
    """A reflector whose BLE control plane is down must leave the
    handoff candidate set, and rejoin on recovery."""

    def _blocked_headset(self):
        hs = headset_at(3.0, 3.0)
        hand = hand_occluder(hs.position, bearing_deg(hs.position, Vec2(0.3, 0.3)))
        return hs, [hand]

    def test_down_reflector_excluded_and_readmitted(self, system):
        hs, occluders = self._blocked_headset()
        system.reset_link_state()
        baseline = system.decide(hs, extra_occluders=occluders, t_s=0.0)
        assert baseline.via == "movr0"
        try:
            system.mark_control_lost("movr0", t_s=0.1)
            assert system.control_down == {"movr0"}
            assert system.best_relay(hs, occluders) is None
            for step in range(3):
                decision = system.decide(
                    hs, extra_occluders=occluders, t_s=0.1 + 0.01 * step
                )
                assert decision.via != "movr0"
        finally:
            system.mark_control_recovered("movr0", t_s=0.2)
            system.reset_link_state()
        assert system.control_down == frozenset()
        recovered = system.decide(hs, extra_occluders=occluders, t_s=0.3)
        assert recovered.via == "movr0"

    def test_marks_are_idempotent(self, system):
        try:
            system.mark_control_lost("movr0")
            system.mark_control_lost("movr0")
            assert system.control_down == {"movr0"}
        finally:
            system.mark_control_recovered("movr0")
        system.mark_control_recovered("movr0")  # no-op, no raise
        assert system.control_down == frozenset()

    def test_unknown_reflector_rejected(self, system):
        with pytest.raises(ValueError, match="unknown reflector"):
            system.mark_control_lost("nope")
        with pytest.raises(ValueError, match="unknown reflector"):
            system.mark_control_recovered("nope")

    def test_degraded_serving_event_emitted_once_per_episode(self, system):
        from repro import telemetry

        hs, occluders = self._blocked_headset()
        try:
            with telemetry.scope("t") as sc:
                system.reset_link_state()
                system.mark_control_lost("movr0", t_s=1.0)
                system.decide(hs, extra_occluders=occluders, t_s=1.0)
                system.decide(hs, extra_occluders=occluders, t_s=1.1)
            degraded = [
                e
                for e in sc.events
                if e.kind is telemetry.EventKind.DEGRADED_SERVING
            ]
            assert len(degraded) == 1
            assert degraded[0].fields["down"] == ["movr0"]
            assert degraded[0].t_s == pytest.approx(1.0)
        finally:
            system.mark_control_recovered("movr0")
            system.reset_link_state()

    def test_attach_coordinator_wires_callbacks(self, system):
        from repro.control.bluetooth import BleConfig, BleLink
        from repro.control.protocol import ReflectorCoordinator

        coordinator = ReflectorCoordinator(
            system.reflectors[0],
            BleLink(BleConfig(loss_rate=0.0, jitter_s=0.0), rng=0),
        )
        system.attach_coordinator(coordinator)
        try:
            coordinator.on_control_lost(5.0)
            assert system.control_down == {"movr0"}
        finally:
            coordinator.on_control_recovered(6.0)
        assert system.control_down == frozenset()


def _relay(name, snr_db):
    return RelayMeasurement(
        reflector_name=name,
        amp_input_dbm=-50.0,
        amp_output_dbm=0.0,
        received_power_dbm=-70.0,
        first_hop_snr_db=snr_db,
        second_hop_snr_db=snr_db,
        end_to_end_snr_db=snr_db,
        stable=True,
    )


def _direct(snr_db):
    return LinkMeasurement(
        received_power_dbm=-70.0,
        snr_db=snr_db,
        dominant_path=None,
        tx_steer_deg=0.0,
        rx_steer_deg=0.0,
    )


class TestServingFactory:
    def test_rate_follows_snr(self):
        d = LinkDecision.serving("reflector", 20.0, 5.0, via="movr0", user=2)
        assert d.rate_mbps == data_rate_mbps_for_snr(20.0) > 0.0
        assert (d.mode, d.via, d.user, d.connected) == ("reflector", "movr0", 2, True)

    def test_nothing_decodes_is_an_outage_without_via(self):
        d = LinkDecision.serving("reflector", -40.0, -50.0, via="movr0", contended=True)
        assert (d.mode, d.via, d.rate_mbps, d.connected) == ("outage", None, 0.0, False)
        assert d.contended


class TestDecideRegressions:
    def test_undecodable_relay_is_an_outage_without_via(self, system, monkeypatch):
        """A relay that beats a dark direct path but decodes nothing
        must not leave a reflector in ``via`` (nor sample its gain)."""
        monkeypatch.setattr(
            system, "direct_link", lambda *a, **k: LinkMeasurement.outage(0.0, 0.0)
        )
        monkeypatch.setattr(system, "best_relay", lambda *a, **k: _relay("movr0", -20.0))
        system.reset_link_state()
        with telemetry.scope("t") as sc:
            decision = system.decide(headset_at(3.0, 3.0), t_s=0.0)
        system.reset_link_state()
        assert decision.mode == "outage"
        assert decision.via is None
        assert decision.snr_db == -20.0
        assert "link.amp_gain_db" not in sc.registry.series_names()

    def test_undecodable_direct_path_is_not_connected(self, system, monkeypatch):
        """A direct SNR above a very low handoff threshold but below the
        control PHY is an outage, not a connected ``los`` at 0 Mbps."""
        monkeypatch.setattr(system, "handoff_snr_db", -30.0)
        monkeypatch.setattr(system, "direct_link", lambda *a, **k: _direct(-20.0))
        decision = system.decide(headset_at(3.0, 3.0))
        system.reset_link_state()
        assert decision.rate_mbps == 0.0
        assert decision.mode == "outage"
        assert not decision.connected


def _three_reflector_system():
    """Two reflectors facing the room and one facing its own wall, which
    cannot steer at the AP or the headset."""
    room = standard_office(furnished=False)
    ap = Radio(Vec2(0.3, 0.3), boresight_deg=45.0, name="ap")
    spots = [(Vec2(4.7, 4.7), None), (Vec2(0.3, 4.7), None), (Vec2(4.7, 0.3), 0.0)]
    reflectors = [
        MoVRReflector(
            pos,
            boresight_deg=bearing_deg(pos, Vec2(2.5, 2.5)) if facing is None else facing,
            name=f"movr{i}",
        )
        for i, (pos, facing) in enumerate(spots)
    ]
    sys = MoVRSystem(room, ap, reflectors, channel=MmWaveChannel(shadowing_sigma_db=0.0))
    sys.calibrate_reflector_gains()
    return sys


class TestRelayCandidates:
    @pytest.fixture(scope="class")
    def fleet(self):
        return _three_reflector_system()

    def test_sorted_best_first_without_out_of_scan(self, fleet):
        hs = headset_at(2.5, 3.5)
        wall_facing = fleet.reflector("movr2")
        assert not wall_facing.can_serve(fleet.ap.position, hs.position)
        candidates = fleet.relay_candidates(hs)
        assert {c.reflector_name for c in candidates} == {"movr0", "movr1"}
        snrs = [c.end_to_end_snr_db for c in candidates]
        assert snrs == sorted(snrs, reverse=True)

    def test_excludes_control_down(self, fleet):
        hs = headset_at(2.5, 3.5)
        try:
            fleet.mark_control_lost("movr0")
            names = [c.reflector_name for c in fleet.relay_candidates(hs)]
        finally:
            fleet.mark_control_recovered("movr0")
        assert names == ["movr1"]

    def test_best_relay_is_first_candidate(self, fleet):
        hs = headset_at(2.5, 3.5)
        assert fleet.best_relay(hs) == fleet.relay_candidates(hs)[0]

    def test_best_relay_none_without_candidates(self, fleet):
        hs = headset_at(2.5, 3.5)
        try:
            fleet.mark_control_lost("movr0")
            fleet.mark_control_lost("movr1")
            assert fleet.relay_candidates(hs) == []
            assert fleet.best_relay(hs) is None
        finally:
            fleet.mark_control_recovered("movr0")
            fleet.mark_control_recovered("movr1")

    def test_reflector_lookup(self, fleet):
        assert fleet.reflector("movr1") is fleet.reflectors[1]
        with pytest.raises(ValueError, match="unknown reflector"):
            fleet.reflector("nope")

