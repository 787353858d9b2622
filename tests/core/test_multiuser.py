"""Unit tests for the multi-headset serving core."""

import math

import pytest

from repro import telemetry
from repro.core.multiuser import DEFAULT_PROBES_PER_SEARCH, MultiUserSystem
from repro.experiments.testbed import default_testbed
from repro.geometry.bodies import hand_occluder, person_blocking_path
from repro.geometry.mobility import PoseSample
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.budget import LinkMeasurement

FRAME_DT_S = 1.0 / 90.0


def make_multiuser(num_users, num_reflectors=1, seed=7):
    testbed = default_testbed(
        seed=seed, num_reflectors=num_reflectors, shadowing_sigma_db=0.0
    )
    return testbed, MultiUserSystem(testbed.system, num_users=num_users)


def clear_poses(n):
    """Poses with line of sight to the AP, spread along the far diagonal."""
    spots = [
        Vec2(3.0, 4.0),
        Vec2(4.0, 3.0),
        Vec2(2.5, 3.5),
        Vec2(3.5, 2.5),
        Vec2(2.0, 4.2),
        Vec2(4.2, 2.0),
    ]
    return [PoseSample(0.0, spots[i], -135.0) for i in range(n)]


class TestValidation:
    def test_needs_a_user(self):
        testbed = default_testbed(seed=1)
        with pytest.raises(ValueError):
            MultiUserSystem(testbed.system, num_users=0)

    def test_pose_count_must_match(self):
        _, mu = make_multiuser(2)
        with pytest.raises(ValueError):
            mu.step(0.0, clear_poses(1))


class TestReflectorContention:
    def _blocked_step(self, mu, testbed, poses, t_s):
        blockers = []
        for pose in poses:
            person = person_blocking_path(
                testbed.ap.position, pose.position, 0.5
            )
            blockers.extend(person.occluders())
        return mu.step(t_s, poses, extra_occluders=blockers)

    def test_two_blocked_users_one_reflector(self):
        """Two blocked users, one reflector: exactly one HANDOFF and
        exactly one contention event."""
        testbed, mu = make_multiuser(2, num_reflectors=1)
        poses = clear_poses(2)
        with telemetry.scope("t") as sc:
            first = mu.step(0.0, poses)
            assert all(d.mode == "los" for d in first.decisions)
            tick = self._blocked_step(mu, testbed, poses, FRAME_DT_S)
            kinds = [e.kind for e in sc.events]
        assert kinds.count(telemetry.EventKind.HANDOFF) == 1
        assert kinds.count(telemetry.EventKind.CONTENTION) == 1
        modes = sorted(d.mode for d in tick.decisions)
        assert "reflector" in modes
        winners = [d for d in tick.decisions if d.mode == "reflector"]
        losers = [d for d in tick.decisions if d.mode != "reflector"]
        assert len(winners) == 1 and winners[0].via == "movr0"
        assert len(losers) == 1 and losers[0].contended
        assert losers[0].via is None

    def test_contention_event_names_reflector_and_winner(self):
        testbed, mu = make_multiuser(2, num_reflectors=1)
        poses = clear_poses(2)
        with telemetry.scope("t") as sc:
            mu.step(0.0, poses)
            tick = self._blocked_step(mu, testbed, poses, FRAME_DT_S)
        contentions = [
            e for e in sc.events if e.kind is telemetry.EventKind.CONTENTION
        ]
        assert len(contentions) == 1
        fields = contentions[0].fields
        winner = next(d for d in tick.decisions if d.mode == "reflector")
        loser = next(d for d in tick.decisions if d.contended)
        assert fields["reflector"] == "movr0"
        assert fields["winner"] == winner.user
        assert fields["user"] == loser.user

    def test_two_reflectors_no_contention(self):
        testbed, mu = make_multiuser(2, num_reflectors=2)
        poses = clear_poses(2)
        with telemetry.scope("t") as sc:
            mu.step(0.0, poses)
            tick = self._blocked_step(mu, testbed, poses, FRAME_DT_S)
        kinds = [e.kind for e in sc.events]
        assert kinds.count(telemetry.EventKind.CONTENTION) == 0
        vias = {d.via for d in tick.decisions if d.mode == "reflector"}
        assert len(vias) == 2  # each user won a different reflector

    def test_first_tick_emits_no_handoff(self):
        _, mu = make_multiuser(2)
        with telemetry.scope("t") as sc:
            mu.step(0.0, clear_poses(2))
        assert not [
            e for e in sc.events if e.kind is telemetry.EventKind.HANDOFF
        ]

    def test_reset_forgets_serving_state(self):
        testbed, mu = make_multiuser(2)
        poses = clear_poses(2)
        mu.step(0.0, poses)
        self._blocked_step(mu, testbed, poses, FRAME_DT_S)
        mu.reset_link_state()
        with telemetry.scope("t") as sc:
            self._blocked_step(mu, testbed, poses, 2 * FRAME_DT_S)
        # Fresh session: first decision, no transition memory.
        assert not [
            e for e in sc.events if e.kind is telemetry.EventKind.HANDOFF
        ]


class TestMutualBlockage:
    def test_other_player_blocks_the_path(self):
        testbed, mu = make_multiuser(2)
        far = PoseSample(0.0, Vec2(4.0, 4.0), -135.0)
        # User 1 stands on user 0's AP line; their torso occludes it.
        midpoint = PoseSample(0.0, Vec2(2.15, 2.15), -135.0)
        tick = mu.step(0.0, [far, midpoint])
        blocked = tick.decisions[0]
        assert blocked.direct_snr_db < testbed.system.handoff_snr_db
        assert blocked.mode != "los"

    def test_clear_spacing_keeps_los(self):
        _, mu = make_multiuser(2)
        tick = mu.step(0.0, clear_poses(2))
        assert all(d.mode == "los" for d in tick.decisions)

    def test_own_body_not_in_own_scene(self):
        _, mu = make_multiuser(1)
        occluders = mu.mutual_occluders(0, clear_poses(1))
        assert occluders == []

    def test_each_user_sees_all_other_bodies(self):
        _, mu = make_multiuser(3, num_reflectors=1)
        occluders = mu.mutual_occluders(0, clear_poses(3))
        # Two other players, two circles (torso + head) each.
        assert len(occluders) == 4


class TestAirtimeSharing:
    def test_frame_loss_grows_with_n(self):
        losses = {}
        for n in (1, 4):
            _, mu = make_multiuser(n)
            poses = clear_poses(n)
            mu.step(0.0, poses)  # acquisition tick (probes everywhere)
            tick = mu.step(FRAME_DT_S, poses)  # steady state
            losses[n] = tick.window.frames_lost
        assert losses[1] == 0
        assert losses[4] > losses[1]

    def test_searches_cost_probe_airtime(self):
        _, mu = make_multiuser(2)
        poses = clear_poses(2)
        first = mu.step(0.0, poses)  # every user acquires: N searches
        assert first.window.probe_time_s == pytest.approx(
            2 * DEFAULT_PROBES_PER_SEARCH * mu.scheduler.probe_time_s
        )
        steady = mu.step(FRAME_DT_S, poses)  # nothing changed: no probes
        assert steady.window.probe_time_s == 0.0


class TestQoeSeries:
    def test_per_user_and_aggregate_series_recorded(self):
        _, mu = make_multiuser(2)
        poses = clear_poses(2)
        with telemetry.scope("t") as sc:
            for k in range(3):
                mu.step(k * FRAME_DT_S, poses)
        names = sc.registry.series_names()
        for expected in (
            "user0.rate.mbps",
            "user1.rate.mbps",
            "user0.rate.snr_db",
            "user0.mode_code",
            "users.worst.rate_mbps",
            "users.mean.rate_mbps",
            "users.frame_loss_fraction",
        ):
            assert expected in names, f"missing {expected} in {names}"

    def test_worst_user_is_min_of_users(self):
        _, mu = make_multiuser(3)
        poses = clear_poses(3)
        with telemetry.scope("t") as sc:
            mu.step(0.0, poses)
        worst = sc.registry.get_series("users.worst.rate_mbps").points()[-1][1]
        mean = sc.registry.get_series("users.mean.rate_mbps").points()[-1][1]
        rates = [a.current_rate_mbps for a in mu.adapters]
        assert worst == pytest.approx(min(rates))
        assert mean == pytest.approx(sum(rates) / len(rates))
        assert worst <= mean

    def test_per_user_slos_discovered(self):
        from repro.telemetry.slo import evaluate_scope, per_user_slos

        _, mu = make_multiuser(2)
        poses = clear_poses(2)
        with telemetry.scope("t") as sc:
            # Enough span for a 10 s SLO window at min_samples=2.
            for k in range(5):
                mu.step(k * 3.0, poses)
            specs = per_user_slos(sc)
            names = {spec.name for spec in specs}
            assert names == {
                "user0-time-below-required-rate",
                "user1-time-below-required-rate",
            }
            results = evaluate_scope(sc, emit=False)
        evaluated = {r.spec.name for r in results}
        assert "user0-time-below-required-rate" in evaluated
        assert "worst-user-rate" in evaluated


class TestSharedServingCore:
    """One headset in a room is served exactly as ``decide`` serves it."""

    def test_one_user_step_matches_decide(self):
        testbed, mu = make_multiuser(1)
        pose = clear_poses(1)[0]
        hand = hand_occluder(
            pose.position, bearing_deg(pose.position, testbed.ap.position)
        )
        tick = mu.step(0.0, [pose], extra_occluders=[hand])
        solo = testbed.system.decide(mu.headset_radio(0, pose), [hand])
        stepped = tick.decisions[0]
        assert solo.mode == stepped.mode == "reflector"
        assert stepped.via == solo.via == "movr0"
        assert stepped.snr_db == solo.snr_db
        assert stepped.direct_snr_db == solo.direct_snr_db

    def test_undecodable_direct_path_is_not_connected(self, monkeypatch):
        """Below the control PHY, a direct path that clears a very low
        handoff threshold is an outage, not a connected ``los``."""
        testbed, mu = make_multiuser(1)
        system = testbed.system
        monkeypatch.setattr(system, "handoff_snr_db", -30.0)
        monkeypatch.setattr(
            system,
            "direct_link",
            lambda *a, **k: LinkMeasurement(-70.0, -20.0, None, 0.0, 0.0),
        )
        decision = mu.step(0.0, clear_poses(1)).decisions[0]
        assert decision.rate_mbps == 0.0
        assert decision.mode == "outage"
        assert not decision.connected
