"""Unit tests for pose-assisted beam tracking (section 6 extension)."""

import numpy as np
import pytest

from repro.core.tracking import PoseAssistedTracker
from repro.geometry.vectors import Vec2


def gaussian_beam_snr(true_bearing_deg, peak_snr=30.0, beamwidth=10.0):
    """A batched SNR probe peaking when the beam points at the true
    bearing."""

    def probe(angle_deg: np.ndarray) -> np.ndarray:
        offset = (angle_deg - true_bearing_deg + 180.0) % 360.0 - 180.0
        return peak_snr - 3.0 * (2.0 * offset / beamwidth) ** 2

    return probe


class TestPrediction:
    def test_predicts_exact_bearing(self):
        tracker = PoseAssistedTracker(anchor_position=Vec2(0, 0))
        assert tracker.predict_angle_deg(Vec2(1, 1)) == pytest.approx(45.0)

    def test_good_prediction_costs_one_probe(self):
        tracker = PoseAssistedTracker(anchor_position=Vec2(0, 0))
        target = Vec2(3, 0)
        probe = gaussian_beam_snr(0.0)
        update = tracker.update(0.0, target, probe)
        assert update.mode == "predict"
        assert update.probes_used == 1
        assert update.refined_angle_deg == pytest.approx(0.0)


class TestRefinement:
    def test_refines_when_snr_degrades(self):
        tracker = PoseAssistedTracker(
            anchor_position=Vec2(0, 0), refine_span_deg=16.0
        )
        # Establish a healthy reference.
        tracker.update(0.0, Vec2(3, 0), gaussian_beam_snr(0.0))
        # The true beam direction shifts (e.g. a strong reflection
        # serves better than geometry): prediction is now 8 deg off.
        update = tracker.update(1.0, Vec2(3, 0), gaussian_beam_snr(8.0))
        assert update.mode in ("refine", "full-search")
        assert update.probes_used > 1
        assert abs(update.refined_angle_deg - 8.0) <= 4.0

    def test_full_search_on_severe_mismatch(self):
        tracker = PoseAssistedTracker(
            anchor_position=Vec2(0, 0), refine_span_deg=6.0
        )
        tracker.update(0.0, Vec2(3, 0), gaussian_beam_snr(0.0))
        update = tracker.update(1.0, Vec2(3, 0), gaussian_beam_snr(30.0))
        assert update.mode == "full-search"
        assert abs(update.refined_angle_deg - 30.0) <= 2.0

    def test_reference_rebaselines_after_permanent_change(self):
        tracker = PoseAssistedTracker(anchor_position=Vec2(0, 0))
        tracker.update(0.0, Vec2(3, 0), gaussian_beam_snr(0.0, peak_snr=35.0))
        # The channel permanently worsens by 10 dB; after enough
        # updates the tracker accepts the new normal and stops
        # re-searching every step.
        weak = gaussian_beam_snr(0.0, peak_snr=25.0)
        for i in range(1, 40):
            update = tracker.update(float(i), Vec2(3, 0), weak)
        assert update.mode == "predict"


class TestBatchedProbe:
    def test_every_probe_call_is_a_grid(self):
        calls = []
        inner = gaussian_beam_snr(30.0)

        def probe(angles):
            calls.append(np.shape(angles))
            return inner(angles)

        tracker = PoseAssistedTracker(
            anchor_position=Vec2(0, 0), refine_span_deg=6.0
        )
        tracker.update(0.0, Vec2(3, 0), gaussian_beam_snr(0.0))
        update = tracker.update(1.0, Vec2(3, 0), probe)
        assert update.mode == "full-search"
        # One verifying probe, one 7-entry refine, one 101-entry search.
        assert calls == [(1,), (7,), (101,)]
        assert update.probes_used == 1 + 7 + 101

    def test_nan_probes_unusable(self):
        inner = gaussian_beam_snr(8.0)
        tracker = PoseAssistedTracker(
            anchor_position=Vec2(0, 0), refine_span_deg=16.0
        )
        tracker.update(0.0, Vec2(3, 0), gaussian_beam_snr(0.0))
        # The beam at the true bearing is an unusable probe.
        update = tracker.update(
            1.0, Vec2(3, 0), lambda a: np.where(np.isclose(a, 8.0), np.nan, inner(a))
        )
        assert update.mode == "refine"
        assert update.refined_angle_deg in (pytest.approx(7.0), pytest.approx(9.0))


class TestStats:
    def test_accounting(self):
        tracker = PoseAssistedTracker(anchor_position=Vec2(0, 0))
        tracker.update(0.0, Vec2(3, 0), gaussian_beam_snr(0.0))
        tracker.update(1.0, Vec2(3, 0), gaussian_beam_snr(9.0))
        stats = tracker.stats
        assert stats.updates == 2
        assert stats.probes >= 2
        assert stats.refines + stats.full_searches >= 1

    def test_current_angle_tracks(self):
        tracker = PoseAssistedTracker(anchor_position=Vec2(0, 0))
        assert tracker.current_angle_deg is None
        tracker.update(0.0, Vec2(0, 3), gaussian_beam_snr(90.0))
        assert tracker.current_angle_deg == pytest.approx(90.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            PoseAssistedTracker(Vec2(0, 0), refine_span_deg=0.0)
        with pytest.raises(ValueError):
            PoseAssistedTracker(Vec2(0, 0), snr_degrade_db=-1.0)
