"""Unit tests for beam codebooks and searches."""

import math

import numpy as np
import pytest

from repro.link.beams import (
    DEFAULT_PROBE_TIME_S,
    Codebook,
    SweepResult,
    exhaustive_joint_sweep,
    single_sided_sweep,
)


def planted_peak_metric(peak_tx: float, peak_rx: float, width: float = 8.0):
    """A smooth unimodal metric peaking at (peak_tx, peak_rx), evaluated
    over broadcast angle grids."""

    def metric(tx: np.ndarray, rx: np.ndarray) -> np.ndarray:
        return -((tx - peak_tx) ** 2 + (rx - peak_rx) ** 2) / width

    return metric


class TestCodebook:
    def test_uniform_inclusive(self):
        cb = Codebook.uniform(40.0, 140.0, 1.0)
        assert len(cb) == 101
        assert cb.angles_deg[0] == 40.0
        assert cb.angles_deg[-1] == 140.0

    def test_uniform_validation(self):
        with pytest.raises(ValueError):
            Codebook.uniform(0.0, 10.0, 0.0)
        with pytest.raises(ValueError):
            Codebook.uniform(10.0, 0.0, 1.0)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            Codebook(angles_deg=())

    @pytest.mark.parametrize(
        "start, stop, step, count, last",
        [
            (0.0, 10.0, 6.0, 2, 6.0),
            (40.0, 140.0, 6.0, 17, 136.0),
            (-15.0, 105.0, 5.5, 22, 100.5),
        ],
    )
    def test_uniform_never_passes_stop(self, start, stop, step, count, last):
        cb = Codebook.uniform(start, stop, step)
        assert len(cb) == count
        assert cb.angles_deg[-1] == pytest.approx(last)
        assert cb.angles_deg[-1] <= stop

    @pytest.mark.parametrize(
        "start, stop, step, count",
        [
            (0.0, 0.3, 0.1, 4),
            (0.0, 1.0, 0.1, 11),
            (-60.0, 60.0, 1.0, 121),
            (2.2, 2.9, 0.7, 2),
        ],
    )
    def test_uniform_keeps_endpoint_of_exact_spans(self, start, stop, step, count):
        cb = Codebook.uniform(start, stop, step)
        assert len(cb) == count
        assert cb.angles_deg[-1] == pytest.approx(stop)

    def test_nearest(self):
        cb = Codebook.uniform(0.0, 10.0, 2.0)
        assert cb.nearest(5.1) == 6.0
        assert cb.nearest(-3.0) == 0.0


class TestExhaustiveSweep:
    def test_finds_planted_peak(self):
        tx_cb = Codebook.uniform(0.0, 100.0, 1.0)
        rx_cb = Codebook.uniform(0.0, 100.0, 1.0)
        result = exhaustive_joint_sweep(tx_cb, rx_cb, planted_peak_metric(37.0, 61.0))
        assert result.best_tx_deg == 37.0
        assert result.best_rx_deg == 61.0
        assert result.num_probes == 101 * 101

    def test_metric_called_once_with_the_grid(self):
        calls = []

        def metric(tx, rx):
            calls.append((tx.shape, rx.shape))
            return planted_peak_metric(5.0, 5.0)(tx, rx)

        tx_cb = Codebook.uniform(0.0, 10.0, 5.0)
        rx_cb = Codebook.uniform(0.0, 20.0, 5.0)
        result = exhaustive_joint_sweep(tx_cb, rx_cb, metric)
        assert calls == [((3, 1), (1, 5))]
        assert result.num_probes == len(tx_cb) * len(rx_cb)
        assert result.best_metric == 0.0

    def test_nan_probes_unusable(self):
        def metric(tx, rx):
            # The true peak at (5, 5) is an unstable probe.
            values = planted_peak_metric(5.0, 5.0)(tx, rx)
            return np.where((tx == 5.0) & (rx == 5.0), np.nan, values)

        cb = Codebook.uniform(0.0, 10.0, 5.0)
        result = exhaustive_joint_sweep(cb, cb, metric)
        assert not math.isnan(result.best_metric)
        assert (result.best_tx_deg, result.best_rx_deg) != (5.0, 5.0)
        assert result.best_metric == -25.0 / 8.0
        assert result.num_probes == 9

    def test_nothing_usable_reports_first_entries(self):
        tx_cb = Codebook.uniform(10.0, 20.0, 5.0)
        rx_cb = Codebook.uniform(40.0, 60.0, 10.0)
        result = exhaustive_joint_sweep(
            tx_cb, rx_cb, lambda tx, rx: np.full((3, 3), np.nan)
        )
        assert (result.best_tx_deg, result.best_rx_deg) == (10.0, 40.0)
        assert result.best_metric == -math.inf
        assert result.num_probes == 9

    def test_scalar_metric_broadcasts(self):
        cb = Codebook.uniform(0.0, 10.0, 5.0)
        result = exhaustive_joint_sweep(cb, cb, lambda tx, rx: 1.0)
        assert result.num_probes == 9
        assert (result.best_tx_deg, result.best_rx_deg) == (0.0, 0.0)

    def test_sweep_time(self):
        result = SweepResult(0.0, 0.0, 0.0, num_probes=1000)
        assert result.search_time_s() == pytest.approx(1000 * DEFAULT_PROBE_TIME_S)


class TestSingleSidedSweep:
    def test_finds_peak(self):
        cb = Codebook.uniform(0.0, 100.0, 1.0)
        angle, value, probes = single_sided_sweep(cb, lambda a: -np.abs(a - 33.0))
        assert angle == 33.0
        assert value == 0.0
        assert probes == 101

    def test_probe_count_matches_codebook(self):
        cb = Codebook.uniform(0.0, 10.0, 2.0)
        _, _, probes = single_sided_sweep(cb, lambda a: a)
        assert probes == len(cb)

    def test_nan_probes_unusable(self):
        cb = Codebook.uniform(0.0, 10.0, 1.0)
        angle, value, probes = single_sided_sweep(
            cb, lambda a: np.where(a == 4.0, np.nan, -np.abs(a - 4.0))
        )
        assert angle in (3.0, 5.0)
        assert value == -1.0
        assert probes == len(cb)

    def test_nothing_usable_reports_first_entry(self):
        cb = Codebook.uniform(7.0, 10.0, 1.0)
        angle, value, probes = single_sided_sweep(
            cb, lambda a: np.full(a.shape, np.nan)
        )
        assert (angle, value, probes) == (7.0, -math.inf, 4)
