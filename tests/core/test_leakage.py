"""Unit tests for the reflector TX-to-RX leakage model (Fig. 7)."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro import telemetry
from repro.core.leakage import MAX_ANGLE_DEG, MIN_ANGLE_DEG, ReflectorLeakageModel
from repro.utils.db import db_sum_powers

angles = st.floats(min_value=MIN_ANGLE_DEG, max_value=MAX_ANGLE_DEG)


@pytest.fixture(scope="module")
def model():
    return ReflectorLeakageModel()


class TestLeakageValues:
    def test_fig7_range(self, model):
        """All leakage values live in the paper's -80..-50 dB window."""
        grid = np.arange(MIN_ANGLE_DEG, MAX_ANGLE_DEG + 1, 5.0)
        values = [model.leakage_db(tx, rx) for tx in grid for rx in grid]
        assert min(values) >= -85.0
        assert max(values) <= -45.0

    def test_fig7_swing(self, model):
        """Leakage varies strongly (paper: up to ~20 dB) with TX angle."""
        curve = model.leakage_curve(rx_angle_deg=50.0)
        swing = curve[:, 1].max() - curve[:, 1].min()
        assert swing >= 8.0

    def test_rx_angle_changes_curve(self, model):
        a = model.leakage_curve(50.0)[:, 1]
        b = model.leakage_curve(65.0)[:, 1]
        assert np.max(np.abs(a - b)) >= 2.0

    def test_board_isolation_floor(self, model):
        grid = np.arange(MIN_ANGLE_DEG, MAX_ANGLE_DEG + 1, 2.0)
        values = [model.leakage_db(tx, 50.0) for tx in grid]
        assert min(values) >= -model.board_isolation_db - 1.0

    def test_angle_domain_enforced(self, model):
        with pytest.raises(ValueError):
            model.leakage_db(30.0, 90.0)
        with pytest.raises(ValueError):
            model.leakage_db(90.0, 150.0)

    @settings(max_examples=30, deadline=None)
    @given(angles, angles)
    def test_always_negative_coupling(self, tx, rx):
        model = ReflectorLeakageModel()
        assert model.leakage_db(tx, rx) < 0.0


class TestWorstCase:
    def test_worst_case_at_least_any_sample(self, model):
        worst = model.worst_case_leakage_db()
        for tx, rx in ((50.0, 50.0), (90.0, 90.0), (130.0, 70.0)):
            assert worst >= model.leakage_db(tx, rx) - 1e-9

    def test_worst_case_inside_fig7_window(self, model):
        assert -60.0 <= model.worst_case_leakage_db() <= -45.0


class TestCurve:
    def test_curve_shape(self, model):
        curve = model.leakage_curve(65.0, step_deg=1.0)
        assert curve.shape == (101, 2)
        assert curve[0, 0] == MIN_ANGLE_DEG
        assert curve[-1, 0] == MAX_ANGLE_DEG

    def test_configuration_validation(self):
        with pytest.raises(ValueError):
            ReflectorLeakageModel(board_isolation_db=0.0)
        with pytest.raises(ValueError):
            ReflectorLeakageModel(grazing_angle_deg=60.0)

    @pytest.mark.parametrize(
        "field, value",
        [("board_isolation_db", 40.0), ("grazing_angle_deg", 100.0)],
    )
    def test_fields_cannot_go_stale(self, field, value):
        """The arrays are built from the fields, so the fields are
        frozen; a changed model is a new, validated one."""
        model = ReflectorLeakageModel()
        tx, rx = [60.0, 90.0, 120.0], [90.0, 90.0, 90.0]
        before = model.leakage_db_pairs(tx, rx)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(model, field, value)
        assert getattr(model, field) != value
        assert model.leakage_db_pairs(tx, rx) == before


def scalar_leakage_db(model, tx, rx):
    """The one-pair coupling formula with one scalar pattern call per
    array: the reference the pairs form must reproduce bit for bit."""
    graze = model.grazing_angle_deg
    tx_rel = model._tx_array.relative_pattern_db(graze, steer_deg=tx)
    rx_rel = model._rx_array.relative_pattern_db(180.0 - graze, steer_deg=rx)
    over_air = -model.edge_diffraction_loss_db + tx_rel + rx_rel
    convergence = math.cos(math.radians(tx - rx))
    scatter = -model.scatterer_coupling_db + 4.0 * convergence
    return db_sum_powers([over_air, scatter, -model.board_isolation_db])


class TestPairsForm:
    """``leakage_db_pairs`` is the exact many-pair form of the scalar
    formula."""

    @pytest.fixture(scope="class")
    def pairs(self):
        rng = np.random.default_rng(2016)
        tx = rng.uniform(MIN_ANGLE_DEG, MAX_ANGLE_DEG, 10_000).tolist()
        rx = rng.uniform(MIN_ANGLE_DEG, MAX_ANGLE_DEG, 10_000).tolist()
        # The range ends, broadside and a repeated pair.
        tx += [MIN_ANGLE_DEG, MAX_ANGLE_DEG, 90.0, 90.0]
        rx += [MAX_ANGLE_DEG, MIN_ANGLE_DEG, 90.0, 90.0]
        return tx, rx

    def test_pairs_equal_the_scalar_formula(self, model, pairs):
        tx, rx = pairs
        expected = [scalar_leakage_db(model, a, b) for a, b in zip(tx, rx)]
        assert model.leakage_db_pairs(tx, rx) == expected
        assert [model.leakage_db(a, b) for a, b in zip(tx[:200], rx[:200])] == expected[:200]

    def test_two_kernel_calls_for_any_pair_count(self, model, pairs):
        tx, rx = pairs
        with telemetry.scope("pairs") as sc:
            model.leakage_db_pairs(tx[:7], rx[:7])
        assert sc.registry.counter_value("kernel.batches") == 2
        assert sc.registry.counter_value("kernel.angles") == 14

    def test_out_of_range_pair_rejected(self, model):
        with pytest.raises(ValueError):
            model.leakage_db_pairs([90.0, 30.0], [90.0, 90.0])
        with pytest.raises(ValueError):
            model.leakage_db_pairs([90.0], [150.0])

    @pytest.mark.parametrize(
        "tx, rx, message",
        [
            ([90.0, 30.0, 150.0], [90.0] * 3, "tx_angle_deg must be in [40.0, 140.0], got 30.0"),
            ([90.0, 141.0], [90.0, 90.0], "tx_angle_deg must be in [40.0, 140.0], got 141.0"),
            ([90.0, 90.0], [90.0, math.nan], "rx_angle_deg must be finite, got nan"),
            ([math.inf, 30.0], [90.0, 90.0], "tx_angle_deg must be finite, got inf"),
            ([90.0], [-math.inf], "rx_angle_deg must be finite, got -inf"),
        ],
    )
    def test_first_bad_angle_named(self, model, tx, rx, message):
        """Each angle list is checked in one pass; the error names the
        first value the per-value check refuses."""
        with pytest.raises(ValueError) as err:
            model.leakage_db_pairs(tx, rx)
        assert str(err.value) == message

    def test_edges_of_the_range_accepted(self, model):
        values = model.leakage_db_pairs([MIN_ANGLE_DEG, MAX_ANGLE_DEG], [MAX_ANGLE_DEG, MIN_ANGLE_DEG])
        assert values == [
            model.leakage_db(MIN_ANGLE_DEG, MAX_ANGLE_DEG),
            model.leakage_db(MAX_ANGLE_DEG, MIN_ANGLE_DEG),
        ]
