"""TimeSeries: cadence gate, decimation invariants, merge algebra.

The hypothesis properties pin the contract the SLO layer leans on:
exact aggregates (count/min/max/mean) survive decimation *exactly*,
the reservoir stays bounded, decimation is deterministic, and merging
split streams loses nothing.  The decimation properties belong to the
reservoir a series shares with :class:`Histogram`, so they run over
both types.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.telemetry import Histogram, TimeSeries
from repro.utils.exactmath import left_sum

finite_values = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
reservoir_kinds = st.sampled_from([Histogram, TimeSeries])


class TestCadenceGate:
    def test_rejects_faster_than_interval(self):
        series = TimeSeries("s", min_interval_s=0.005)
        assert series.sample(0.0, 1.0)
        assert not series.sample(0.001, 2.0)
        assert not series.sample(0.0049, 3.0)
        assert series.sample(0.005, 4.0)
        assert series.count == 2

    def test_backwards_time_reopens_gate(self):
        # Multi-session experiments restart their clock at zero; the
        # gate must not swallow the second session.
        series = TimeSeries("s", min_interval_s=0.005)
        assert series.sample(10.0, 1.0)
        assert series.sample(0.0, 2.0)
        assert series.count == 2

    def test_zero_interval_accepts_everything(self):
        series = TimeSeries("s", min_interval_s=0.0)
        for i in range(10):
            assert series.sample(0.0, float(i))
        assert series.count == 10

    def test_non_finite_rejected_loudly(self):
        series = TimeSeries("s")
        with pytest.raises(ValueError):
            series.sample(math.nan, 1.0)
        with pytest.raises(ValueError):
            series.sample(0.0, math.inf)


class TestDecimation:
    @given(reservoir_kinds, st.lists(finite_values, min_size=1, max_size=500))
    @settings(max_examples=200, deadline=None)
    def test_aggregates_exact_under_decimation(self, feed, kind, values):
        reservoir = feed(kind("s", 16), values)
        assert reservoir.count == len(values)
        assert reservoir.minimum == min(values)
        assert reservoir.maximum == max(values)
        assert reservoir.total == left_sum(values)
        assert reservoir.mean == pytest.approx(sum(values) / len(values))
        assert 0 < reservoir.retained < 16
        if kind is TimeSeries:
            assert reservoir.first_t_s == 0.0
            assert reservoir.last_t_s == float(len(values) - 1)

    @given(reservoir_kinds, st.lists(finite_values, min_size=1, max_size=300))
    @settings(max_examples=100, deadline=None)
    def test_decimation_is_deterministic(self, feed, kind, values):
        first, second = feed(kind("s", 8), values), feed(kind("s", 8), values)
        assert first.samples == second.samples
        if kind is TimeSeries:
            assert first.points() == second.points()

    def test_retained_points_are_a_subsequence(self):
        series = TimeSeries("s", 32)
        for i in range(1000):
            series.sample(float(i), float(i))
        kept = series.points()
        assert len(kept) <= 32
        # Every retained sample is genuine (value == time here), and
        # times are strictly increasing.
        times = [t for t, _ in kept]
        assert times == sorted(times)
        assert all(t == v for t, v in kept)

    def test_quantiles_survive_decimation_within_tolerance(self):
        rng = np.random.default_rng(2016)
        values = rng.normal(10.0, 3.0, size=50_000)
        series = TimeSeries("s", 256)
        for i, v in enumerate(values):
            series.sample(i * 0.001, float(v))
        kept = np.array([v for _, v in series.points()])
        assert len(kept) <= 256
        # Deterministic decimation of an i.i.d. stream is an unbiased
        # subsample; a third of a standard deviation bounds the
        # deciles-through-p99 drift at this reservoir size.
        for q in (10, 50, 90, 99):
            assert np.percentile(kept, q) == pytest.approx(
                np.percentile(values, q), abs=1.0
            )


class TestMerge:
    @given(
        st.lists(
            st.tuples(
                st.floats(min_value=0.0, max_value=100.0, allow_nan=False),
                finite_values,
            ),
            min_size=1,
            max_size=200,
        ),
        st.data(),
    )
    @settings(max_examples=100, deadline=None)
    def test_split_then_merge_equals_unsplit(self, points, data):
        cut = data.draw(st.integers(min_value=0, max_value=len(points)))
        full = TimeSeries("s")
        for t, v in points:
            full.sample(t, v)
        left, right = TimeSeries("s"), TimeSeries("s")
        for t, v in points[:cut]:
            left.sample(t, v)
        for t, v in points[cut:]:
            right.sample(t, v)
        merged = left.merge(right)
        assert merged.count == full.count
        assert merged.total == pytest.approx(full.total)
        assert merged.minimum == full.minimum
        assert merged.maximum == full.maximum
        assert merged.first_t_s == full.first_t_s
        assert merged.last_t_s == full.last_t_s
        # Under the default capacity nothing decimates, so the merged
        # reservoir is the full multiset of samples.
        assert sorted(merged.points()) == sorted(full.points())

    def test_merge_is_pure(self):
        a, b = TimeSeries("s"), TimeSeries("s")
        a.sample(0.0, 1.0)
        b.sample(1.0, 2.0)
        merged = a.merge(b)
        assert merged.count == 2
        assert a.count == 1 and b.count == 1
        merged.sample(2.0, 3.0)
        assert a.count == 1 and b.count == 1


class TupleReservoir:
    """Reference reservoir: ``(t, value)`` tuples in a list, decimated
    and merged by the rule the flat columns implement."""

    def __init__(self, max_samples):
        self.max_samples = max_samples
        self.kept = []
        self.stride = 1
        self.phase = 0

    def add(self, entry):
        if self.phase == 0:
            self.kept.append(entry)
            self.decimate()
        self.phase = (self.phase + 1) % self.stride

    def decimate(self):
        while len(self.kept) >= self.max_samples:
            self.kept = self.kept[::2]
            self.stride *= 2

    def merge(self, other):
        out = TupleReservoir(max(self.max_samples, other.max_samples))
        out.kept = self.kept + other.kept
        out.stride = max(self.stride, other.stride)
        out.decimate()
        return out


class TestFlatReservoirMatchesTupleReference:
    """The flat ``array('d')`` columns keep exactly the samples, in the
    same order, that a list of ``(t, value)`` tuples kept."""

    streams = st.lists(
        st.tuples(st.floats(min_value=-10.0, max_value=100.0), finite_values),
        max_size=120,
    )

    @staticmethod
    def fill(points, max_samples):
        series = TimeSeries("s", max_samples=max_samples)
        histogram = Histogram("h", max_samples=max_samples)
        reference = TupleReservoir(max_samples)
        for t, v in points:
            series.sample(t, v)
            histogram.record(v)
            reference.add((t, v))
        return series, histogram, reference

    @staticmethod
    def check(series, histogram, reference):
        values = [v for _, v in reference.kept]
        assert series.samples == values
        assert histogram.samples == values
        assert series.retained == histogram.retained == len(values)
        by_time = sorted(reference.kept, key=lambda p: p[0])
        assert series.points() == by_time
        assert series.to_dict()["points"] == [[t, v] for t, v in by_time]
        if values:
            for q in (0.0, 0.5, 0.95, 1.0):
                expected = float(np.percentile(values, 100.0 * q))
                assert series.quantile(q) == histogram.quantile(q) == expected

    @given(streams, streams, st.integers(min_value=2, max_value=16))
    @settings(max_examples=100, deadline=None)
    def test_decimation_and_merge(self, left, right, max_samples):
        a_series, a_hist, a_ref = self.fill(left, max_samples)
        self.check(a_series, a_hist, a_ref)
        b_series, b_hist, b_ref = self.fill(right, max_samples)
        merged_ref = a_ref.merge(b_ref)
        self.check(a_series.merge(b_series), a_hist.merge(b_hist), merged_ref)
        # The merge is pure: both operands still match their references.
        self.check(a_series, a_hist, a_ref)
        self.check(b_series, b_hist, b_ref)


class TestScopeIntegration:
    def test_sample_helper_records_in_active_scope(self):
        with telemetry.scope("t") as sc:
            assert telemetry.sample("x", 0.0, 1.0)
            assert not telemetry.sample("x", 0.001, 2.0)  # default gate
            series = sc.registry.get_series("x")
            assert series is not None
            assert series.count == 1

    def test_snapshot_contains_series_summary(self):
        with telemetry.scope("t") as sc:
            telemetry.sample("x", 0.0, 1.0)
            telemetry.sample("x", 1.0, 3.0)
            snap = sc.registry.snapshot()
        assert snap["series"]["x"]["count"] == 2
        assert snap["series"]["x"]["min"] == 1.0
        assert snap["series"]["x"]["max"] == 3.0
