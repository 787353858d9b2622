"""Property tests for the bounded reservoir.

The histogram's contract (module docstring of
``repro.telemetry.instruments``) is pinned here with hypothesis:
quantiles are *exact* — equal to ``numpy.percentile`` over the raw
stream — until the stream outgrows the reservoir, and ``merge`` is a
pure combination that is associative under the cap and never leaves
the reservoir at or over it.  The merge properties run over both
reservoir types, :class:`Histogram` and :class:`TimeSeries`.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.telemetry import Histogram, TimeSeries

# Bounded magnitude so exact aggregates (total) cannot overflow.
finite_floats = st.floats(
    min_value=-1e9, max_value=1e9, allow_nan=False, allow_infinity=False
)
streams = st.lists(finite_floats, min_size=1, max_size=300)
reservoir_kinds = st.sampled_from([Histogram, TimeSeries])


class TestHistogramQuantiles:
    @given(values=streams, q=st.sampled_from([0.0, 0.1, 0.5, 0.9, 0.95, 0.99, 1.0]))
    @settings(max_examples=200, deadline=None)
    def test_quantile_matches_numpy_on_raw_stream(self, feed, values, q):
        # While count < max_samples the reservoir IS the stream, so
        # the histogram's quantile must equal numpy's on the raw data.
        h = feed(Histogram("h"), values)
        assert h.quantile(q) == pytest.approx(
            float(np.percentile(values, 100.0 * q)), rel=0, abs=0
        )

    @given(values=streams)
    @settings(max_examples=100, deadline=None)
    def test_exact_aggregates(self, feed, values):
        h = feed(Histogram("h"), values)
        assert h.count == len(values)
        assert h.minimum == min(values)
        assert h.maximum == max(values)
        assert h.mean == pytest.approx(sum(values) / len(values))

    def test_rejects_non_finite(self):
        h = Histogram("h")
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                h.record(bad)

    def test_empty_quantile_raises(self):
        with pytest.raises(ValueError):
            Histogram("h").quantile(0.5)

    def test_summary_keys(self, feed):
        s = feed(Histogram("h"), [1.0, 2.0, 3.0]).summary()
        assert set(s) == {"count", "mean", "min", "max", "p50", "p95", "p99"}
        assert s["count"] == 3
        assert s["p50"] == 2.0


class TestHistogramBoundedMemory:
    def test_reservoir_stays_bounded(self):
        h = Histogram("h", max_samples=64)
        n = 64 * 50
        for i in range(n):
            h.record(float(i))
        assert len(h.samples) < 64
        # Exact aggregates still cover the whole stream.
        assert h.count == n
        assert h.minimum == 0.0
        assert h.maximum == float(n - 1)

    def test_decimated_quantiles_stay_in_range(self):
        h = Histogram("h", max_samples=32)
        rng = np.random.default_rng(7)
        data = rng.normal(10.0, 2.0, size=5000)
        for v in data:
            h.record(float(v))
        for q in (0.05, 0.5, 0.95):
            assert h.minimum <= h.quantile(q) <= h.maximum
        # Decimation keeps coverage: the median estimate should stay
        # in the bulk of a well-behaved distribution.
        assert abs(h.quantile(0.5) - float(np.median(data))) < 1.0


class TestHistogramMerge:
    @given(kind=reservoir_kinds, a=streams, b=streams, c=streams)
    @settings(max_examples=100, deadline=None)
    def test_merge_is_associative(self, feed, kind, a, b, c):
        ra, rb, rc = feed(kind("r"), a), feed(kind("r"), b), feed(kind("r"), c)
        left = ra.merge(rb).merge(rc)
        right = ra.merge(rb.merge(rc))
        assert left.count == right.count == len(a) + len(b) + len(c)
        assert left.minimum == right.minimum
        assert left.maximum == right.maximum
        assert left.total == pytest.approx(right.total)
        # Under the cap reservoirs concatenate, so the retained
        # samples agree exactly.
        assert left.samples == right.samples == a + b + c

    @given(kind=reservoir_kinds, a=streams, b=streams)
    @settings(max_examples=100, deadline=None)
    def test_merge_is_pure(self, feed, kind, a, b):
        ra, rb = feed(kind("r"), a), feed(kind("r"), b)
        merged = ra.merge(rb)
        assert type(merged) is kind
        assert merged.count == len(a) + len(b)
        # Recording into the merge result must not reach the operands.
        feed(merged, [0.0])
        assert ra.count == len(a) and ra.samples == a
        assert rb.count == len(b) and rb.samples == b

    @given(
        kind=reservoir_kinds,
        parts=st.lists(
            st.lists(finite_floats, min_size=1, max_size=40), min_size=1, max_size=12
        ),
    )
    @settings(max_examples=100, deadline=None)
    def test_merge_keeps_the_reservoir_under_its_cap(self, feed, kind, parts):
        # A parent scope folds in one child per exit; however many it
        # absorbs, its reservoir must stay bounded like a recorded one.
        merged = kind("r", 16)
        for part in parts:
            merged = merged.merge(feed(kind("r", 16), part))
        values = [v for part in parts for v in part]
        assert 0 < len(merged.samples) < 16
        assert merged.count == len(values)
        assert merged.minimum == min(values)
        assert merged.maximum == max(values)
        assert merged.total == pytest.approx(sum(values))

    @given(a=streams, b=streams, q=st.sampled_from([0.25, 0.5, 0.95]))
    @settings(max_examples=100, deadline=None)
    def test_merged_quantiles_match_numpy_on_combined_stream(self, feed, a, b, q):
        merged = feed(Histogram("h"), a).merge(feed(Histogram("h"), b))
        assert merged.quantile(q) == pytest.approx(
            float(np.percentile(a + b, 100.0 * q))
        )
