"""Shared helper for the reservoir property tests.

:class:`~repro.telemetry.TimeSeries` is a
:class:`~repro.telemetry.Histogram` whose samples carry timestamps, so
the reservoir properties (exact aggregates under decimation,
deterministic decimation, pure and associative merge) run over both
types through one feeding helper.
"""

import pytest

from repro.telemetry import TimeSeries


def _feed(reservoir, values):
    """Record ``values`` in order; a series stamps them ``t = count``."""
    for v in values:
        if isinstance(reservoir, TimeSeries):
            reservoir.sample(float(reservoir.count), v)
        else:
            reservoir.record(v)
    return reservoir


@pytest.fixture(scope="session")
def feed():
    return _feed
