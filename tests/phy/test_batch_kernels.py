"""Property tests: batch kernels must match their scalar references.

The vectorized kernels behind the sweep API give, entry for entry, what
their scalar references give, bit for bit.  The references are the
scalar steering rules, ``PhasedArray.steer_to`` (scan clipping and phase
quantization) and ``MultiPanelArray`` panel selection, plus the scalar
``gain_dbi``, the leakage and the closed-loop gain; the batch kernels
merely evaluate many angles at once.  Only the array reduction of
``db_sum_powers`` is compared within a tolerance (see ``TOL_DB``).
Each public ``PhasedArray`` kernel entry point counts exactly one
``kernel.batches`` per call.
"""

import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from repro import telemetry
from repro.core.leakage import MAX_ANGLE_DEG, MIN_ANGLE_DEG, ReflectorLeakageModel
from repro.phy.amplifier import (
    closed_loop_gain_db,
    feedback_peaking_db,
    loop_is_stable,
)
from repro.core.reflector import REFLECTOR_ARRAY
from repro.phy.antenna import (
    MOVR_ARRAY,
    SMALL_ARRAY,
    MultiPanelArray,
    OmniAntenna,
    PhasedArray,
    PhasedArrayConfig,
    panel_gains_dbi,
)
from repro.utils.db import db_sum_powers
from repro.utils.units import angle_difference_deg, angle_difference_deg_batch

#: The array reduction of ``db_sum_powers`` adds with ``np.power``,
#: NumPy's pairwise ``sum`` and ufunc ``log10``, the list form with
#: ``10.0 **``, a running sum and ``math.log10``: they differ in the
#: last bit for a share of columns (6% of 4,000 random columns of 1-12
#: powers in [-200, 50] dB), so that comparison alone keeps a tolerance.
TOL_DB = 1e-9

azimuths = st.floats(min_value=-360.0, max_value=360.0, allow_nan=False)
angle_lists = st.lists(azimuths, min_size=1, max_size=8)


@st.composite
def arrays_and_angles(draw):
    boresight = draw(st.floats(min_value=-180.0, max_value=180.0))
    toward = draw(angle_lists)
    steer = draw(angle_lists)
    return boresight, toward, steer


class TestPhasedArrayBatch:
    @given(arrays_and_angles())
    @settings(max_examples=60, deadline=None)
    def test_gain_grid_matches_scalar(self, case):
        boresight, toward, steer = case
        array = PhasedArray(MOVR_ARRAY, boresight_deg=boresight)
        grid = array.gain_dbi_batch(
            np.asarray(toward)[:, None], np.asarray(steer)[None, :]
        )
        for i, t in enumerate(toward):
            for j, s in enumerate(steer):
                assert grid[i, j] == array.gain_dbi(t, steer_override_deg=s)

    @given(st.floats(min_value=-180.0, max_value=180.0), angle_lists)
    @example(-179.99999999999997, [-360.0])  # the difference rounds to +180
    @settings(max_examples=60, deadline=None)
    def test_steer_to_matches_scalar(self, boresight, targets):
        array = PhasedArray(MOVR_ARRAY, boresight_deg=boresight)
        batch = array.steer_to_batch(np.asarray(targets))
        for k, target in enumerate(targets):
            assert batch[k] == array.steer_to(target)

    @pytest.mark.parametrize("bits", [3, 4, 5, 6])
    def test_quantized_steering_matches_scalar(self, bits):
        """Every quantization level of a 50-degree scan, and the
        commands half way between levels, steer as ``steer_to`` does,
        bit for bit."""
        config = PhasedArrayConfig(max_scan_deg=50.0, phase_shifter_bits=bits)
        levels = 2**bits
        step = 2.0 * math.sin(math.radians(50.0)) / levels
        sines = [j * step / 2.0 for j in range(-levels, levels + 1)]
        targets = [math.degrees(math.asin(max(-1.0, min(1.0, s)))) for s in sines]
        for boresight in (0.0, 37.5, -150.0):
            array = PhasedArray(config, boresight_deg=boresight)
            commands = [boresight + t for t in targets]
            batch = array.steer_to_batch(np.asarray(commands)).tolist()
            assert batch == [array.steer_to(c) for c in commands]


KERNEL_CALLS = {
    "gain_dbi": lambda a: a.gain_dbi(10.0),
    "gain_dbi-override": lambda a: a.gain_dbi(10.0, steer_override_deg=25.0),
    "gain_dbi_batch": lambda a: a.gain_dbi_batch(
        np.linspace(-180.0, 180.0, 9)[:, None], np.linspace(-60.0, 60.0, 4)[None, :]
    ),
    "relative_pattern_db": lambda a: a.relative_pattern_db(10.0, 25.0),
    "relative_pattern_db_batch": lambda a: a.relative_pattern_db_batch(
        np.linspace(-180.0, 180.0, 9), 25.0
    ),
    "pattern": lambda a: a.pattern(0.0, resolution_deg=10.0),
}


class TestKernelBatchCount:
    """Traced benchmark runs count one batch per kernel entry point, so
    no entry point may reach the kernel twice or through another."""

    @pytest.mark.parametrize("entry", sorted(KERNEL_CALLS))
    def test_one_batch_per_call(self, entry):
        array = PhasedArray(MOVR_ARRAY, boresight_deg=30.0)
        with telemetry.scope("kernel") as sc:
            KERNEL_CALLS[entry](array)
        assert sc.registry.counter_value("kernel.batches") == 1


#: Offsets from boresight: anywhere, or within a hair of the back of
#: the array, where the scalar and batch angle wraps part (180 vs -180).
offsets = st.floats(min_value=-180.0, max_value=180.0) | st.builds(
    lambda side, hair: side + hair,
    st.sampled_from([180.0, -180.0]),
    st.floats(min_value=-1e-9, max_value=1e-9),
)


@st.composite
def mounted_elements(draw):
    """Per element: a boresight, a target and a steering given as
    offsets from that boresight."""
    n = draw(st.integers(min_value=1, max_value=8))
    boresights = draw(st.lists(st.floats(-360.0, 360.0), min_size=n, max_size=n))
    toward = draw(st.lists(offsets, min_size=n, max_size=n))
    steer = draw(st.lists(offsets, min_size=n, max_size=n))
    return (
        boresights,
        [b + t for b, t in zip(boresights, toward)],
        [b + s for b, s in zip(boresights, steer)],
    )


MOUNTED_CONFIGS = {"movr": MOVR_ARRAY, "reflector": REFLECTOR_ARRAY, "small": SMALL_ARRAY}


class TestPerElementBoresight:
    """One call over elements mounted at their own boresights equals one
    array per element built at that boresight, float for float."""

    @pytest.mark.parametrize("name", sorted(MOUNTED_CONFIGS))
    @given(case=mounted_elements())
    @settings(max_examples=60, deadline=None)
    def test_gain_equals_own_array(self, name, case):
        config = MOUNTED_CONFIGS[name]
        boresights, toward, steer = case
        kernel = PhasedArray(config, boresight_deg=17.0)
        with telemetry.scope("mounted") as sc:
            got = kernel.gain_dbi_batch(toward, steer, boresight_deg=boresights)
        assert sc.registry.counter_value("kernel.batches") == 1
        assert sc.registry.counter_value("kernel.angles") == len(toward)
        own = [
            PhasedArray(config, boresight_deg=b).gain_dbi_batch(t, s)
            for b, t, s in zip(boresights, toward, steer)
        ]
        assert got.tolist() == own

    @pytest.mark.parametrize("name", sorted(MOUNTED_CONFIGS))
    @given(case=mounted_elements())
    @settings(max_examples=60, deadline=None)
    def test_relative_pattern_equals_own_array(self, name, case):
        config = MOUNTED_CONFIGS[name]
        boresights, toward, steer = case
        kernel = PhasedArray(config, boresight_deg=-40.0)
        got = kernel.relative_pattern_db_batch(
            toward, steer, floor_db=-60.0, boresight_deg=boresights
        )
        own = [
            PhasedArray(config, boresight_deg=b).relative_pattern_db_batch(t, s, -60.0)
            for b, t, s in zip(boresights, toward, steer)
        ]
        assert got.tolist() == own

    @pytest.mark.parametrize("name", sorted(MOUNTED_CONFIGS))
    @given(case=mounted_elements())
    @settings(max_examples=30, deadline=None)
    def test_steer_to_equals_own_array(self, name, case):
        config = MOUNTED_CONFIGS[name]
        boresights, targets, _ = case
        got = PhasedArray(config).steer_to_batch(
            np.asarray(targets), boresight_deg=np.asarray(boresights)
        )
        own = [
            PhasedArray(config, boresight_deg=b).steer_to_batch(np.asarray([t]))[0]
            for b, t in zip(boresights, targets)
        ]
        assert got.tolist() == own

    def test_grid_with_boresight_per_steering(self):
        """A boresight per steering column covers a (targets x
        steerings) grid, each column equal to its own array's."""
        toward = np.linspace(-180.0, 180.0, 13)[:, None]
        steer = np.array([[10.0, 130.0, -110.0]])
        boresights = np.array([[0.0, 120.0, -120.0]])
        got = PhasedArray(MOVR_ARRAY).gain_dbi_batch(toward, steer, boresight_deg=boresights)
        for j in range(3):
            own = PhasedArray(MOVR_ARRAY, boresight_deg=boresights[0, j])
            assert got[:, j].tolist() == own.gain_dbi_batch(toward[:, 0], steer[0, j]).tolist()

    def test_widening_boresight_refused(self):
        array = PhasedArray(MOVR_ARRAY)
        with pytest.raises(ValueError, match="widens"):
            array.gain_dbi_batch(10.0, 20.0, boresight_deg=[0.0, 30.0])
        with pytest.raises(ValueError, match="widens"):
            array.relative_pattern_db_batch([10.0, 20.0], 5.0, boresight_deg=[[0.0], [30.0]])
        with pytest.raises(ValueError, match="widens"):
            array.gain_dbi_batch(np.zeros((3, 1)), np.zeros(3), boresight_deg=np.zeros((2, 1, 1)))

    def test_one_pair_keeps_rank(self):
        array = PhasedArray(MOVR_ARRAY)
        assert array.gain_dbi_batch([10.0], 20.0, boresight_deg=[5.0]).shape == (1,)
        assert np.ndim(array.gain_dbi_batch(10.0, 20.0, boresight_deg=5.0)) == 0
        assert array.gain_dbi_batch(10.0, 20.0, boresight_deg=5.0) == (
            PhasedArray(MOVR_ARRAY, boresight_deg=5.0).gain_dbi(10.0, steer_override_deg=20.0)
        )


class TestPanelGains:
    """``panel_gains_dbi`` makes one kernel call per array pattern and
    gives each entry its own array's gain."""

    def test_groups_by_pattern(self):
        headset = MultiPanelArray(PhasedArrayConfig(num_panels=3), boresight_deg=25.0)
        # One-panel MOVR_ARRAY shares the headset's pattern (it differs
        # only in num_panels); the small and reflector arrays do not
        # share it, and the reflector's differs from MOVR_ARRAY only in
        # its scan range, which shapes steering, not the pattern.
        panels = [
            headset.panel_for(100.0),
            PhasedArray(SMALL_ARRAY, boresight_deg=-30.0),
            PhasedArray(MOVR_ARRAY, boresight_deg=60.0),
            PhasedArray(REFLECTOR_ARRAY, boresight_deg=200.0),
            headset.panel_for(-100.0),
            PhasedArray(SMALL_ARRAY, boresight_deg=90.0),
        ]
        steer = [100.0, -20.0, 70.0, 190.0, -100.0, 95.0]
        counts = [2, 1, 3, 1, 2, 2]
        toward = np.linspace(-170.0, 170.0, sum(counts))
        with telemetry.scope("panels") as sc:
            got = panel_gains_dbi(panels, toward, steer, counts)
        assert sc.registry.counter_value("kernel.batches") == 2
        assert sc.registry.counter_value("kernel.angles") == sum(counts)
        start, own = 0, []
        for panel, s, n in zip(panels, steer, counts):
            own.extend(panel.gain_dbi_batch(toward[start:start + n], s).tolist())
            start += n
        assert got.tolist() == own

    def test_one_entry_each_by_default(self):
        panels = [PhasedArray(MOVR_ARRAY, boresight_deg=b) for b in (0.0, 90.0)]
        got = panel_gains_dbi(panels, [10.0, 80.0], [5.0, 95.0])
        assert got.tolist() == [
            panels[0].gain_dbi(10.0, steer_override_deg=5.0),
            panels[1].gain_dbi(80.0, steer_override_deg=95.0),
        ]


class TestMultiPanelBatch:
    """Exact: a panel's steering is never more than 180/num_panels
    degrees off its boresight, and a target at the back of the array gets
    the backlobe floor whichever way its angle wraps."""

    @given(st.floats(min_value=-180.0, max_value=180.0), angle_lists, angle_lists)
    @settings(max_examples=40, deadline=None)
    def test_gain_grid_matches_scalar(self, boresight, toward, steer):
        config = PhasedArrayConfig(num_panels=4)
        array = MultiPanelArray(config, boresight_deg=boresight)
        with telemetry.scope("grid") as sc:
            grid = array.gain_dbi_batch(
                np.asarray(toward)[:, None], np.asarray(steer)[None, :]
            )
        assert sc.registry.counter_value("kernel.batches") == 1
        for i, t in enumerate(toward):
            for j, s in enumerate(steer):
                assert grid[i, j] == array.gain_dbi(t, steer_override_deg=s)

    @given(st.floats(min_value=-180.0, max_value=180.0), angle_lists)
    @settings(max_examples=40, deadline=None)
    def test_steer_to_matches_scalar(self, boresight, targets):
        array = MultiPanelArray(PhasedArrayConfig(num_panels=4), boresight_deg=boresight)
        batch = array.steer_to_batch(np.asarray(targets))
        for k, target in enumerate(targets):
            assert batch[k] == array.steer_to(target)


class TestOmniBatch:
    @given(angle_lists, angle_lists)
    @settings(max_examples=20, deadline=None)
    def test_flat_gain(self, toward, steer):
        omni = OmniAntenna()
        grid = omni.gain_dbi_batch(np.asarray(toward)[:, None], np.asarray(steer)[None, :])
        assert grid.shape == (len(toward), len(steer))
        assert np.all(grid == omni.gain_dbi(toward[0]))


def closed_loop_grid(gain_db, leakage_db):
    """The closed-loop gain over broadcast gains and leakages as a probe
    grid builds it: ``feedback_peaking_db`` over the stable entries,
    NaN elsewhere."""
    gain, leakage = np.broadcast_arrays(
        np.asarray(gain_db, dtype=float), np.asarray(leakage_db, dtype=float)
    )
    stable = loop_is_stable(gain, leakage)
    grid = np.full(gain.shape, np.nan)
    grid[stable] = gain[stable] + feedback_peaking_db(gain[stable], leakage[stable])
    return grid


class TestClosedLoopBatch:
    """The array form of the closed-loop gain equals the scalar one at
    every stable entry, for an array of gains (a gain ramp) and for an
    array of leakages at one gain (a probe grid)."""

    @given(
        st.lists(st.floats(min_value=0.0, max_value=60.0), min_size=1, max_size=16),
        st.lists(st.floats(min_value=-90.0, max_value=-10.0), min_size=1, max_size=16),
    )
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar_and_nans_unstable(self, gains, leakages):
        for gain_db, leakage_db in ((gains, leakages[0]), (gains[0], leakages)):
            grid = closed_loop_grid(gain_db, leakage_db)
            pairs = np.broadcast_arrays(np.asarray(gain_db), np.asarray(leakage_db))
            for k, (gain, leakage) in enumerate(zip(*(a.tolist() for a in pairs))):
                if loop_is_stable(gain, leakage):
                    assert grid[k] == closed_loop_gain_db(gain, leakage)
                else:
                    assert math.isnan(grid[k])


class TestDbSumBatch:
    @given(
        st.lists(
            st.floats(min_value=-200.0, max_value=50.0) | st.just(-math.inf),
            min_size=1,
            max_size=12,
        )
    )
    @settings(max_examples=80, deadline=None)
    def test_array_reduction_matches_iterable(self, powers):
        scalar = db_sum_powers(powers)
        batch = float(db_sum_powers(np.asarray(powers), axis=0))
        if scalar == -math.inf:
            assert batch == -math.inf
        else:
            assert abs(batch - scalar) <= TOL_DB

    def test_axis_reduction_shape(self):
        grid = np.array([[0.0, -math.inf], [3.0, -10.0]])
        per_column = db_sum_powers(grid, axis=0)
        assert per_column.shape == (2,)
        assert abs(per_column[0] - db_sum_powers([0.0, 3.0])) <= TOL_DB
        assert abs(per_column[1] - (-10.0)) <= TOL_DB


class TestAngleDifferenceBatch:
    @given(angle_lists, azimuths)
    @settings(max_examples=60, deadline=None)
    def test_matches_scalar(self, angles, reference):
        batch = angle_difference_deg_batch(np.asarray(angles), reference)
        for k, a in enumerate(angles):
            assert batch[k] == angle_difference_deg(a, reference)


class TestLeakageBatch:
    """Sweeps read leakage through ``leakage_db_pairs`` over the
    broadcast angle pairs: each entry is ``leakage_db``'s value."""

    @given(
        st.lists(
            st.floats(min_value=MIN_ANGLE_DEG, max_value=MAX_ANGLE_DEG),
            min_size=1,
            max_size=6,
        ),
        st.lists(
            st.floats(min_value=MIN_ANGLE_DEG, max_value=MAX_ANGLE_DEG),
            min_size=1,
            max_size=6,
        ),
    )
    @settings(max_examples=20, deadline=None)
    def test_grid_matches_scalar(self, tx_angles, rx_angles):
        model = ReflectorLeakageModel()
        tx, rx = np.broadcast_arrays(
            np.asarray(tx_angles)[:, None], np.asarray(rx_angles)[None, :]
        )
        grid = np.reshape(
            model.leakage_db_pairs(tx.ravel().tolist(), rx.ravel().tolist()), tx.shape
        )
        for i, t in enumerate(tx_angles):
            for j, r in enumerate(rx_angles):
                assert grid[i, j] == model.leakage_db(t, r)
