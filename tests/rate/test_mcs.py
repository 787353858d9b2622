"""Unit tests for the 802.11ad MCS tables."""

import itertools
import math

import pytest
from hypothesis import given, strategies as st

from repro.rate.mcs import (
    MAX_RATE_MBPS,
    MCS_TABLE,
    PhyType,
    best_mcs_for_snr,
    data_rate_mbps_for_snr,
    mcs_by_index,
    required_snr_db_for_rate,
)


class TestTableContents:
    def test_25_entries(self):
        assert len(MCS_TABLE) == 25

    def test_indices_unique_and_ordered(self):
        indices = [m.index for m in MCS_TABLE]
        assert indices == list(range(25))

    def test_max_rate_is_ofdm_mcs24(self):
        assert MAX_RATE_MBPS == pytest.approx(6756.75)
        assert mcs_by_index(24).phy is PhyType.OFDM

    def test_control_phy_most_sensitive(self):
        control = mcs_by_index(0)
        assert all(
            control.snr_threshold_db <= m.snr_threshold_db
            for m in MCS_TABLE
        )

    def test_rate_monotone_with_threshold_within_phy(self):
        for phy in (PhyType.SINGLE_CARRIER, PhyType.OFDM):
            rows = [m for m in MCS_TABLE if m.phy is phy]
            rates = [m.data_rate_mbps for m in rows]
            assert rates == sorted(rates)

    def test_paper_max_rate_snr_claim(self):
        # The paper: ~20 dB is needed for the maximum data rate.
        assert mcs_by_index(24).snr_threshold_db == pytest.approx(19.0, abs=1.5)

    def test_unknown_index_raises(self):
        with pytest.raises(KeyError):
            mcs_by_index(99)

    def test_gbps_property(self):
        assert mcs_by_index(12).data_rate_gbps == pytest.approx(4.62)


class TestBestMcsForSnr:
    def test_deep_outage_returns_none(self):
        assert best_mcs_for_snr(-30.0) is None

    def test_control_phy_floor(self):
        mcs = best_mcs_for_snr(-10.0)
        assert mcs is not None and mcs.phy is PhyType.CONTROL

    def test_high_snr_gets_max_rate(self):
        assert best_mcs_for_snr(30.0).data_rate_mbps == MAX_RATE_MBPS

    def test_margin_shifts_choice(self):
        without = best_mcs_for_snr(20.0)
        with_margin = best_mcs_for_snr(20.0, margin_db=5.0)
        assert with_margin.data_rate_mbps < without.data_rate_mbps

    def test_phy_restriction(self):
        sc_only = best_mcs_for_snr(40.0, phys=(PhyType.SINGLE_CARRIER,))
        assert sc_only.phy is PhyType.SINGLE_CARRIER
        assert sc_only.data_rate_mbps == pytest.approx(4620.0)

    @given(st.floats(min_value=-40.0, max_value=50.0))
    def test_rate_monotone_in_snr(self, snr):
        assert data_rate_mbps_for_snr(snr + 2.0) >= data_rate_mbps_for_snr(snr)

    @given(st.floats(min_value=-15.0, max_value=50.0))
    def test_selected_mcs_threshold_met(self, snr):
        mcs = best_mcs_for_snr(snr)
        if mcs is not None:
            assert mcs.snr_threshold_db <= snr


def reference_best_mcs(snr_db, phys, margin_db):
    """The linear scan the ladder lookup stands for."""
    usable = [
        m
        for m in MCS_TABLE
        if m.phy in phys and m.snr_threshold_db <= snr_db - margin_db
    ]
    if not usable:
        return None
    return max(usable, key=lambda m: (m.data_rate_mbps, -m.snr_threshold_db))


#: Every non-empty PHY set, as tuples and as lists.
PHY_SETS = [
    kind(combo)
    for n in (1, 2, 3)
    for combo in itertools.combinations(list(PhyType), n)
    for kind in (tuple, list)
]


class TestMcsLadder:
    """The bisected ladder answers exactly as a scan of the table."""

    @given(
        st.floats(allow_nan=True, allow_infinity=True),
        st.sampled_from(PHY_SETS),
        st.floats(min_value=-10.0, max_value=10.0),
    )
    def test_matches_linear_scan(self, snr, phys, margin):
        got = best_mcs_for_snr(snr, phys=phys, margin_db=margin)
        assert got is reference_best_mcs(snr, phys, margin)

    @pytest.mark.parametrize("phys", PHY_SETS, ids=repr)
    def test_every_threshold_and_its_neighbours(self, phys):
        snrs = [math.inf, -math.inf, math.nan]
        for m in MCS_TABLE:
            t = m.snr_threshold_db
            snrs += [t, math.nextafter(t, -math.inf), math.nextafter(t, math.inf)]
        for snr in snrs:
            for margin in (0.0, 0.5, -1.0):
                got = best_mcs_for_snr(snr, phys=phys, margin_db=margin)
                assert got is reference_best_mcs(snr, phys, margin), (snr, margin)

    def test_nan_snr_decodes_nothing(self):
        assert best_mcs_for_snr(math.nan) is None
        assert data_rate_mbps_for_snr(math.nan) == 0.0

    def test_empty_phy_set_decodes_nothing(self):
        assert best_mcs_for_snr(40.0, phys=()) is None


class TestRequiredSnr:
    def test_known_rates(self):
        # 4 Gbps needs SC MCS 12 territory (~13 dB).
        assert required_snr_db_for_rate(4000.0) == pytest.approx(13.0, abs=1.0)

    def test_max_rate(self):
        assert required_snr_db_for_rate(6756.0) == pytest.approx(19.0, abs=0.5)

    def test_unreachable_rate_raises(self):
        with pytest.raises(ValueError, match="no 802.11ad MCS"):
            required_snr_db_for_rate(10_000.0)

    def test_non_positive_rejected(self):
        with pytest.raises(ValueError):
            required_snr_db_for_rate(0.0)

    @given(st.floats(min_value=30.0, max_value=6756.0))
    def test_inverse_consistency(self, rate):
        """At the required SNR, the selected MCS delivers the rate."""
        snr = required_snr_db_for_rate(rate)
        assert data_rate_mbps_for_snr(snr) >= rate
