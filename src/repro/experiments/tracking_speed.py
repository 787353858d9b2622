"""Extension experiment: pose-assisted beam tracking vs re-searching.

Section 6 of the paper sketches its future work: "Finding the best beam
alignment is the most time consuming process in the design, but one
can leverage the tracking information provided by the VR system to
speed this process."

This experiment drives the AP's beam at a moving headset over a
realistic VR motion trace and compares three policies:

* **full-search** — re-run an exhaustive single-sided sweep at every
  pose update (the no-tracking strawman);
* **periodic** — exhaustive sweep at a fixed cadence, hold otherwise;
* **pose-assisted** — :class:`PoseAssistedTracker`: steer by geometry,
  refine locally only when the SNR watchdog fires.

Metrics: probes consumed (search airtime stolen from the data link)
and SNR shortfall vs an oracle that always points perfectly.
"""

from __future__ import annotations

from typing import List

import numpy as np

from repro.core.tracking import PoseAssistedTracker
from repro.experiments.harness import ExperimentReport, scoped_run
from repro.experiments.testbed import Testbed, default_testbed
from repro.geometry.mobility import VrPlayerMotion
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.beams import Codebook, single_sided_sweep
from repro.link.radios import HEADSET_RADIO_CONFIG, Radio
from repro.utils.rng import RngLike, child_rng, make_rng


@scoped_run("ext-tracking")
def run_tracking_speed(
    duration_s: float = 10.0,
    update_rate_hz: float = 30.0,
    seed: RngLike = None,
    testbed: Testbed = None,
) -> ExperimentReport:
    """Compare beam-maintenance policies over one motion trace."""
    if duration_s <= 0.0:
        raise ValueError("duration_s must be positive")
    rng = make_rng(seed)
    bed = testbed if testbed is not None else default_testbed(
        seed=child_rng(rng, 0), shadowing_sigma_db=0.0
    )
    system = bed.system
    ap = system.ap
    motion = VrPlayerMotion(bed.room, seed=child_rng(rng, 1))
    trace = motion.generate(duration_s, sample_rate_hz=update_rate_hz)

    def snr_probe(pose_position: Vec2):
        """Batched SNR of AP steerings toward a headset at one pose."""
        headset = Radio(pose_position, boresight_deg=0.0, config=HEADSET_RADIO_CONFIG)
        headset.steer_to(bearing_deg(pose_position, ap.position))
        paths = system.budget.cache.all_paths(ap.position, pose_position, max_bounces=1)

        def probe(ap_steer_deg):
            power_dbm = system.budget.sweep_pairs(
                ap, headset, ap_steer_deg, headset.steering_deg, paths=paths
            )
            return power_dbm - headset.config.noise_floor_dbm

        return probe

    probes_by_pose = [snr_probe(pose.position) for pose in trace]
    scan = ap.config.array.max_scan_deg
    full_codebook = Codebook.uniform(
        ap.boresight_deg - scan, ap.boresight_deg + scan, 1.0
    )

    policies = {}

    # Oracle: perfect geometric pointing, zero probes.
    oracle_snrs = [
        float(probe(bearing_deg(ap.position, pose.position)))
        for pose, probe in zip(trace, probes_by_pose)
    ]
    policies["oracle"] = (oracle_snrs, 0)

    # Full search every update.
    snrs: List[float] = []
    probes = 0
    for probe in probes_by_pose:
        _, snr, swept = single_sided_sweep(full_codebook, probe)
        snrs.append(snr)
        probes += swept
    policies["full-search"] = (snrs, probes)

    # Periodic search (every 1 s), hold in between.
    snrs, probes = [], 0
    period = max(1, int(update_rate_hz))
    current = ap.boresight_deg
    for i, probe in enumerate(probes_by_pose):
        if i % period == 0:
            current, _, swept = single_sided_sweep(full_codebook, probe)
            probes += swept
        snrs.append(float(probe(current)))
    policies["periodic-1s"] = (snrs, probes)

    # Pose-assisted tracking.
    tracker = PoseAssistedTracker(anchor_position=ap.position)
    snrs = []
    for pose, probe in zip(trace, probes_by_pose):
        update = tracker.update(pose.time_s, pose.position, probe)
        snrs.append(float(probe(update.refined_angle_deg)))
    policies["pose-assisted"] = (snrs, tracker.stats.probes)

    report = ExperimentReport(
        experiment_id="ext-tracking",
        title="Beam maintenance: probes spent vs SNR achieved",
    )
    oracle_mean = float(np.mean(policies["oracle"][0]))
    for name, (snr_series, probe_count) in policies.items():
        report.add_row(
            policy=name,
            mean_snr_db=float(np.mean(snr_series)),
            snr_gap_vs_oracle_db=oracle_mean - float(np.mean(snr_series)),
            total_probes=probe_count,
            probes_per_update=probe_count / len(trace),
        )
    pose_probes = policies["pose-assisted"][1]
    full_probes = policies["full-search"][1]
    pose_gap = oracle_mean - float(np.mean(policies["pose-assisted"][0]))
    report.check(
        "pose-assisted tracking cuts probe cost by >10x vs re-searching",
        pose_probes * 10 <= full_probes,
        f"{pose_probes} vs {full_probes} probes",
    )
    report.check(
        "pose-assisted tracking stays within 1 dB of the oracle",
        pose_gap <= 1.0,
        f"gap {pose_gap:.2f} dB",
    )
    return report
