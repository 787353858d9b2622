"""Extension experiment: control-plane fault injection and recovery.

The paper's control plane (section 4) rides on BLE — a 2.4 GHz link
that interference interrupts routinely.  This experiment injects
deterministic, seedable fault schedules (burst loss and link-down
windows, :mod:`repro.control.faults`) into the coordinator's BLE link
and measures what the recovery layer buys:

* **outage fraction** — control-plane downtime over total control
  time, per fault intensity;
* **recovery latency CDF** — how long each loss took to repair
  (detection + backoff + reconnect handshake);
* **sweep resumption** — an interrupted angle sweep continues from
  the last acknowledged codebook entry instead of restarting;
* **graceful degradation** — while a reflector's control plane is
  dark, :class:`MoVRSystem` excludes it from handoff and re-admits it
  on recovery (``degraded_serving`` events bound the exposure).
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro import telemetry
from repro.control.bluetooth import BleConfig, BleLink
from repro.control.faults import FaultKind, FaultSchedule
from repro.control.protocol import (
    CoordinatorState,
    MessageType,
    ReflectorCoordinator,
)
from repro.control.recovery import RetryPolicy, downtime_cdf
from repro.core.controller import MoVRSystem
from repro.core.reflector import MoVRReflector
from repro.experiments.harness import ExperimentReport, scoped_run
from repro.geometry.bodies import hand_occluder
from repro.geometry.room import standard_office
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.beams import Codebook
from repro.link.radios import DEFAULT_RADIO_CONFIG, HEADSET_RADIO_CONFIG, Radio
from repro.phy.channel import MmWaveChannel
from repro.utils.exactmath import left_sum
from repro.utils.rng import RngLike, child_rng, make_rng

#: Swept fault intensities: Poisson outage arrivals + exponential
#: durations, layered over a deterministic mid-sweep outage so every
#: trial exercises the resume path.
FAULT_INTENSITIES = (
    ("calm", 0.10, 0.15),
    ("busy", 0.30, 0.30),
    ("hostile", 0.60, 0.50),
)

_TRIALS_PER_INTENSITY = 6
_STEADY_STATE_PUSHES = 120
_SWEEP_PEAK_DEG = 72.0
#: Cadence of the reconstructed ``control.up`` availability series.
_CONTROL_SAMPLE_DT_S = 0.05


def _sample_control_availability(trial: Dict[str, object]) -> None:
    """Record the trial's control-plane up/down timeline as a series.

    The coordinator tracks recovery *episodes*, not a clocked signal;
    here we reconstruct ``control.up`` (1 = reachable, 0 = dark) on a
    uniform grid so the control-availability SLO can window over it.
    Each trial restarts its clock at zero, which reopens the series'
    cadence gate — the SLO engine sorts samples by time before
    windowing, so concatenated trials still evaluate correctly.
    """
    elapsed = float(trial["elapsed_s"])
    if elapsed <= 0.0:
        return
    episodes = trial["recoveries"]
    windows = [(e.lost_t_s, e.recovered_t_s) for e in episodes]
    steps = int(elapsed / _CONTROL_SAMPLE_DT_S) + 1
    for i in range(steps):
        t = i * _CONTROL_SAMPLE_DT_S
        down = any(lost <= t < recovered for lost, recovered in windows)
        telemetry.sample("control.up", t, 0.0 if down else 1.0)


def _planted_metric(peak_deg: float):
    """A noiseless sideband metric peaked at ``peak_deg`` — this
    experiment times the protocol, not the physics."""
    return lambda angle: -abs(angle - peak_deg)


def _one_trial(
    schedule: FaultSchedule,
    policy: RetryPolicy,
    rng,
) -> Dict[str, object]:
    """One full control-plane lifetime: sweep, calibrate, serve."""
    reflector = MoVRReflector(Vec2(4.7, 4.7), boresight_deg=-135.0)
    link = BleLink(BleConfig(loss_rate=0.01, jitter_s=0.0), rng=rng, faults=schedule)
    coordinator = ReflectorCoordinator(reflector, link, policy=policy)
    codebook = Codebook.uniform(40.0, 140.0, 2.0)
    completed = True
    sweep_set_beams = 0
    sweep_recoveries = 0
    try:
        estimate = coordinator.run_angle_search(
            _planted_metric(_SWEEP_PEAK_DEG), codebook=codebook
        )
        sweep_set_beams = coordinator.log.count_by_type().get(
            MessageType.SET_BEAMS, 0
        )
        sweep_recoveries = len(coordinator.recoveries)
        coordinator.run_gain_calibration(input_power_dbm=-48.0)
        for _ in range(_STEADY_STATE_PUSHES):
            coordinator.push_beam_update()
    except ConnectionError:
        completed = False
        estimate = coordinator.angle_estimate_deg
    downtime = left_sum(e.downtime_s for e in coordinator.recoveries)
    return {
        "completed": completed,
        "serving": coordinator.state is CoordinatorState.SERVING,
        "estimate": estimate,
        "elapsed_s": coordinator.elapsed_s,
        "recoveries": list(coordinator.recoveries),
        "outage_fraction": downtime / coordinator.elapsed_s
        if coordinator.elapsed_s > 0.0
        else 0.0,
        "sweep_set_beams": sweep_set_beams,
        "sweep_recoveries": sweep_recoveries,
        "codebook_len": len(codebook),
        "modulation_stuck": coordinator.modulation_stuck,
        "modulating": coordinator.modulating,
    }


def _degradation_study(report: ExperimentReport, seed) -> Dict[str, object]:
    """System-level exclusion/readmission under a control loss."""
    room = standard_office(furnished=False)
    ap = Radio(Vec2(0.3, 0.3), boresight_deg=45.0, config=DEFAULT_RADIO_CONFIG, name="ap")
    positions = (Vec2(4.7, 4.7), Vec2(0.3, 4.7))
    reflectors = [
        MoVRReflector(
            p, boresight_deg=bearing_deg(p, Vec2(2.5, 2.5)), name=f"movr{i}"
        )
        for i, p in enumerate(positions)
    ]
    system = MoVRSystem(
        room,
        ap,
        reflectors,
        channel=MmWaveChannel(shadowing_sigma_db=0.0),
        rng=seed,
    )
    system.calibrate_reflector_gains()
    headset = Radio(
        Vec2(3.0, 3.0), boresight_deg=-135.0, config=HEADSET_RADIO_CONFIG
    )
    # Block the direct path so the system must lean on a reflector.
    hand = hand_occluder(
        headset.position, bearing_deg(headset.position, ap.position)
    )
    baseline = system.decide(headset, extra_occluders=[hand], t_s=0.0)
    served_via = baseline.via
    decisions_down: List[str] = []
    if served_via is not None:
        system.mark_control_lost(served_via, t_s=0.1)
        for step in range(1, 6):
            decision = system.decide(
                headset, extra_occluders=[hand], t_s=0.1 + 0.02 * step
            )
            decisions_down.append(decision.via or decision.mode)
        system.mark_control_recovered(served_via, t_s=0.3)
    recovered = system.decide(headset, extra_occluders=[hand], t_s=0.32)
    report.note(
        f"degradation study: baseline via {served_via}, while down served "
        f"{sorted(set(decisions_down))}, after recovery via {recovered.via}"
    )
    return {
        "served_via": served_via,
        "decisions_down": decisions_down,
        "recovered_via": recovered.via,
    }


@scoped_run("ext-fault-recovery")
def run_fault_recovery(seed: RngLike = None) -> ExperimentReport:
    """Outage fraction and recovery-latency CDFs under injected faults."""
    rng = make_rng(seed)
    report = ExperimentReport(
        experiment_id="ext-fault-recovery",
        title="Control-plane fault recovery: outage fraction and latency CDFs",
    )
    policy = RetryPolicy()
    # One deterministic mid-sweep outage (0.4-0.7 s: the sweep is ~2 s
    # long) guarantees every trial exercises reconnect-and-resume.
    forced = FaultSchedule.periodic(
        FaultKind.LINK_DOWN, period_s=60.0, duration_s=0.3, count=1, start_s=0.4
    )
    outage_by_intensity: Dict[str, float] = {}
    for label, rate_hz, mean_outage_s in FAULT_INTENSITIES:
        trials = [
            _one_trial(
                FaultSchedule.merge(
                    forced,
                    FaultSchedule.poisson(
                        child_rng(rng, 7 * trial),
                        horizon_s=60.0,
                        rate_hz=rate_hz,
                        mean_duration_s=mean_outage_s,
                    ),
                ),
                policy,
                child_rng(rng, 7 * trial + 1),
            )
            for trial in range(_TRIALS_PER_INTENSITY)
        ]
        for trial_result in trials:
            _sample_control_availability(trial_result)
        episodes = [e for t in trials for e in t["recoveries"]]
        latencies = downtime_cdf(episodes)
        completed = [t for t in trials if t["completed"]]
        outage = float(np.mean([t["outage_fraction"] for t in trials]))
        outage_by_intensity[label] = outage
        report.add_row(
            intensity=label,
            outage_rate_hz=rate_hz,
            mean_outage_s=mean_outage_s,
            trials=len(trials),
            completed=len(completed),
            recoveries=len(episodes),
            outage_fraction=round(outage, 4),
            recovery_p50_s=float(np.percentile(latencies, 50)) if latencies else 0.0,
            recovery_p95_s=float(np.percentile(latencies, 95)) if latencies else 0.0,
            recovery_max_s=max(latencies) if latencies else 0.0,
        )
        if latencies:
            deciles = np.percentile(latencies, [10, 30, 50, 70, 90])
            report.note(
                f"{label}: recovery-latency CDF deciles "
                + ", ".join(f"{d:.3f}s" for d in deciles)
                + f" over {len(latencies)} recoveries"
            )
        resumed_ok = [
            t
            for t in completed
            if t["sweep_set_beams"]
            <= t["codebook_len"] + 2 * t["sweep_recoveries"]
        ]
        report.check(
            f"{label}: interrupted sweeps resume, never restart",
            len(resumed_ok) == len(completed) and len(completed) > 0,
            f"{len(completed)}/{len(trials)} sweeps completed, all within "
            f"codebook + retry budget of SET_BEAMS commands",
        )
        report.check(
            f"{label}: completed sweeps still find the planted peak",
            all(t["estimate"] == _SWEEP_PEAK_DEG for t in completed),
            f"estimates {sorted(set(t['estimate'] for t in completed))} "
            f"vs peak {_SWEEP_PEAK_DEG}",
        )
        report.check(
            f"{label}: no amplifier left modulating",
            all(not t["modulating"] or t["modulation_stuck"] for t in trials),
            "every sweep exit either delivered MODULATE_OFF or recorded "
            "the orphaned modulation explicitly",
        )
    report.check(
        "outage fraction grows with fault intensity",
        outage_by_intensity["calm"] < outage_by_intensity["hostile"],
        f"calm {outage_by_intensity['calm']:.4f} vs hostile "
        f"{outage_by_intensity['hostile']:.4f}",
    )
    degradation = _degradation_study(report, child_rng(rng, 1000))
    report.check(
        "a control-lost reflector is never selected while down",
        degradation["served_via"] is not None
        and degradation["served_via"] not in degradation["decisions_down"],
        f"served via {degradation['served_via']} before loss; while down the "
        f"system chose {sorted(set(degradation['decisions_down']))}",
    )
    report.check(
        "the reflector is re-admitted after recovery",
        degradation["recovered_via"] == degradation["served_via"],
        f"post-recovery decision via {degradation['recovered_via']}",
    )
    return report
