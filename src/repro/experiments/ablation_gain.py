"""Ablation: adaptive vs static amplifier gain policies.

The design question behind section 4.2: the leakage varies by tens of dB
with the beam angles (Fig. 7), and the gain must stay below it.  What
does each policy cost?

* **conservative** — one factory gain safe at the worst-case leakage
  over all angles; never saturates, but gives up gain (and therefore
  relayed SNR) at most angle pairs;
* **adaptive (MoVR)** — the current-sensing controller run at the
  operating beam angles;
* **oracle** — knows the true leakage at the operating angles
  (unrealizable: needs a receive chain); the upper bound;
* **reckless** — max gain always; shows the failure mode the stability
  criterion exists to prevent.
"""

from __future__ import annotations

from typing import Dict, List

import numpy as np

from repro.core.gain_control import (
    CurrentSensingGainController,
    conservative_gain_db,
    oracle_gain_db,
)
from repro.core.reflector import MoVRReflector
from repro.experiments.harness import ExperimentReport, scoped_run
from repro.geometry.vectors import Vec2
from repro.utils.rng import RngLike, child_rng, make_rng


@scoped_run("ablation-gain")
def run_ablation_gain(
    num_angle_pairs: int = 25,
    input_power_dbm: float = -48.0,
    seed: RngLike = None,
) -> ExperimentReport:
    """Sweep random beam-angle pairs; compare gain policies."""
    if num_angle_pairs < 1:
        raise ValueError("num_angle_pairs must be >= 1")
    rng = make_rng(seed)
    report = ExperimentReport(
        experiment_id="ablation-gain",
        title="Gain policies under angle-dependent leakage",
    )
    reflector = MoVRReflector(Vec2(4.7, 4.7), boresight_deg=-135.0)
    conservative = conservative_gain_db(reflector)
    spec = reflector.amplifier.spec

    stats: Dict[str, List[float]] = {
        "conservative": [],
        "adaptive": [],
        "oracle": [],
        "reckless": [],
    }
    saturations = {k: 0 for k in stats}
    for pair in range(num_angle_pairs):
        rx_proto = float(rng.uniform(45.0, 135.0))
        tx_proto = float(rng.uniform(45.0, 135.0))
        reflector.set_beams(
            reflector.prototype_to_azimuth(rx_proto),
            reflector.prototype_to_azimuth(tx_proto),
        )
        policies = {}
        controller = CurrentSensingGainController(
            reflector, rng=child_rng(rng, pair)
        )
        controller.calibrate(input_power_dbm)
        policies["adaptive"] = reflector.amplifier.gain_db
        policies["conservative"] = conservative
        policies["oracle"] = oracle_gain_db(reflector, input_power_dbm)
        policies["reckless"] = spec.max_gain_db
        # The beams stay put while the policies are scored: one leakage read.
        leakage_db = reflector.leakage_db()
        for name, gain in policies.items():
            reflector.amplifier.set_gain_db(gain)
            effective = reflector.effective_gain_db(leakage_db)
            if effective is None or reflector.is_saturated_at(input_power_dbm, leakage_db):
                saturations[name] += 1
                stats[name].append(float("-inf"))
            else:
                stats[name].append(effective)

    for name in ("conservative", "adaptive", "oracle", "reckless"):
        values = np.asarray([v for v in stats[name] if np.isfinite(v)])
        report.add_row(
            policy=name,
            mean_effective_gain_db=float(values.mean()) if values.size else float("nan"),
            saturation_events=saturations[name],
            saturation_rate=saturations[name] / num_angle_pairs,
        )

    adaptive_mean = float(
        np.mean([v for v in stats["adaptive"] if np.isfinite(v)])
    )
    conservative_mean = float(
        np.mean([v for v in stats["conservative"] if np.isfinite(v)])
    )
    oracle_mean = float(np.mean([v for v in stats["oracle"] if np.isfinite(v)]))
    report.check(
        "the adaptive controller never saturates the amplifier",
        saturations["adaptive"] == 0,
        f"{saturations['adaptive']} saturation events in "
        f"{num_angle_pairs} angle pairs",
    )
    report.check(
        "adaptive gain beats the conservative worst-case setting",
        adaptive_mean > conservative_mean + 1.0,
        f"adaptive {adaptive_mean:.1f} dB vs conservative "
        f"{conservative_mean:.1f} dB",
    )
    report.check(
        "adaptive gain lands within its safety backoff of the oracle",
        oracle_mean - adaptive_mean <= 8.0,
        f"oracle {oracle_mean:.1f} dB vs adaptive {adaptive_mean:.1f} dB "
        "(the gap is the knee backoff; the oracle runs with no margin)",
    )
    report.check(
        "max gain without control saturates at some angle pairs",
        saturations["reckless"] > 0,
        f"{saturations['reckless']} saturation events",
    )
    return report
