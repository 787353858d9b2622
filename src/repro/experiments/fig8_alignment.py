"""Figure 8: beam-alignment accuracy of the backscatter protocol.

The paper's section 5.1 experiment: the AP stays next to the PC; the MoVR
reflector is placed at 100 random locations and orientations; for each,
the backscatter angle search estimates the angle of incidence and is
compared against laser-measured ground truth.

Shape targets: the estimate tracks the true angle across the whole
40-140 degree range, with error within ~2 degrees — "since the
beam-width of our phased array is ~10 degrees, such small error ...
results in a negligible loss in SNR".
"""

from __future__ import annotations

from typing import List, Optional

import numpy as np

from repro.core.angle_search import BackscatterAngleSearch
from repro.core.leakage import ReflectorLeakageModel
from repro.core.reflector import REFLECTOR_ARRAY, MoVRReflector
from repro.geometry.raytrace import RayTracer
from repro.geometry.room import standard_office
from repro.geometry.vectors import Vec2, bearing_deg
from repro.experiments.harness import ExperimentReport, scoped_run
from repro.experiments.testbed import PLACEMENT_MARGIN_M, ROOM_SIZE_M
from repro.link.radios import DEFAULT_RADIO_CONFIG, Radio
from repro.phy.antenna import PhasedArrayConfig
from repro.phy.channel import MmWaveChannel
from repro.utils.rng import RngLike, child_rng, make_rng


def _random_reflector(
    rng: np.random.Generator,
    ap_position: Vec2,
    leakage: Optional[ReflectorLeakageModel] = None,
) -> MoVRReflector:
    """A reflector at a random pose that keeps the AP inside its scan
    range (a mounted reflector must face into the room).

    Pass a shared ``leakage`` model when placing many reflectors: the
    coupling physics is pose-independent, and sharing one model lets
    its batch-query memo persist across placements.
    """
    for _ in range(1000):
        position = Vec2(
            float(rng.uniform(PLACEMENT_MARGIN_M, ROOM_SIZE_M - PLACEMENT_MARGIN_M)),
            float(rng.uniform(PLACEMENT_MARGIN_M, ROOM_SIZE_M - PLACEMENT_MARGIN_M)),
        )
        if position.distance_to(ap_position) < 1.5:
            continue
        toward_ap = bearing_deg(position, ap_position)
        # Random orientation, but the AP must land within the sweep
        # range (prototype angles 40-140 = +/-50 degrees of boresight),
        # with margin so the true peak is interior to the sweep.
        orientation = toward_ap + float(rng.uniform(-45.0, 45.0))
        reflector = MoVRReflector(position, boresight_deg=orientation, leakage=leakage)
        truth = reflector.azimuth_to_prototype(toward_ap)
        if 42.0 <= truth <= 138.0:
            return reflector
    raise RuntimeError("could not place a reflector facing the AP")


@scoped_run("fig8")
def run_fig8(
    num_runs: int = 100,
    seed: RngLike = None,
    reflector_step_deg: float = 1.0,
    ap_step_deg: float = 1.0,
    search_gain_db: float = 30.0,
) -> ExperimentReport:
    """Regenerate Fig. 8: estimated vs ground-truth incidence angle."""
    if num_runs < 1:
        raise ValueError("num_runs must be >= 1")
    rng = make_rng(seed)
    room = standard_office(furnished=False)
    tracer = RayTracer(room)
    channel = MmWaveChannel()
    ap = Radio(
        Vec2(0.3, 0.3),
        boresight_deg=45.0,
        config=DEFAULT_RADIO_CONFIG,
        name="mmwave-ap",
    )
    report = ExperimentReport(
        experiment_id="fig8",
        title="Beam alignment accuracy: estimated vs actual angle (100 runs)",
    )
    errors: List[float] = []
    shared_leakage = ReflectorLeakageModel(array=REFLECTOR_ARRAY)
    for run in range(num_runs):
        run_rng = child_rng(rng, run)
        reflector = _random_reflector(run_rng, ap.position, leakage=shared_leakage)
        search = BackscatterAngleSearch(
            ap,
            reflector,
            tracer,
            channel,
            search_gain_db=search_gain_db,
            rng=run_rng,
        )
        result = search.estimate_incidence_angle(
            reflector_step_deg=reflector_step_deg, ap_step_deg=ap_step_deg
        )
        error = result.reflector_error_deg
        errors.append(error)
        report.add_row(
            run=run,
            actual_angle_deg=result.ground_truth_reflector_deg,
            estimated_angle_deg=result.reflector_angle_deg,
            error_deg=error,
            probes=result.num_probes,
        )

    errors_arr = np.asarray(errors)
    report.note(
        f"mean |error| {errors_arr.mean():.2f} deg, "
        f"p90 {np.percentile(errors_arr, 90):.2f} deg, "
        f"max {errors_arr.max():.2f} deg"
    )
    report.check(
        "angle estimated to within ~2 degrees of ground truth",
        float(np.percentile(errors_arr, 90)) <= 2.0 + reflector_step_deg,
        f"p90 error {np.percentile(errors_arr, 90):.2f} deg "
        f"(step {reflector_step_deg:.1f} deg)",
    )
    report.check(
        "estimates track the truth across the full 40-140 deg range",
        float(errors_arr.max()) <= 6.0,
        f"max error {errors_arr.max():.2f} deg",
    )
    beamwidth = PhasedArrayConfig().beamwidth_deg
    report.check(
        "error is small relative to the ~10 deg beamwidth "
        "(negligible SNR loss)",
        float(errors_arr.mean()) <= beamwidth / 3.0,
        f"mean error {errors_arr.mean():.2f} deg vs beamwidth "
        f"{beamwidth:.1f} deg",
    )
    return report
