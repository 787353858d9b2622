#!/usr/bin/env python3
"""Installing a MoVR reflector: angle search and gain calibration.

Walks through what happens when you stick a reflector to a wall:

1. the AP runs the backscatter angle search of section 4.1 — it transmits
   a tone while the reflector on/off-modulates its amplifier, and the
   joint (AP angle, reflector angle) sweep finds the alignment without
   the reflector ever receiving or transmitting;
2. the reflector runs the current-sensing gain calibration of
   section 4.2 — stepping its amplifier up until the supply current kicks,
   then backing off below the saturation knee;
3. the reflector-to-headset beam is found the same way, with the
   headset measuring.

Run:  python examples/reflector_installation.py
"""

import numpy as np

from repro.core import (
    BackscatterAngleSearch,
    CurrentSensingGainController,
    MoVRReflector,
    ReflectionAngleSearch,
)
from repro.geometry import RayTracer, standard_office
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.radios import DEFAULT_RADIO_CONFIG, HEADSET_RADIO_CONFIG, Radio
from repro.phy import MmWaveChannel


def main() -> None:
    room = standard_office(furnished=False)
    tracer = RayTracer(room)
    channel = MmWaveChannel()
    ap = Radio(Vec2(0.3, 0.3), boresight_deg=45.0, config=DEFAULT_RADIO_CONFIG)

    # Stick a reflector on the north wall, roughly facing the room.
    mount = Vec2(3.6, 4.85)
    reflector = MoVRReflector(mount, boresight_deg=-95.0, name="wall-unit")
    true_angle = reflector.azimuth_to_prototype(bearing_deg(mount, ap.position))
    print(f"reflector mounted at {mount.as_tuple()}, boresight -95 deg")
    print(f"ground-truth incidence angle: {true_angle:.1f} deg (prototype frame)\n")

    # --- Step 1: backscatter angle search (signal-level DSP) ----------
    search = BackscatterAngleSearch(
        ap, reflector, tracer, channel, signal_level=True, rng=1
    )
    result = search.estimate_incidence_angle(
        reflector_step_deg=2.0, ap_step_deg=2.0
    )
    print("incidence angle search (AP measures the OOK sideband):")
    print(f"  estimated {result.reflector_angle_deg:.1f} deg "
          f"(error {result.reflector_error_deg:.1f} deg)")
    print(f"  probes: {result.num_probes}, "
          f"peak sideband {result.peak_sideband_dbm:.1f} dBm\n")

    # Lock the receive beam onto the AP.
    reflector.set_beams(
        reflector.prototype_to_azimuth(result.reflector_angle_deg),
        reflector.tx_azimuth_deg,
    )

    # --- Step 2: gain calibration by current sensing ------------------
    # Input power at the amplifier with the AP illuminating us.
    feed = tracer.line_of_sight(ap.position, mount)
    input_dbm = (
        ap.config.tx_power_dbm
        + ap.array.gain_dbi(feed.departure_angle_deg,
                            steer_override_deg=feed.departure_angle_deg)
        + channel.path_gain_db(feed)
        + reflector.rx_array.gain_dbi(feed.arrival_angle_deg)
    )
    controller = CurrentSensingGainController(reflector, rng=2)
    calibration = controller.calibrate(input_dbm)
    print("gain calibration (step up, watch the current):")
    for g, i in list(zip(calibration.gain_trace_db,
                         calibration.current_trace_ma))[::8]:
        bar = "#" * int((i - 115.0) / 4.0)
        print(f"  gain {g:5.1f} dB  current {i:6.1f} mA  {bar}")
    print(f"  -> settled at {calibration.final_gain_db:.1f} dB "
          f"(knee detected: {calibration.knee_detected}), "
          f"leakage is {reflector.leakage_db():.1f} dB, "
          f"loop stable: {reflector.is_stable()}\n")

    # --- Step 3: reflection angle toward the headset ------------------
    headset = Radio(Vec2(2.0, 2.0), boresight_deg=0.0, config=HEADSET_RADIO_CONFIG)
    out_search = ReflectionAngleSearch(
        ap, reflector, headset, tracer, channel, rng=3
    )
    out = out_search.estimate_reflection_angle(reflector_step_deg=2.0)
    print("reflection angle search (headset measures):")
    print(f"  estimated {out.reflector_angle_deg:.1f} deg "
          f"(error {out.reflector_error_deg:.1f} deg), "
          f"{out.num_probes} probes")


if __name__ == "__main__":
    main()
