"""Physical constants and unit helpers used across the simulator.

Frequencies are hertz, distances meters, powers dBm unless a name says
otherwise.  Angles at module boundaries are *degrees* (matching the
paper's figures); internal trigonometry converts to radians locally.
"""

from __future__ import annotations

import math

import numpy as np

#: Speed of light in vacuum [m/s].
SPEED_OF_LIGHT = 299_792_458.0

#: Boltzmann constant [J/K].
BOLTZMANN = 1.380649e-23

#: Reference temperature for thermal noise [K].
T0_KELVIN = 290.0

#: Carrier frequency of the MoVR prototype (24 GHz ISM band) [Hz].
MOVR_CARRIER_HZ = 24.0e9

#: 802.11ad channel bandwidth [Hz].
IEEE80211AD_BANDWIDTH_HZ = 2.16e9

#: Occupied (sampling) bandwidth of the 802.11ad OFDM PHY [Hz].
IEEE80211AD_OFDM_BANDWIDTH_HZ = 1.83e9


def wavelength(frequency_hz: float) -> float:
    """Free-space wavelength [m] for a carrier frequency [Hz].

    >>> round(wavelength(24.0e9) * 1000, 2)   # ~12.49 mm at 24 GHz
    12.49
    """
    if frequency_hz <= 0.0:
        raise ValueError(f"frequency must be positive, got {frequency_hz}")
    return SPEED_OF_LIGHT / frequency_hz


def thermal_noise_dbm(bandwidth_hz: float, temperature_k: float = T0_KELVIN) -> float:
    """Thermal noise floor ``kTB`` in dBm for a bandwidth [Hz].

    >>> round(thermal_noise_dbm(2.16e9), 1)   # ~-80.6 dBm over 2.16 GHz
    -80.6
    """
    if bandwidth_hz <= 0.0:
        raise ValueError(f"bandwidth must be positive, got {bandwidth_hz}")
    noise_watts = BOLTZMANN * temperature_k * bandwidth_hz
    return 10.0 * math.log10(noise_watts) + 30.0


def deg_to_rad(angle_deg: float) -> float:
    """Degrees to radians."""
    return angle_deg * math.pi / 180.0


def rad_to_deg(angle_rad: float) -> float:
    """Radians to degrees."""
    return angle_rad * 180.0 / math.pi


def wrap_angle_deg(angle_deg: float) -> float:
    """Wrap an angle into ``[-180, 180)`` degrees.

    >>> wrap_angle_deg(270.0)
    -90.0
    >>> wrap_angle_deg(math.nextafter(-180.0, -math.inf))  # remainder rounds to 360
    -180.0
    """
    wrapped = (angle_deg + 180.0) % 360.0 - 180.0
    return -180.0 if wrapped == 180.0 else wrapped


def angle_difference_deg(a_deg: float, b_deg: float) -> float:
    """Smallest signed difference ``a - b`` in degrees, in ``[-180, 180)``.

    >>> angle_difference_deg(10.0, 350.0)
    20.0
    """
    return wrap_angle_deg(a_deg - b_deg)


def angle_difference_deg_batch(a_deg, b_deg):
    """Vectorized :func:`angle_difference_deg` over ndarray inputs.

    Accepts any mix of scalars and arrays (NumPy broadcasting rules);
    uses the exact arithmetic of the scalar version, so results agree
    bit-for-bit, except at the rounding edge the scalar version maps
    from 180 to -180 (a difference a hair below -180): the kernels this
    feeds do not pay for that check.
    """
    if isinstance(a_deg, float) and isinstance(b_deg, float):
        # Python's float arithmetic rounds as NumPy's does, at a
        # fraction of a NumPy call's cost.
        return (a_deg - b_deg + 180.0) % 360.0 - 180.0
    return (np.asarray(a_deg, dtype=float) - b_deg + 180.0) % 360.0 - 180.0
