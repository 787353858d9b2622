"""Radio node models: the mmWave AP and the headset receiver.

A :class:`Radio` bundles a position, a steerable phased array, TX
power, and receiver noise parameters.  The default
:class:`RadioConfig` is calibrated so that the simulated testbed
reproduces the paper's measured operating point: mean LOS SNR of about
25 dB across a 5 m x 5 m room, rising to 30-35 dB close to the AP
(section 5.2) — i.e. a short-range 24 GHz ISM prototype, not a full-power
commercial 802.11ad chipset.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Optional

from repro.geometry.vectors import Vec2, bearing_deg
from repro.phy.antenna import (
    MOVR_ARRAY,
    MultiPanelArray,
    PhasedArray,
    PhasedArrayConfig,
)
from repro.phy.noise import ReceiverNoise
from repro.utils.units import IEEE80211AD_BANDWIDTH_HZ
from repro.utils.validation import require_finite, require_non_negative


@dataclass(frozen=True)
class RadioConfig:
    """RF parameters of one radio.

    The default TX power (-6 dBm) reflects a backed-off prototype PA
    at 24 GHz; together with the array gains and noise figure it lands
    the simulated room at the paper's measured operating point.
    """

    tx_power_dbm: float = -6.0
    array: PhasedArrayConfig = MOVR_ARRAY
    noise_figure_db: float = 8.0
    bandwidth_hz: float = IEEE80211AD_BANDWIDTH_HZ
    implementation_loss_db: float = 5.0

    def __post_init__(self) -> None:
        require_finite(self.tx_power_dbm, "tx_power_dbm")
        require_non_negative(self.noise_figure_db, "noise_figure_db")
        require_non_negative(self.implementation_loss_db, "implementation_loss_db")

    # Computed once: the config is frozen.

    @cached_property
    def receiver_noise(self) -> ReceiverNoise:
        return ReceiverNoise(
            bandwidth_hz=self.bandwidth_hz, noise_figure_db=self.noise_figure_db
        )

    @cached_property
    def noise_floor_dbm(self) -> float:
        return self.receiver_noise.noise_floor_dbm


#: The prototype AP / headset radio.
DEFAULT_RADIO_CONFIG = RadioConfig()

#: The headset-mounted receiver: same RF chain as the AP, but three
#: array panels around the faceplate give full azimuthal coverage —
#: blockage by the player's own head/body is modeled explicitly as
#: geometry, not as a scan-range artifact.
HEADSET_RADIO_CONFIG = RadioConfig(array=PhasedArrayConfig(num_panels=3))


class Radio:
    """A positioned, steerable mmWave radio.

    ``boresight_deg`` is the mechanical mounting azimuth of the array.
    The AP in the corner of the room typically has its boresight
    pointing into the room; the headset's receiver boresight follows
    the player's facing direction.
    """

    def __init__(
        self,
        position: Vec2,
        boresight_deg: float = 0.0,
        config: RadioConfig = DEFAULT_RADIO_CONFIG,
        name: str = "radio",
    ) -> None:
        self.position = position
        self.config = config
        self.name = name
        if config.array.num_panels > 1:
            self.array = MultiPanelArray(config.array, boresight_deg=boresight_deg)
        else:
            self.array = PhasedArray(config.array, boresight_deg=boresight_deg)

    @property
    def boresight_deg(self) -> float:
        return self.array.boresight_deg

    @boresight_deg.setter
    def boresight_deg(self, value: float) -> None:
        """Re-orient the array mechanically (headset follows head yaw)."""
        steer = self.array.steering_deg
        self.array.boresight_deg = float(value)
        # Keep the absolute steering direction if still reachable.
        if self.array.can_steer_to(steer):
            self.array.steer_to(steer)
        else:
            self.array.steer_to(self.array.boresight_deg)

    @property
    def steering_deg(self) -> float:
        return self.array.steering_deg

    def steer_to(self, azimuth_deg: float) -> float:
        """Steer the beam toward an absolute azimuth; returns achieved."""
        return self.array.steer_to(azimuth_deg)

    def point_at(self, target: Vec2) -> float:
        """Steer toward a point in the scene."""
        return self.steer_to(bearing_deg(self.position, target))

    def eirp_dbm(self, toward_deg: float) -> float:
        """Effective isotropic radiated power toward an azimuth."""
        return self.config.tx_power_dbm + self.array.gain_dbi(toward_deg)

    def moved_to(self, position: Vec2, boresight_deg: Optional[float] = None) -> "Radio":
        """A copy of this radio at a new pose (motion-trace stepping)."""
        clone = Radio(
            position=position,
            boresight_deg=self.boresight_deg if boresight_deg is None else boresight_deg,
            config=self.config,
            name=self.name,
        )
        return clone

    def __repr__(self) -> str:
        return (
            f"Radio({self.name!r}, pos=({self.position.x:.2f}, {self.position.y:.2f}), "
            f"boresight={self.boresight_deg:.1f} deg, steer={self.steering_deg:.1f} deg)"
        )
