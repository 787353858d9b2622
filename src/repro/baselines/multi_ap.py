"""Multi-AP deployment baseline.

The paper's "naive solution": "deploy multiple mmWave transmitters in
the room to guarantee that there is always a line of sight ... However,
this defeats the purpose of a wireless design ... it requires enormous
cabling complexity ... multiple full-fledged mmWave transceivers will
significantly increase the cost."

This baseline delivers excellent coverage — the point of modeling it is
the *cost* columns: HDMI cable meters run through the room and the
count of full transceiver chains, which the comparison benchmark
reports next to MoVR's single AP plus passive-ish reflectors.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

from repro.geometry.room import Occluder
from repro.geometry.vectors import Vec2, bearing_deg
from repro.link.budget import LinkBudget, LinkMeasurement
from repro.link.radios import DEFAULT_RADIO_CONFIG, Radio, RadioConfig

#: Rough 2016-era component cost of a full mmWave transceiver chain
#: (phased array + up/down conversion + baseband), used for the cost
#: comparison columns.  A MoVR reflector is amplifier + arrays only.
TRANSCEIVER_COST_USD = 300.0
REFLECTOR_COST_USD = 60.0


@dataclass(frozen=True)
class MultiApResult:
    """Best-AP link choice for one headset pose."""

    best_measurement: LinkMeasurement
    serving_ap_index: int

    @property
    def snr_db(self) -> float:
        return self.best_measurement.snr_db


@dataclass(frozen=True)
class DeploymentCost:
    """Infrastructure cost of a deployment."""

    num_transceivers: int
    num_reflectors: int
    cable_meters: float

    @property
    def hardware_cost_usd(self) -> float:
        return (
            self.num_transceivers * TRANSCEIVER_COST_USD
            + self.num_reflectors * REFLECTOR_COST_USD
        )


class MultiApBaseline:
    """Several fully wired mmWave APs; the headset attaches to the best."""

    def __init__(
        self,
        budget: LinkBudget,
        ap_positions: Sequence[Vec2],
        console_position: Vec2,
        radio_config: RadioConfig = DEFAULT_RADIO_CONFIG,
    ) -> None:
        if not ap_positions:
            raise ValueError("need at least one AP position")
        self.budget = budget
        self.console_position = console_position
        room_center = budget.tracer.room.bounding_box().center
        self.aps = [
            Radio(
                pos,
                boresight_deg=bearing_deg(pos, room_center),
                config=radio_config,
                name=f"ap{i}",
            )
            for i, pos in enumerate(ap_positions)
        ]

    def evaluate(
        self,
        headset_radio: Radio,
        extra_occluders: Sequence[Occluder] = (),
    ) -> MultiApResult:
        """Best direct link over all deployed APs."""
        best: Optional[Tuple[LinkMeasurement, int]] = None
        for index, ap in enumerate(self.aps):
            m = self.budget.measure_aligned(
                ap, headset_radio, extra_occluders=extra_occluders
            )
            if best is None or m.snr_db > best[0].snr_db:
                best = (m, index)
        assert best is not None
        return MultiApResult(best_measurement=best[0], serving_ap_index=best[1])

    def deployment_cost(self) -> DeploymentCost:
        """Cable length (console to every AP, Manhattan routing along
        walls) and transceiver count."""
        cable = 0.0
        for ap in self.aps:
            delta = ap.position - self.console_position
            cable += abs(delta.x) + abs(delta.y) + 2.0  # +2 m drop/rise slack
        return DeploymentCost(
            num_transceivers=len(self.aps) + 1,  # headset needs one too
            num_reflectors=0,
            cable_meters=cable,
        )


def movr_deployment_cost(num_reflectors: int) -> DeploymentCost:
    """The MoVR equivalent: one wired AP, wireless reflectors."""
    if num_reflectors < 0:
        raise ValueError("num_reflectors must be non-negative")
    return DeploymentCost(
        num_transceivers=2,  # AP + headset receiver
        num_reflectors=num_reflectors,
        cable_meters=2.0,  # AP sits next to the PC
    )
