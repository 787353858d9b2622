"""Saturation-aware amplifier gain control (section 4.2 of the paper).

MoVR cannot measure its own TX-to-RX leakage — it has no receive
chain.  Instead it exploits the fact that amplifiers draw markedly
more supply current as they approach saturation: the controller steps
the gain up from minimum while watching a DC current sensor (INA169 +
Arduino ADC in the prototype) and stops just below the point where the
current kicks up, which is where the feedback loop starts to peak.

The module also provides the two static policies the ablation
benchmark compares against: a worst-case-leakage conservative gain and
an oracle that knows the true leakage.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Optional, Sequence

import numpy as np

from repro import telemetry
from repro.core.reflector import MoVRReflector
from repro.utils.rng import RngLike, make_rng
from repro.utils.validation import require_int, require_non_negative, require_positive


@dataclass(frozen=True)
class CurrentSensorSpec:
    """The current-sensing chain: shunt monitor plus ADC.

    Defaults model a TI INA169 into a 10-bit ADC spanning 0-500 mA:
    ~0.5 mA quantization with ~1.5 mA rms front-end noise.
    """

    noise_ma_rms: float = 1.5
    quantization_ma: float = 0.5
    full_scale_ma: float = 500.0

    def __post_init__(self) -> None:
        require_non_negative(self.noise_ma_rms, "noise_ma_rms")
        require_non_negative(self.quantization_ma, "quantization_ma")
        require_positive(self.full_scale_ma, "full_scale_ma")


class CurrentSensor:
    """Reads a reflector's amplifier supply current, imperfectly."""

    def __init__(
        self,
        reflector: MoVRReflector,
        spec: CurrentSensorSpec = CurrentSensorSpec(),
        rng: RngLike = None,
    ) -> None:
        self.reflector = reflector
        self.spec = spec
        self._rng = make_rng(rng)

    @property
    def rng(self) -> np.random.Generator:
        """The generator the sensor draws its noise samples from."""
        return self._rng

    def read_ma(self, input_power_dbm: float, num_samples: int = 4) -> float:
        """Averaged, noise- and quantization-corrupted current reading."""
        true_ma = self.reflector.current_draw_ma(input_power_dbm)
        return self.readings_ma([true_ma], num_samples)[0]

    def readings_ma(self, true_currents_ma: Sequence[float], num_samples: int = 4) -> List[float]:
        """One averaged reading per true current, in order: what
        :meth:`read_ma` gives at each in turn, from the same samples of
        the stream, drawn as one vector.

        Each sample is the true current plus noise, rounded to the ADC
        step and clipped to the ADC range; a reading is the mean of its
        ``num_samples`` samples.
        """
        require_int(num_samples, "num_samples", minimum=1)
        true_ma = np.asarray(true_currents_ma, dtype=float)
        noise = self._rng.normal(0.0, self.spec.noise_ma_rms, size=(true_ma.size, num_samples))
        samples = true_ma[:, None] + noise
        if self.spec.quantization_ma > 0.0:
            samples = np.rint(samples / self.spec.quantization_ma) * self.spec.quantization_ma
        # Clipped as ``min(full_scale, max(0.0, sample))`` clips: a sample
        # rounded to -0.0 reads 0.0.
        samples = np.where(samples > 0.0, samples, 0.0)
        full_scale = self.spec.full_scale_ma
        samples = np.where(samples < full_scale, samples, full_scale)
        # A sum over the sample axis adds each row as ``np.mean`` adds a
        # single reading's samples.
        return (np.add.reduce(samples, axis=1) / num_samples).tolist()


@dataclass
class GainControlResult:
    """Outcome of one gain-calibration run."""

    final_gain_db: float
    knee_detected: bool
    steps_taken: int
    gain_trace_db: List[float] = field(default_factory=list)
    current_trace_ma: List[float] = field(default_factory=list)

    @property
    def hit_max_gain(self) -> bool:
        return not self.knee_detected


class CurrentSensingGainController:
    """The paper's adaptive gain algorithm.

    "It sets the amplifier gain to the minimum, then increases the
    gain, step by step, while monitoring the amplifier's current
    consumption ... until the current consumption suddenly goes high
    ... The algorithm keeps the amplification gain just below this
    point."

    ``jump_threshold_ma`` is the sudden rise per dB of gain actually
    stepped on the amplifier's grid: a smaller step (0.5 dB for a
    ``step_db`` of 0.3 or 0.5) raises the current by less, and is held
    to a proportionally lower threshold.
    """

    def __init__(
        self,
        reflector: MoVRReflector,
        sensor: Optional[CurrentSensor] = None,
        step_db: float = 1.0,
        jump_threshold_ma: float = 15.0,
        backoff_db: float = 3.0,
        samples_per_reading: int = 4,
        rng: RngLike = None,
    ) -> None:
        require_positive(step_db, "step_db")
        require_positive(jump_threshold_ma, "jump_threshold_ma")
        require_non_negative(backoff_db, "backoff_db")
        require_int(samples_per_reading, "samples_per_reading", minimum=1)
        amp = reflector.amplifier
        start = amp.quantize_gain_db(amp.spec.min_gain_db)
        if amp.quantize_gain_db(start + step_db) <= start:
            raise ValueError(
                f"step_db {step_db} dB does not advance the amplifier's gain: "
                f"it rounds away on the {amp.spec.gain_step_db} dB gain grid "
                "(a step must exceed half of gain_step_db)"
            )
        self.reflector = reflector
        self.sensor = sensor if sensor is not None else CurrentSensor(reflector, rng=rng)
        self.step_db = step_db
        self.jump_threshold_ma = jump_threshold_ma
        self.backoff_db = backoff_db
        self.samples_per_reading = samples_per_reading

    def gain_ramp_db(self) -> List[float]:
        """The gains the step-up loop visits, in order (see
        :meth:`VariableGainAmplifier.gain_ramp_db`)."""
        return self.reflector.amplifier.gain_ramp_db(self.step_db)

    def calibrate(
        self, input_power_dbm: float, leakage_db: Optional[float] = None
    ) -> GainControlResult:
        """Run the step-up-until-knee loop; leaves the reflector at the
        chosen gain and returns the trace.

        The whole ramp is evaluated in one pass: the true current at
        every ramp gain as one array evaluation (the beams, and so the
        leakage, stay fixed), one reading per gain from one draw, and
        the knee is the first reading that rises above the one before it
        by more than ``jump_threshold_ma`` per dB of gain between the
        two.  ``leakage_db`` is the coupling at the installed beams
        (:meth:`MoVRReflector.leakage_db`, read here when not given).
        The sensor's stream is then left where stepping the gain and
        reading at each step would leave it: after the readings up to
        the knee.
        """
        reflector = self.reflector
        amp = reflector.amplifier
        gains = self.gain_ramp_db()
        if leakage_db is None:
            leakage_db = reflector.leakage_db()
        true_ma = reflector.current_draw_ma(input_power_dbm, leakage_db, np.array(gains))
        telemetry.inc("gain_control.calibrations")
        rng = self.sensor.rng
        state = rng.bit_generator.state
        currents = self.sensor.readings_ma(true_ma, self.samples_per_reading)
        steps = next(
            (
                k
                for k in range(1, len(currents))
                if currents[k] - currents[k - 1]
                > self.jump_threshold_ma * (gains[k] - gains[k - 1])
            ),
            None,
        )
        knee = steps is not None
        if knee:
            # Sudden rise: the amplifier is entering saturation.  The
            # loop would have stopped reading here, so redraw only the
            # readings it took.
            rng.bit_generator.state = state
            currents = self.sensor.readings_ma(true_ma[: steps + 1], self.samples_per_reading)
            gains = gains[: steps + 1]
            amp.set_gain_db(gains[-1] - self.step_db - self.backoff_db)
            telemetry.emit(
                telemetry.EventKind.GAIN_BACKOFF,
                reflector=getattr(reflector, "name", "reflector"),
                tripped_gain_db=gains[-1],
                final_gain_db=amp.gain_db,
                current_jump_ma=currents[-1] - currents[-2],
                steps=steps,
            )
        else:
            steps = len(gains) - 1
            amp.set_gain_db(gains[-1])
        return GainControlResult(
            final_gain_db=amp.gain_db,
            knee_detected=knee,
            steps_taken=steps,
            gain_trace_db=gains,
            current_trace_ma=currents,
        )


def conservative_gain_db(reflector: MoVRReflector, margin_db: float = 3.0) -> float:
    """Static worst-case policy: a gain safe at *every* beam angle.

    This is what a designer without adaptive control must ship; the
    ablation benchmark quantifies the SNR it gives up.
    """
    require_non_negative(margin_db, "margin_db")
    worst_leakage = reflector.leakage_model.worst_case_leakage_db()
    spec = reflector.amplifier.spec
    gain = min(spec.max_gain_db, -worst_leakage - margin_db)
    return max(spec.min_gain_db, gain)


def oracle_gain_db(
    reflector: MoVRReflector,
    input_power_dbm: Optional[float] = None,
    margin_db: float = 3.0,
) -> float:
    """Upper-bound policy: knows the true leakage at the current beams.

    Unrealizable in hardware (the reflector cannot measure leakage);
    used as the ceiling in the gain-control ablation.  When the input
    power is given, the oracle also respects the amplifier's 1 dB
    compression point (the other constraint the current-sensing
    controller satisfies implicitly), found by bisection over the
    reflector's closed-loop output model.  The leakage is read once and
    the amplifier's gain is left as it is.
    """
    require_non_negative(margin_db, "margin_db")
    leak = reflector.leakage_db()
    amp = reflector.amplifier
    spec = amp.spec
    gain = max(spec.min_gain_db, min(spec.max_gain_db, -leak - margin_db))
    if input_power_dbm is None:
        return gain

    def saturates(command_db: float) -> bool:
        # At the gain the amplifier would reach for the command.
        return reflector.is_saturated_at(input_power_dbm, leak, amp.quantize_gain_db(command_db))

    lo, hi = spec.min_gain_db, gain
    if not saturates(hi):
        return hi
    for _ in range(30):
        mid = (lo + hi) / 2.0
        if saturates(mid):
            hi = mid
        else:
            lo = mid
    return lo
