"""Variable-gain amplifier model with saturation and current draw.

The MoVR prototype builds its variable-gain stage from a Quinstar LNA,
a voltage-variable attenuator (HMC712), and a Hittite HMC-C020 power
amplifier.  Two behaviours of that chain are load-bearing for the
paper's algorithms and are modeled here:

1. **Compression/saturation** — output power cannot exceed ``psat``;
   near saturation the amplifier distorts and, inside the reflector's
   feedback loop, produces "garbage signals" (section 4.2).
2. **Supply current vs. operating point** — the DC current rises
   sharply as the amplifier approaches saturation.  This is the side
   channel MoVR's gain controller senses with its INA169 current
   monitor instead of a receive chain.

The module also provides the positive-feedback loop algebra of
Fig. 6(b): closed-loop gain and the ``G < L`` stability criterion.
Each formula is written once, for a float and for an array alike
(:mod:`repro.utils.exactmath`): gain calibration's ramp and the angle
search's probe grids get, entry for entry, the scalar value.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from functools import lru_cache
from typing import List, Optional, Tuple

from repro.utils import exactmath
from repro.utils.validation import (
    require_finite,
    require_non_negative,
    require_positive,
)


@dataclass(frozen=True)
class AmplifierSpec:
    """Datasheet-level description of a variable-gain amplifier chain."""

    min_gain_db: float = 0.0
    max_gain_db: float = 60.0
    gain_step_db: float = 0.5
    noise_figure_db: float = 4.5
    output_p1db_dbm: float = 15.0
    psat_dbm: float = 18.0
    quiescent_current_ma: float = 120.0
    saturation_current_ma: float = 380.0

    def __post_init__(self) -> None:
        for spec_field in fields(self):
            require_finite(getattr(self, spec_field.name), spec_field.name)
        if self.max_gain_db <= self.min_gain_db:
            raise ValueError("max_gain_db must exceed min_gain_db")
        require_positive(self.gain_step_db, "gain_step_db")
        require_non_negative(self.noise_figure_db, "noise_figure_db")
        if self.psat_dbm < self.output_p1db_dbm:
            raise ValueError("psat_dbm must be >= output_p1db_dbm")
        require_positive(self.quiescent_current_ma, "quiescent_current_ma")
        if self.saturation_current_ma <= self.quiescent_current_ma:
            raise ValueError("saturation_current_ma must exceed quiescent_current_ma")


#: Parameters approximating the prototype's HMC-C020 + QLW-2440 chain.
MOVR_AMPLIFIER = AmplifierSpec()


class VariableGainAmplifier:
    """A settable-gain amplifier with soft compression.

    Gain commands are quantized to ``gain_step_db`` (the DAC driving
    the analog attenuator has finite resolution) and clipped to the
    spec's range.
    """

    def __init__(self, spec: AmplifierSpec = MOVR_AMPLIFIER) -> None:
        self.spec = spec
        self._gain_db = spec.min_gain_db

    @property
    def gain_db(self) -> float:
        """The currently commanded (small-signal) gain."""
        return self._gain_db

    def quantize_gain_db(self, gain_db: float) -> float:
        """The gain :meth:`set_gain_db` would achieve for a command,
        without setting it: clipped to the range, rounded to the DAC
        grid."""
        require_finite(gain_db, "gain_db")
        return _on_grid(self.spec, gain_db)

    def gain_ramp_db(self, step_db: float) -> List[float]:
        """The gains a step-up from the minimum visits, in order: the
        minimum, then ``step_db`` more each step, on the gain grid, up
        to the maximum (or the highest grid gain below it).  Only
        ``step_db`` is checked, once: the grid gains are computed, once
        per spec and step (amplifiers of one spec share the ramp)."""
        return list(_gain_ramp(self.spec, require_positive(step_db, "step_db")))

    def set_gain_db(self, gain_db: float) -> float:
        """Command a gain; returns the achieved (quantized) value."""
        self._gain_db = self.quantize_gain_db(gain_db)
        return self._gain_db

    def step_gain(self, steps: int = 1) -> float:
        """Step the gain up or down by whole DAC steps."""
        return self.set_gain_db(self._gain_db + steps * self.spec.gain_step_db)

    # -- large-signal behaviour ----------------------------------------
    #
    # The power and current formulas take floats or arrays (with the
    # scalar rounding, :mod:`repro.utils.exactmath`): gain calibration
    # evaluates its whole ramp in one pass.

    def output_power_dbm(self, input_dbm, gain_db=None):
        """Output power with soft (Rapp-style) compression toward psat.

        Linear for small signals; saturates smoothly at ``psat_dbm``.
        """
        g = self._gain_db if gain_db is None else gain_db
        linear_out_dbm = input_dbm + g
        xm = exactmath.ops(linear_out_dbm)
        psat = self.spec.psat_dbm
        # Rapp model in the power domain with smoothness p=2.
        p = 2.0
        lin = xm.exp10(linear_out_dbm / 10.0)
        sat = 10.0 ** (psat / 10.0)
        out = lin / xm.power(1.0 + xm.power(lin / sat, p), 1.0 / p)
        return 10.0 * xm.log10(out)

    def compression_db(self, input_dbm: float, gain_db: Optional[float] = None) -> float:
        """How many dB below linear the output currently is."""
        g = self._gain_db if gain_db is None else gain_db
        return (input_dbm + g) - self.output_power_dbm(input_dbm, g)

    def is_saturated(self, input_dbm: float, gain_db: Optional[float] = None) -> bool:
        """Compressing by more than 1 dB counts as saturated."""
        return self.compression_db(input_dbm, gain_db) > 1.0

    def current_draw_ma(self, output_dbm):
        """DC supply current at a given output power.

        Flat at the quiescent level for small signals, rising
        exponentially as output approaches ``psat`` — the knee MoVR's
        gain controller detects.  ``output_dbm`` above psat (possible
        only transiently in an unstable loop) pins the current at the
        saturation value.
        """
        xm = exactmath.ops(output_dbm)
        span = self.spec.saturation_current_ma - self.spec.quiescent_current_ma
        rise = xm.exp10((output_dbm - self.spec.psat_dbm) / 10.0)
        return self.spec.quiescent_current_ma + span * xm.minimum(1.0, rise)


def _on_grid(spec: AmplifierSpec, gain_db: float) -> float:
    """A finite gain clipped to ``spec``'s range and rounded to its DAC
    grid."""
    clipped = max(spec.min_gain_db, min(spec.max_gain_db, gain_db))
    steps = round((clipped - spec.min_gain_db) / spec.gain_step_db)
    return min(spec.min_gain_db + steps * spec.gain_step_db, spec.max_gain_db)


@lru_cache(maxsize=64)
def _gain_ramp(spec: AmplifierSpec, step_db: float) -> Tuple[float, ...]:
    """:meth:`VariableGainAmplifier.gain_ramp_db`: a pure function of
    the (frozen) spec and the step."""
    gain = _on_grid(spec, spec.min_gain_db)
    gains = [gain]
    while gain < spec.max_gain_db:
        gain = _on_grid(spec, gain + step_db)
        if gain <= gains[-1]:
            break
        gains.append(gain)
    return tuple(gains)


# ----------------------------------------------------------------------
# Positive-feedback loop algebra (Fig. 6(b) of the paper)
# ----------------------------------------------------------------------


def loop_is_stable(gain_db, leakage_db):
    """Stability criterion of the reflector's feedback loop.

    ``leakage_db`` is the TX-to-RX coupling *gain* and is negative
    (e.g. -60 dB).  The loop is stable iff the loop gain
    ``gain_db + leakage_db`` is below 0 dB — equivalently, the
    amplifier gain must be smaller than the leakage attenuation
    ``|leakage_db|`` (the paper's ``G_dB - L_dB < 0``).
    Arguments are not re-validated here (a NaN reads as unstable).
    An array of gains gives the criterion at each.
    """
    return gain_db + leakage_db < 0.0


def feedback_peaking_db(gain_db, leakage_db):
    """Extra gain (and extra output power) contributed by a stable loop.

    With forward amplitude gain ``g`` and feedback amplitude ``l``,
    ``out = g / (1 - g*l) * in``: the loop adds
    ``-20*log10(1 - 10^((G+L)/20))`` dB, which diverges as the loop
    gain approaches 0 dB (in hardware the amplifier saturates instead,
    the failure the gain controller must avoid).  The loop must be
    stable (:func:`loop_is_stable`).  Either argument may be an array
    (a gain ramp, or the leakage of a probe grid's stable entries):
    the peaking at each entry, rounded as the scalar formula rounds.
    """
    loop_db = gain_db + leakage_db
    xm = exactmath.ops(loop_db)
    loop_amplitude = xm.exp10(loop_db / 20.0)
    return -20.0 * xm.log10(1.0 - loop_amplitude)


def closed_loop_gain_db(gain_db: float, leakage_db: float) -> float:
    """Closed-loop gain of the reflector including feedback peaking.

    Raises ``ValueError`` for an unstable configuration.
    """
    if not loop_is_stable(gain_db, leakage_db):
        raise ValueError(
            f"feedback loop unstable: gain {gain_db:.1f} dB >= leakage "
            f"attenuation {-leakage_db:.1f} dB"
        )
    return gain_db + feedback_peaking_db(gain_db, leakage_db)
