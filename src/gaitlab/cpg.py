"""Open-loop central-pattern-generated gait in the abstract pose space.

The gait phase mu lives in (-pi, pi] and advances by a constant increment
each step, values past pi wrapping around to -pi.  The left leg keys its
waveforms off mu directly, the right leg off mu + pi, so the legs run half
a cycle apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import _kernels
from .errors import InvalidInputError, check_finite, check_nonnegative
from .pose import AbstractPose


@dataclass
class GaitCommand:
    """Normalized walk command; each component must be finite and is clamped to [-1, 1]."""

    vx: float = 0.0
    vy: float = 0.0
    wz: float = 0.0

    def __post_init__(self):
        for name in ("vx", "vy", "wz"):
            value = check_finite(f"walk command {name}", getattr(self, name))
            setattr(self, name, min(1.0, max(-1.0, value)))


@dataclass
class CpgParams:
    """Waveform amplitudes and timing of the open-loop gait.

    The halt pose is the marching-in-place rest pose the waveforms add to:
    limbs straight down, both legs retracted by halt_eta (knees slightly
    bent) and both arms by halt_arm_eta.  lift_amplitude is in retraction
    units, the angular amplitudes in rad, frequency in Hz (full gait cycles
    per second).
    """

    halt_eta: float = 0.1
    halt_arm_eta: float = 0.05
    lift_amplitude: float = 0.08
    swing_amplitude: float = 0.25
    lateral_sway_amplitude: float = 0.05
    arm_swing_amplitude: float = 0.15
    double_support_fraction: float = 0.1
    frequency: float = 0.7

    def __post_init__(self):
        for name in (
            "lift_amplitude",
            "swing_amplitude",
            "lateral_sway_amplitude",
            "arm_swing_amplitude",
        ):
            check_nonnegative(name, getattr(self, name))
        if not 0.0 <= self.double_support_fraction < 0.5:
            raise InvalidInputError(
                f"double_support_fraction must be in [0, 0.5), got {self.double_support_fraction}"
            )
        check_nonnegative("frequency", self.frequency, positive=True)
        for limb, name in (("leg", "halt_eta"), ("arm", "halt_arm_eta")):
            value = getattr(self, name)
            if not 0.0 <= value <= 1.0:
                raise InvalidInputError(
                    f"halt {limb} retraction must be in [0, 1], got {name} = {value}"
                )


def step_phase(mu: float, dt: float, frequency: float, timing_factor: float = 1.0) -> float:
    """Advance the gait phase and wrap it into (-pi, pi]."""
    check_finite("mu", mu)
    check_finite("frequency", frequency)
    check_nonnegative("dt", dt, positive=True)
    check_nonnegative("timing_factor", timing_factor, positive=True)
    return _kernels.wrap_pi(mu + 2.0 * math.pi * frequency * timing_factor * dt)


def evaluate_cpg(mu: float, cmd: GaitCommand, params: CpgParams) -> AbstractPose:
    """Evaluate the open-loop gait pose at phase mu.

    Superimposes onto the halt pose: a half-sine retraction pulse during each
    leg's swing window, a sagittal leg swing proportional to vx with a
    matching arm counter-swing, a lateral lean proportional to vy plus the
    sway sinusoid, and a yaw twist proportional to wz.  Continuous and
    2*pi-periodic in mu.
    """
    cpg = _kernels.float_tuple(params)
    pose = _kernels.cpg_pose(
        check_finite("mu", mu), cmd.vx, cmd.vy, cmd.wz, cpg, _kernels.swing_window(cpg)
    )
    return AbstractPose.from_array(pose)
