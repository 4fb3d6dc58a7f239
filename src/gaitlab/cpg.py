"""Open-loop central-pattern-generated gait in the abstract pose space.

The gait phase mu lives in (-pi, pi] and advances by a constant increment
each step, values past pi wrapping around to -pi.  The left leg keys its
waveforms off mu directly, the right leg off mu + pi, so the legs run half
a cycle apart.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import InvalidInputError, check_nonnegative
from .pose import AbstractPose, AbstractLimb, AbstractArm


def _clamp_unit(v: float) -> float:
    return min(1.0, max(-1.0, float(v)))


@dataclass
class GaitCommand:
    """Normalized walk command; each component is clamped to [-1, 1]."""

    vx: float = 0.0
    vy: float = 0.0
    wz: float = 0.0

    def __post_init__(self):
        self.vx = _clamp_unit(self.vx)
        self.vy = _clamp_unit(self.vy)
        self.wz = _clamp_unit(self.wz)


def default_halt_pose(eta: float = 0.1) -> AbstractPose:
    """Marching-in-place rest pose: legs straight down, knees slightly bent."""
    return AbstractPose(
        left_leg=AbstractLimb(eta=eta),
        right_leg=AbstractLimb(eta=eta),
        left_arm=AbstractArm(eta=0.05),
        right_arm=AbstractArm(eta=0.05),
    )


@dataclass
class CpgParams:
    """Waveform amplitudes and timing of the open-loop gait.

    lift_amplitude is in retraction units, the angular amplitudes in rad,
    frequency in Hz (full gait cycles per second).
    """

    halt_pose: AbstractPose = field(default_factory=default_halt_pose)
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
            raise InvalidInputError("double_support_fraction must be in [0, 0.5)")
        check_nonnegative("frequency", self.frequency, positive=True)
        if not np.all(np.isfinite(self.halt_pose.to_array())):
            raise InvalidInputError("halt pose must be finite")
        pose = self.halt_pose
        for limb, pair in (("leg", (pose.left_leg, pose.right_leg)),
                           ("arm", (pose.left_arm, pose.right_arm))):
            if not all(0.0 <= side.eta <= 1.0 for side in pair):
                raise InvalidInputError(f"halt {limb} retraction must be in [0, 1]")

    def to_array(self) -> np.ndarray:
        out = np.empty(24)
        out[:18] = self.halt_pose.to_array()
        out[18] = self.lift_amplitude
        out[19] = self.swing_amplitude
        out[20] = self.lateral_sway_amplitude
        out[21] = self.arm_swing_amplitude
        out[22] = self.double_support_fraction
        out[23] = self.frequency
        return out


def step_phase(mu: float, dt: float, frequency: float, timing_factor: float = 1.0) -> float:
    """Advance the gait phase and wrap it into (-pi, pi]."""
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
    cpg = _kernels.float_tuple(params.to_array())
    pose = _kernels.cpg_pose(
        float(mu), cmd.vx, cmd.vy, cmd.wz, cpg, _kernels.swing_window(cpg)
    )
    return AbstractPose.from_array(pose)
