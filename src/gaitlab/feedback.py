"""Fused-angle feedback: deviation filtering and corrective-action activation.

The fused pitch/roll deviations are smoothed, deadbanded, and differentiated
per plane; arm and support-foot actions use the P/D terms (``PdGains``), the
continuous foot angle and CoM shifts use a leaky integral (``IGain``), and
the timing action scales the gait-phase increment from the deadbanded roll
deviation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields

import numpy as np

from . import _kernels
from .errors import InvalidInputError, check_finite, check_nonnegative, check_vector
from .pose import AbstractPose, LegGeometry


class _ActionGains:
    """Gains of one corrective action: every field a finite gain >= 0."""

    def __post_init__(self):
        for f in fields(self):
            check_nonnegative(f"gain {f.name}", getattr(self, f.name))


@dataclass
class PdGains(_ActionGains):
    """Proportional and derivative gains of an arm or support-foot action."""

    kp: float = 0.0
    kd: float = 0.0


@dataclass
class IGain(_ActionGains):
    """Leaky-integral gain of a continuous-foot or CoM-shift action."""

    ki: float = 0.0


ACTION_GAIN_TYPES = (PdGains, IGain)  # config keys nest one level: gains.<action>.<term>


@dataclass
class FeedbackGains:
    """Per-action gains, typed by each action's control law, and the timing gains."""

    arm_angle_x: PdGains = field(default_factory=lambda: PdGains(kp=0.8, kd=0.25))
    arm_angle_y: PdGains = field(default_factory=lambda: PdGains(kp=1.2, kd=0.35))
    supp_foot_angle_x: PdGains = field(default_factory=lambda: PdGains(kp=0.5, kd=0.1))
    cont_foot_angle_x: IGain = field(default_factory=lambda: IGain(ki=0.4))
    com_shift_x: IGain = field(default_factory=lambda: IGain(ki=0.02))
    com_shift_y: IGain = field(default_factory=lambda: IGain(ki=0.02))
    timing_speed_up: float = 0.6
    timing_slow_down: float = 0.6
    min_timing_factor: float = 0.1

    def __post_init__(self):
        check_nonnegative("timing_speed_up", self.timing_speed_up)
        check_nonnegative("timing_slow_down", self.timing_slow_down)
        check_nonnegative("min_timing_factor", self.min_timing_factor, positive=True)


def zero_gains() -> FeedbackGains:
    """All-zero gains: the closed loop degenerates to the open-loop gait."""
    zeros = {
        name: type(gains)()
        for name, gains in vars(FeedbackGains()).items()
        if isinstance(gains, ACTION_GAIN_TYPES)
    }
    return FeedbackGains(**zeros, timing_speed_up=0.0, timing_slow_down=0.0)


@dataclass
class FilterParams:
    """Smoothing, deadband, and integrator leak shared by both planes."""

    smoothing_time: float = 0.05
    deadband: float = 0.02
    leak_rate: float = 0.2

    def __post_init__(self):
        check_nonnegative("smoothing_time", self.smoothing_time, positive=True)
        check_nonnegative("deadband", self.deadband)
        check_nonnegative("leak_rate", self.leak_rate, positive=True)


@dataclass
class PdiTerms:
    p: float = 0.0
    d: float = 0.0
    i: float = 0.0


class DeviationFilters:
    """Mutable smoothed/deadbanded P, D and leaky-I state for both planes.

    The state is the kernel's 6-tuple: (smoothed, d-estimate, integral) for
    the pitch plane then the roll plane.  Owned by a single control loop.
    """

    def __init__(self, params: FilterParams | None = None):
        self.params = params or FilterParams()
        self.reset()

    def update(self, d_theta: float, d_phi: float) -> tuple[PdiTerms, PdiTerms]:
        """Advance both filters by one step of ``DT``; returns (pitch, roll) terms."""
        coeffs = _kernels.filter_coeffs(_kernels.float_tuple(self.params))
        self.state, pdi = _kernels.filters_step(
            self.state, check_finite("d_theta", d_theta), check_finite("d_phi", d_phi), coeffs
        )
        return PdiTerms(pdi[0], pdi[1], pdi[2]), PdiTerms(pdi[3], pdi[4], pdi[5])

    def reset(self):
        self.state = (0.0,) * _kernels.FILTER_STATE_SIZE


@dataclass
class Activations:
    """Corrective-action magnitudes; angles in rad, CoM shifts in m."""

    arm_angle_x: float = 0.0
    arm_angle_y: float = 0.0
    supp_foot_angle_x: float = 0.0
    cont_foot_angle_x: float = 0.0
    com_shift_x: float = 0.0
    com_shift_y: float = 0.0
    timing_factor: float = 1.0

    def __post_init__(self):
        check_nonnegative("timing_factor", self.timing_factor, positive=True)

    def to_array(self) -> np.ndarray:
        """Every field in declaration order: the kernels' activation layout."""
        return np.array(_kernels.float_tuple(self))


def compute_activations(
    pitch_terms: PdiTerms,
    roll_terms: PdiTerms,
    gains: FeedbackGains,
    support_leg_sign: int,
) -> Activations:
    """Scale filtered deviations into activations.

    support_leg_sign is +1 when the left leg is the support leg, -1 for the
    right.  Tilting toward the support leg (outward) slows the gait down,
    tilting away from it (inward) speeds it up.
    """
    if support_leg_sign not in (1, -1):
        raise InvalidInputError("support_leg_sign must be +1 or -1")
    floats = _kernels.float_tuple
    kind = "finite (p, d, i) terms"
    pdi = (check_vector("pitch_terms", floats(pitch_terms), kind=kind).tolist()
           + check_vector("roll_terms", floats(roll_terms), kind=kind).tolist())
    act = _kernels.activations_from(pdi, floats(gains), float(support_leg_sign))
    return Activations(*act)


def apply_actions(
    open_loop: AbstractPose,
    act: Activations,
    support_leg_sign: int = 1,
    geom: LegGeometry | None = None,
    halt_eta: float = 0.1,
) -> tuple[AbstractPose, bool]:
    """Superimpose activations onto the open-loop pose.

    Arm angles add to both arms, the continuous foot angle to both feet, the
    support foot angle to the support foot only.  CoM shifts displace both
    ankle targets by the negated shift and re-solve the leg IK, applying the
    resulting leg-angle deltas relative to the legs at the halt retraction
    ``halt_eta`` (in [0, 1]).  Returns the modified pose and a flag that is
    True when a retraction had to be clamped into [0, 1].
    """
    if support_leg_sign not in (1, -1):
        raise InvalidInputError("support_leg_sign must be +1 or -1")
    if not 0.0 <= halt_eta <= 1.0:
        raise InvalidInputError("halt_eta must be in [0, 1]")
    geom = geom or LegGeometry()
    floats = _kernels.float_tuple
    pose, saturated = _kernels.apply_actions_flat(
        check_vector("open_loop", floats(open_loop), _kernels.POSE_SIZE).tolist(),
        check_vector("act", floats(act), _kernels.ACT_SIZE).tolist(),
        float(support_leg_sign),
        _kernels.com_shift_reference((*floats(geom), float(halt_eta))),
    )
    return AbstractPose.from_array(pose), bool(saturated)
