"""Abstract pose space: the representation gait corrections superimpose in.

Per leg the abstract coordinates are three leg angles (lx, ly, lz), two foot
angles relative to the torso (fx, fy), and a retraction eta in [0, 1]; the
arms carry the reduced set (lx, ly, eta) with the elbow playing the knee's
role.  Sign convention: positive ly tilts the limb axis forward (+x),
positive lx toward +y (left).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import _kernels
from .errors import InvalidInputError, OutOfReachError, check_nonnegative, check_vector


@dataclass
class LegJoints:
    hip_yaw: float = 0.0
    hip_roll: float = 0.0
    hip_pitch: float = 0.0
    knee_pitch: float = 0.0
    ankle_pitch: float = 0.0
    ankle_roll: float = 0.0


@dataclass
class ArmJoints:
    shoulder_pitch: float = 0.0
    shoulder_roll: float = 0.0
    elbow_pitch: float = 0.0


@dataclass
class JointPose:
    """Named joint angles in radians; knee pitch must stay in [0, pi)."""

    left_leg: LegJoints = field(default_factory=LegJoints)
    right_leg: LegJoints = field(default_factory=LegJoints)
    left_arm: ArmJoints = field(default_factory=ArmJoints)
    right_arm: ArmJoints = field(default_factory=ArmJoints)


@dataclass
class AbstractLimb:
    lx: float = 0.0
    ly: float = 0.0
    lz: float = 0.0
    fx: float = 0.0
    fy: float = 0.0
    eta: float = 0.0


@dataclass
class AbstractArm:
    lx: float = 0.0
    ly: float = 0.0
    eta: float = 0.0


@dataclass
class AbstractPose:
    left_leg: AbstractLimb = field(default_factory=AbstractLimb)
    right_leg: AbstractLimb = field(default_factory=AbstractLimb)
    left_arm: AbstractArm = field(default_factory=AbstractArm)
    right_arm: AbstractArm = field(default_factory=AbstractArm)

    def to_array(self) -> np.ndarray:
        """Flatten to the 18-float layout used by the kernels."""
        return np.array(_kernels.float_tuple(self))

    @staticmethod
    def from_array(a) -> "AbstractPose":
        a = np.asarray(a, dtype=float)
        legs = [AbstractLimb(*a[b : b + 6]) for b in (0, 6)]
        arms = [AbstractArm(*a[b : b + 3]) for b in (12, 15)]
        return AbstractPose(legs[0], legs[1], arms[0], arms[1])


@dataclass
class LegGeometry:
    """Leg link lengths; only ratios matter at desk scale."""

    thigh: float = 0.30
    shank: float = 0.30

    def __post_init__(self):
        check_nonnegative("thigh length", self.thigh, positive=True)
        check_nonnegative("shank length", self.shank, positive=True)


def _leg_to_abstract(j: LegJoints) -> AbstractLimb:
    half_knee = 0.5 * j.knee_pitch
    ly = j.hip_pitch + half_knee
    lx = j.hip_roll
    return AbstractLimb(
        lx=lx,
        ly=ly,
        lz=j.hip_yaw,
        fx=lx + j.ankle_roll,
        fy=ly + j.ankle_pitch + half_knee,
        eta=1.0 - math.cos(half_knee),
    )


def _arm_to_abstract(j: ArmJoints) -> AbstractArm:
    half_elbow = 0.5 * j.elbow_pitch
    return AbstractArm(
        lx=j.shoulder_roll,
        ly=j.shoulder_pitch + half_elbow,
        eta=1.0 - math.cos(half_elbow),
    )


def joint_to_abstract(j: JointPose) -> AbstractPose:
    """Map joint angles into the abstract pose space."""
    return AbstractPose(
        left_leg=_leg_to_abstract(j.left_leg),
        right_leg=_leg_to_abstract(j.right_leg),
        left_arm=_arm_to_abstract(j.left_arm),
        right_arm=_arm_to_abstract(j.right_arm),
    )


def _abstract_to_leg(a: AbstractLimb) -> LegJoints:
    if not 0.0 <= a.eta <= 1.0:
        raise InvalidInputError(f"leg retraction {a.eta} outside [0, 1]")
    knee = 2.0 * math.acos(1.0 - a.eta)
    half_knee = 0.5 * knee
    return LegJoints(
        hip_yaw=a.lz,
        hip_roll=a.lx,
        hip_pitch=a.ly - half_knee,
        knee_pitch=knee,
        ankle_pitch=a.fy - a.ly - half_knee,
        ankle_roll=a.fx - a.lx,
    )


def _abstract_to_arm(a: AbstractArm) -> ArmJoints:
    if not 0.0 <= a.eta <= 1.0:
        raise InvalidInputError(f"arm retraction {a.eta} outside [0, 1]")
    elbow = 2.0 * math.acos(1.0 - a.eta)
    return ArmJoints(
        shoulder_roll=a.lx,
        shoulder_pitch=a.ly - 0.5 * elbow,
        elbow_pitch=elbow,
    )


def abstract_to_joint(a: AbstractPose) -> JointPose:
    """Exact algebraic inverse of joint_to_abstract (knee from the retraction)."""
    return JointPose(
        left_leg=_abstract_to_leg(a.left_leg),
        right_leg=_abstract_to_leg(a.right_leg),
        left_arm=_abstract_to_arm(a.left_arm),
        right_arm=_abstract_to_arm(a.right_arm),
    )


def foot_ik(target, geom: LegGeometry) -> tuple[float, float, float]:
    """Place the ankle at ``target`` (m, hip frame, z down-negative).

    Returns (hip_pitch, hip_roll, knee_pitch) for a planar-sagittal two-link
    chain preceded by a hip roll.  Targets outside the reachable annulus
    raise OutOfReachError naming the violated bound.
    """
    target = check_vector("target", target)
    d = float(np.linalg.norm(target))
    reach_max = geom.thigh + geom.shank - 1e-9
    reach_min = abs(geom.thigh - geom.shank) + 1e-9
    if d > reach_max:
        raise OutOfReachError(f"target distance {d:.6f} m exceeds max reach {reach_max:.6f} m")
    if d < reach_min:
        raise OutOfReachError(f"target distance {d:.6f} m below min reach {reach_min:.6f} m")
    return _kernels.foot_ik_core(target[0], target[1], target[2], geom.thigh, geom.shank)


def foot_fk(hip_pitch: float, hip_roll: float, knee_pitch: float, geom: LegGeometry) -> np.ndarray:
    """Ankle position for the given angles; inverse of foot_ik."""
    return np.array(
        _kernels.foot_fk_core(hip_pitch, hip_roll, knee_pitch, geom.thigh, geom.shank)
    )
