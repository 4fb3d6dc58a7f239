"""Fused-angles attitude representation and a complementary attitude filter.

Conventions: quaternions are (w, x, y, z), unit norm, and rotate body-frame
vectors into the global frame.  Fused angles split an orientation into fused
yaw, fused pitch (sagittal tilt, positive leaning forward over +x), fused
roll (lateral tilt, positive leaning toward +y) and a hemisphere flag.  The
tilt pair is defined from the global z-axis expressed in body coordinates,
which makes it invariant under global yaw rotations.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._kernels import wrap_pi as wrap_angle  # wraps an angle into (-pi, pi]
from .errors import InvalidInputError, check_finite, check_nonnegative, check_vector


@dataclass
class Quaternion:
    """Unit quaternion (w, x, y, z), body-to-global rotation; the components must be finite."""

    w: float = 1.0
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self):
        for name in ("w", "x", "y", "z"):
            check_finite(f"quaternion {name}", getattr(self, name))

    def norm(self) -> float:
        return math.sqrt(self.w**2 + self.x**2 + self.y**2 + self.z**2)

    def normalized(self) -> "Quaternion":
        return Quaternion(*_normalized(self.w, self.x, self.y, self.z))

    def conjugate(self) -> "Quaternion":
        return Quaternion(self.w, -self.x, -self.y, -self.z)

    def __mul__(self, other: "Quaternion") -> "Quaternion":
        return Quaternion(
            *_product((self.w, self.x, self.y, self.z), (other.w, other.x, other.y, other.z))
        )

    def rotate(self, v) -> np.ndarray:
        """Rotate a 3-vector from the body frame into the global frame."""
        return self.to_matrix() @ np.asarray(v, dtype=float)

    def rotate_inverse(self, v) -> np.ndarray:
        """Rotate a 3-vector, or each row of an (N, 3) array, from the global
        frame into the body frame."""
        return np.asarray(v, dtype=float) @ self.to_matrix()

    def to_matrix(self) -> np.ndarray:
        return _matrix(self.w, self.x, self.y, self.z)

    @staticmethod
    def from_rotvec(v) -> "Quaternion":
        """Quaternion for a rotation vector (axis * angle, radians).

        Raises InvalidInputError unless ``v`` is a 3-vector whose squared
        angle is finite, which also makes it finite.
        """
        return Quaternion(*_checked_rotvec("rotation vector", np.asarray(v, dtype=float)))

    @staticmethod
    def identity() -> "Quaternion":
        return Quaternion(1.0, 0.0, 0.0, 0.0)


@dataclass
class FusedAngles:
    """Fused yaw/pitch/roll plus hemisphere flag."""

    yaw: float = 0.0
    pitch: float = 0.0
    roll: float = 0.0
    hemisphere: int = 1

    def __post_init__(self):
        check_finite("fused yaw", self.yaw)
        if self.hemisphere not in (1, -1):
            raise InvalidInputError(f"hemisphere must be +1 or -1, got {self.hemisphere}")
        if not (-math.pi / 2 - 1e-12 <= self.pitch <= math.pi / 2 + 1e-12):
            raise InvalidInputError(f"fused pitch {self.pitch} outside [-pi/2, pi/2]")
        if not (-math.pi / 2 - 1e-12 <= self.roll <= math.pi / 2 + 1e-12):
            raise InvalidInputError(f"fused roll {self.roll} outside [-pi/2, pi/2]")
        s2 = math.sin(self.pitch) ** 2 + math.sin(self.roll) ** 2
        if s2 > 1.0 + 1e-9:
            raise InvalidInputError(
                f"sin^2(pitch) + sin^2(roll) = {s2} exceeds 1; not a valid tilt"
            )


@dataclass
class ImuSample:
    """One gyro/accelerometer reading with its sample interval."""

    gyro: np.ndarray
    accel: np.ndarray
    dt: float

    def __post_init__(self):
        self.gyro = check_vector("gyro", self.gyro)
        self.accel = check_vector("accel", self.accel)
        check_nonnegative("dt", self.dt, positive=True)


@dataclass
class FilterState:
    """State of the complementary attitude filter."""

    attitude: Quaternion = field(default_factory=Quaternion.identity)
    correction_gain: float = 2.0
    gyro_bias: np.ndarray = field(default_factory=lambda: np.zeros(3))

    def __post_init__(self):
        self.gyro_bias = check_vector("gyro_bias", self.gyro_bias)
        check_nonnegative("correction_gain", self.correction_gain)


def quat_to_fused(q: Quaternion) -> FusedAngles:
    """Decompose a unit quaternion into fused angles.

    The global z-axis in body coordinates is the third row of the rotation
    matrix; its sagittal component gives sin(pitch), its lateral component
    sin(roll), and its vertical sign the hemisphere.
    """
    if abs(q.norm() - 1.0) > 1e-6:
        raise InvalidInputError(f"quaternion norm {q.norm()} is not 1 within tolerance")
    w, x, y, z = q.w, q.x, q.y, q.z
    sin_pitch = 2.0 * (w * y - x * z)
    sin_roll = 2.0 * (w * x + y * z)
    sin_pitch = min(1.0, max(-1.0, sin_pitch))
    sin_roll = min(1.0, max(-1.0, sin_roll))
    hemi = 1 if (1.0 - 2.0 * (x * x + y * y)) >= 0.0 else -1
    yaw = wrap_angle(2.0 * math.atan2(z, w))
    return FusedAngles(yaw, math.asin(sin_pitch), math.asin(sin_roll), hemi)


def fused_to_quat(f: FusedAngles) -> Quaternion:
    """Reconstruct the quaternion from fused angles (yaw about z, then tilt)."""
    sth = math.sin(f.pitch)
    sph = math.sin(f.roll)
    s2 = sth * sth + sph * sph
    if s2 > 1.0 + 1e-9:
        raise InvalidInputError(f"sin^2(pitch) + sin^2(roll) = {s2} exceeds 1")
    s2 = min(s2, 1.0)
    sin_alpha = math.sqrt(s2)
    cos_alpha = f.hemisphere * math.sqrt(1.0 - s2)
    alpha = math.atan2(sin_alpha, cos_alpha)
    gamma = math.atan2(sth, sph)  # tilt axis azimuth; 0/0 -> 0 for identity
    sa = math.sin(0.5 * alpha)
    tilt = Quaternion(math.cos(0.5 * alpha), sa * math.cos(gamma), sa * math.sin(gamma), 0.0)
    qz = Quaternion(math.cos(0.5 * f.yaw), 0.0, 0.0, math.sin(0.5 * f.yaw))
    return (qz * tilt).normalized()


def fused_deviation(measured: FusedAngles, expected: FusedAngles) -> tuple[float, float]:
    """Deviation of measured fused pitch/roll from the expected values."""
    return measured.pitch - expected.pitch, measured.roll - expected.roll


def _normalized(w, x, y, z) -> tuple:
    """The unit quaternion along (w, x, y, z); identity for a near-zero one."""
    n = math.sqrt(w**2 + x**2 + y**2 + z**2)
    if n < 1e-12:
        return 1.0, 0.0, 0.0, 0.0
    return w / n, x / n, y / n, z / n


def _product(a, b) -> tuple:
    """The normalized Hamilton product a * b of (w, x, y, z) tuples of floats."""
    w1, x1, y1, z1 = a
    w2, x2, y2, z2 = b
    return _normalized(
        w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
        w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
        w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
        w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2,
    )


def _matrix(w, x, y, z) -> np.ndarray:
    """The 3x3 rotation matrix of a unit (w, x, y, z) quaternion of floats."""
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def _rotvec(v: np.ndarray) -> tuple:
    """The (w, x, y, z) quaternion of a float rotation 3-vector (axis * angle)."""
    # np.linalg.norm's formula: BLAS ddot rounds its sum unlike a Python one
    angle = math.sqrt(v.dot(v))
    v0, v1, v2 = v.tolist()
    if angle < 1e-12:
        # first-order expansion keeps tiny increments exact enough
        return _normalized(1.0, 0.5 * v0, 0.5 * v1, 0.5 * v2)
    s = math.sin(0.5 * angle)
    return _normalized(math.cos(0.5 * angle), v0 / angle * s, v1 / angle * s, v2 / angle * s)


def _checked_rotvec(name: str, v: np.ndarray) -> tuple:
    """``_rotvec(v)``; raises InvalidInputError naming ``v`` unless it is a
    3-vector whose squared angle, which _rotvec takes the root of, is finite."""
    with np.errstate(over="ignore"):
        angle_sq = v.dot(v) if v.shape == (3,) else math.nan
    if not math.isfinite(angle_sq):
        raise InvalidInputError(
            f"{name} must be a 3-vector whose squared angle is finite, got {v.tolist()}"
        )
    return _rotvec(v)


def filter_update(s: FilterState, m: ImuSample) -> FilterState:
    """Advance the complementary filter by one IMU sample.

    The attitude is integrated with the bias-corrected gyro rates, then tilted
    toward the accelerometer-implied gravity direction at ``correction_gain``
    per second.  Accelerometer samples with norm below 1 m/s^2 carry no usable
    gravity direction and are skipped.

    The quaternion arithmetic runs on Python floats through the helpers that
    ``Quaternion.normalized``, ``__mul__`` and ``from_rotvec`` call too.
    Raises InvalidInputError if the gyro increment or the tilt correction
    is too large a rotation vector for them.
    """
    a = s.attitude
    with np.errstate(over="ignore"):  # an increment that overflows is named below
        gyro_step = (m.gyro - s.gyro_bias) * m.dt
    step = _checked_rotvec("gyro increment (gyro - gyro_bias) * dt", gyro_step)
    w, x, y, z = _product((a.w, a.x, a.y, a.z), step)

    a_norm = math.sqrt(m.accel.dot(m.accel))
    if a_norm >= 1.0:
        m0, m1, m2 = (m.accel / a_norm).tolist()
        # the global z-axis in body coordinates: q.rotate_inverse([0, 0, 1])
        p0 = 2 * (x * z - w * y)
        p1 = 2 * (y * z + w * x)
        p2 = 1 - 2 * (x * x + y * y)
        k = s.correction_gain * m.dt
        corr = np.array((k * (m1 * p2 - m2 * p1), k * (m2 * p0 - m0 * p2), k * (m0 * p1 - m1 * p0)))
        step = _checked_rotvec("tilt correction (correction_gain * dt) * (accel x up)", corr)
        w, x, y, z = _product((w, x, y, z), step)

    return replace(s, attitude=Quaternion(*_normalized(w, x, y, z)))
