import math

import numpy as np
import pytest

from gaitlab.errors import InvalidInputError
from gaitlab.orientation import (
    FilterState,
    FusedAngles,
    ImuSample,
    Quaternion,
    filter_update,
    fused_deviation,
    fused_to_quat,
    quat_to_fused,
    wrap_angle,
)


def random_unit_quat(rng):
    v = rng.normal(size=4)
    v /= np.linalg.norm(v)
    return Quaternion(*v)


def rotation_matrix(q):
    # independent construction for the oracle (third row = global z in body coords)
    w, x, y, z = q.w, q.x, q.y, q.z
    return np.array(
        [
            [1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)],
            [2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)],
            [2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)],
        ]
    )


def test_rotate_inverse_of_rows_matches_one_vector_at_a_time():
    rng = np.random.default_rng(6)
    for n in (1, 3, 30, 500):
        q = random_unit_quat(rng)
        v = rng.normal(size=(n, 3)) * rng.uniform(0.1, 100.0)
        rows = np.array([q.rotate_inverse(row) for row in v])
        assert np.array_equal(q.rotate_inverse(v), rows)  # bit for bit
        assert np.array_equal(rows, np.array([q.to_matrix().T @ row for row in v]))


def test_identity_quaternion_gives_zero_fused():
    f = quat_to_fused(Quaternion(1, 0, 0, 0))
    assert f.yaw == 0 and f.pitch == 0 and f.roll == 0 and f.hemisphere == 1


def test_pure_pitch_rotation():
    q = Quaternion(math.cos(0.15), 0, math.sin(0.15), 0)
    f = quat_to_fused(q)
    assert abs(f.pitch - 0.3) < 1e-12
    assert abs(f.roll) < 1e-12
    assert abs(f.yaw) < 1e-12
    assert f.hemisphere == 1


def test_fused_matches_geometric_oracle():
    rng = np.random.default_rng(42)
    for _ in range(500):
        q = random_unit_quat(rng)
        f = quat_to_fused(q)
        z_body = rotation_matrix(q)[2]  # global z-axis in body coordinates
        assert abs(math.sin(f.pitch) - (-z_body[0])) < 1e-12
        assert abs(math.sin(f.roll) - z_body[1]) < 1e-12
        assert f.hemisphere == (1 if z_body[2] >= 0 else -1)


def test_non_unit_quaternion_rejected():
    with pytest.raises(InvalidInputError):
        quat_to_fused(Quaternion(1.1, 0, 0, 0))


def test_fused_to_quat_identity_and_pure_pitch():
    q = fused_to_quat(FusedAngles(0, 0, 0, 1))
    assert abs(q.w - 1) < 1e-15 and abs(q.x) + abs(q.y) + abs(q.z) < 1e-15
    q = fused_to_quat(FusedAngles(0, 0.3, 0, 1))
    assert abs(q.w - math.cos(0.15)) < 1e-12
    assert abs(q.y - math.sin(0.15)) < 1e-12
    assert abs(q.x) < 1e-12 and abs(q.z) < 1e-12


def test_fused_invariant_violation_rejected():
    with pytest.raises(InvalidInputError):
        FusedAngles(0, 1.2, 1.2, 1)


def sample_valid_fused(rng, hemisphere=1):
    yaw = rng.uniform(-math.pi, math.pi)
    pitch = rng.uniform(-math.pi / 2, math.pi / 2)
    limit = math.sqrt(max(0.0, 1 - math.sin(pitch) ** 2)) * 0.999
    roll = math.asin(rng.uniform(-limit, limit))
    return FusedAngles(yaw, pitch, roll, hemisphere)


def test_round_trip_fused_quat_fused():
    rng = np.random.default_rng(7)
    for _ in range(1000):
        f = sample_valid_fused(rng)
        g = quat_to_fused(fused_to_quat(f))
        assert abs(wrap_angle(g.yaw - f.yaw)) < 1e-9
        assert abs(g.pitch - f.pitch) < 1e-9
        assert abs(g.roll - f.roll) < 1e-9
        assert g.hemisphere == f.hemisphere


def test_quat_fused_quat_round_trip_is_identity_rotation():
    rng = np.random.default_rng(3)
    for _ in range(500):
        q = random_unit_quat(rng)
        if 1 - 2 * (q.x**2 + q.y**2) < 1e-3:  # stay clearly in the upper hemisphere
            continue
        q2 = fused_to_quat(quat_to_fused(q))
        # q and -q are the same rotation
        dot = abs(q.w * q2.w + q.x * q2.x + q.y * q2.y + q.z * q2.z)
        assert abs(dot - 1) < 1e-9


def test_tilt_is_yaw_independent():
    rng = np.random.default_rng(11)
    for _ in range(300):
        q = random_unit_quat(rng)
        f = quat_to_fused(q)
        yaw = rng.uniform(-math.pi, math.pi)
        qz = Quaternion(math.cos(yaw / 2), 0, 0, math.sin(yaw / 2))
        g = quat_to_fused(qz * q)
        assert abs(g.pitch - f.pitch) < 1e-9
        assert abs(g.roll - f.roll) < 1e-9


def test_fused_deviation():
    a = FusedAngles(0, 0.3, -0.05, 1)
    b = FusedAngles(0, 0.2, 0.02, 1)
    assert fused_deviation(a, a) == (0.0, 0.0)
    d_theta, d_phi = fused_deviation(a, b)
    assert abs(d_theta - 0.1) < 1e-15
    assert abs(d_phi - (-0.07)) < 1e-15


def static_sample(pitch, dt=0.01):
    # accelerometer reading of a body statically tilted by the given fused pitch
    g = 9.81
    return ImuSample(
        gyro=np.zeros(3),
        accel=g * np.array([-math.sin(pitch), 0.0, math.cos(pitch)]),
        dt=dt,
    )


def test_filter_fixed_point():
    s = FilterState()
    m = ImuSample(np.zeros(3), np.array([0, 0, 9.81]), 0.01)
    s2 = filter_update(s, m)
    f = quat_to_fused(s2.attitude)
    assert abs(f.pitch) < 1e-12 and abs(f.roll) < 1e-12


def test_filter_pure_gyro_integration():
    s = FilterState()
    m = ImuSample(np.array([0, 0, 0.5]), np.zeros(3), 0.01)  # accel skipped (< 1 m/s^2)
    for _ in range(100):
        s = filter_update(s, m)
    f = quat_to_fused(s.attitude)
    assert abs(f.yaw - 0.5) < 1e-3
    assert abs(f.pitch) < 1e-12


def test_filter_converges_to_static_tilt():
    s = FilterState(correction_gain=2.0)
    m = static_sample(0.2)
    for _ in range(500):  # 5 simulated seconds
        s = filter_update(s, m)
    f = quat_to_fused(s.attitude)
    assert abs(f.pitch - 0.2) < 1e-3
    assert abs(f.roll) < 1e-3


def test_filter_error_decays_monotonically():
    s = FilterState(correction_gain=2.0)
    m = static_sample(0.25)
    errs = []
    for i in range(600):
        s = filter_update(s, m)
        if i % 50 == 0:
            f = quat_to_fused(s.attitude)
            errs.append(abs(f.pitch - 0.25))
    # after the initial transient the error only shrinks
    assert all(b <= a + 1e-12 for a, b in zip(errs[1:], errs[2:]))


def test_filter_norm_stays_unit_over_many_updates():
    rng = np.random.default_rng(0)
    s = FilterState()
    for _ in range(100_000):
        m = ImuSample(rng.normal(0, 0.5, 3), rng.normal(0, 1, 3) + [0, 0, 9.81], 0.01)
        s = filter_update(s, m)
        assert abs(s.attitude.norm() - 1.0) < 1e-9


def test_bias_is_subtracted():
    bias = np.array([0.0, 0.0, 0.5])
    s = FilterState(gyro_bias=bias)
    m = ImuSample(bias, np.zeros(3), 0.01)
    for _ in range(50):
        s = filter_update(s, m)
    assert abs(quat_to_fused(s.attitude).yaw) < 1e-12


def test_imu_sample_validation():
    with pytest.raises(InvalidInputError):
        ImuSample(np.zeros(3), np.zeros(3), 0.0)
    with pytest.raises(InvalidInputError):
        ImuSample(np.zeros(3), np.zeros(3), float("nan"))
