import math
from dataclasses import fields

import numpy as np
import pytest

from gaitlab import _kernels
from gaitlab.cpg import CpgParams, GaitCommand, evaluate_cpg, step_phase
from gaitlab.errors import InvalidInputError
from gaitlab.pose import AbstractArm, AbstractLimb, AbstractPose


def test_step_phase_linear_increment():
    f = 0.02 / (2 * math.pi * 0.01)  # frequency making the increment exactly 0.02
    assert abs(step_phase(0.0, 0.01, f) - 0.02) < 1e-15


def test_step_phase_wraps_past_pi():
    f = 0.02 / (2 * math.pi * 0.01)
    mu = step_phase(math.pi - 0.01, 0.01, f)
    assert abs(mu - (-math.pi + 0.01)) < 1e-12


def test_step_phase_timing_factor():
    f = 0.02 / (2 * math.pi * 0.01)
    assert abs(step_phase(0.0, 0.01, f, timing_factor=2.0) - 0.04) < 1e-15
    with pytest.raises(InvalidInputError):
        step_phase(0.0, 0.01, f, timing_factor=0.0)
    with pytest.raises(InvalidInputError):
        step_phase(0.0, -0.01, f)


def test_zero_command_zero_amplitudes_returns_halt():
    params = CpgParams(
        lift_amplitude=0.0,
        swing_amplitude=0.0,
        lateral_sway_amplitude=0.0,
        arm_swing_amplitude=0.0,
    )
    # limbs straight down, legs retracted by halt_eta and arms by halt_arm_eta
    halt = AbstractPose(
        left_leg=AbstractLimb(eta=0.1),
        right_leg=AbstractLimb(eta=0.1),
        left_arm=AbstractArm(eta=0.05),
        right_arm=AbstractArm(eta=0.05),
    ).to_array()
    for mu in np.linspace(-math.pi, math.pi, 17):
        pose = evaluate_cpg(mu, GaitCommand(), params)
        assert np.array_equal(pose.to_array(), halt)


def test_params_array_is_the_fields_in_declaration_order():
    params = CpgParams(halt_eta=0.3, lift_amplitude=0.07, frequency=1.1)
    # the order the kernels unpack the tuple in
    names = ("halt_eta", "halt_arm_eta", "lift_amplitude", "swing_amplitude",
             "lateral_sway_amplitude", "arm_swing_amplitude", "double_support_fraction",
             "frequency")
    assert tuple(f.name for f in fields(params)) == names
    assert _kernels.float_tuple(params) == tuple(getattr(params, name) for name in names)


def test_lift_waveforms_are_half_cycle_shifted():
    params = CpgParams()
    for mu in np.linspace(-math.pi, math.pi, 40):
        a = evaluate_cpg(mu, GaitCommand(), params)
        b = evaluate_cpg(mu + math.pi, GaitCommand(), params)
        assert abs(a.left_leg.eta - b.right_leg.eta) < 1e-12


def test_swing_peak_to_peak_scales_with_command():
    params = CpgParams()
    grid = np.linspace(-math.pi, math.pi, 4001)
    ly = [evaluate_cpg(mu, GaitCommand(vx=0.5), params).left_leg.ly for mu in grid]
    p2p = max(ly) - min(ly)
    assert abs(p2p - 2 * params.swing_amplitude * 0.5) < 1e-4


def test_periodicity():
    params = CpgParams()
    cmd = GaitCommand(vx=0.3, vy=-0.2, wz=0.4)
    for mu in np.linspace(-math.pi, math.pi, 23):
        a = evaluate_cpg(mu, cmd, params).to_array()
        b = evaluate_cpg(mu + 2 * math.pi, cmd, params).to_array()
        assert np.max(np.abs(a - b)) < 1e-9


def mirror_pose_array(arr):
    out = np.empty_like(arr)
    out[0:6], out[6:12] = arr[6:12].copy(), arr[0:6].copy()
    out[12:15], out[15:18] = arr[15:18].copy(), arr[12:15].copy()
    for idx in (0, 2, 3, 6, 8, 9, 12, 15):
        out[idx] = -out[idx]
    return out


def test_left_right_mirror_under_half_cycle_shift():
    params = CpgParams()
    cmd = GaitCommand(vx=0.6)
    for mu in np.linspace(-math.pi, math.pi, 57):
        shifted = evaluate_cpg(mu + math.pi, cmd, params).to_array()
        mirrored = mirror_pose_array(evaluate_cpg(mu, cmd, params).to_array())
        assert np.max(np.abs(shifted - mirrored)) < 1e-9


def test_no_discontinuities_on_fine_grid():
    params = CpgParams()
    cmd = GaitCommand(vx=1.0, vy=1.0, wz=1.0)
    grid = np.arange(-math.pi, math.pi + 2e-3, 1e-3)
    poses = np.array([evaluate_cpg(mu, cmd, params).to_array() for mu in grid])
    max_amp = max(
        params.lift_amplitude,
        params.swing_amplitude,
        params.lateral_sway_amplitude,
        params.arm_swing_amplitude,
    )
    step = np.max(np.abs(np.diff(poses, axis=0)))
    assert step < 10 * max_amp  # catches jumps, not slopes


def test_eta_stays_in_unit_interval():
    params = CpgParams(halt_eta=0.3, lift_amplitude=1.0 - 0.3)
    for mu in np.linspace(-math.pi, math.pi, 999):
        pose = evaluate_cpg(mu, GaitCommand(), params)
        for eta in (pose.left_leg.eta, pose.right_leg.eta):
            assert -1e-12 <= eta <= 1.0 + 1e-12


def test_command_clamping():
    cmd = GaitCommand(vx=2.0, vy=-3.0, wz=0.5)
    assert cmd.vx == 1.0 and cmd.vy == -1.0 and cmd.wz == 0.5


@pytest.mark.parametrize("name", ["vx", "vy", "wz"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_command_rejects_non_finite_components(name, bad):
    # max(-1.0, nan) is -1.0: unchecked, a NaN vx would walk backward at full speed
    with pytest.raises(InvalidInputError, match=f"walk command {name} must be finite"):
        GaitCommand(**{name: bad})


def test_params_validation():
    with pytest.raises(InvalidInputError):
        CpgParams(lift_amplitude=-0.1)
    with pytest.raises(InvalidInputError):
        CpgParams(double_support_fraction=0.5)
    with pytest.raises(InvalidInputError):
        CpgParams(frequency=0.0)
    for eta in (-0.1, 1.5):
        with pytest.raises(InvalidInputError, match="halt leg retraction"):
            CpgParams(halt_eta=eta)
        with pytest.raises(InvalidInputError, match="halt arm retraction"):
            CpgParams(halt_arm_eta=eta)


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_params_reject_non_finite(bad):
    for name in ("halt_eta", "halt_arm_eta", "lift_amplitude", "swing_amplitude",
                 "lateral_sway_amplitude", "arm_swing_amplitude", "double_support_fraction",
                 "frequency"):
        with pytest.raises(InvalidInputError):
            CpgParams(**{name: bad})
