import math

import numpy as np
import pytest

from gaitlab.errors import InvalidInputError
from gaitlab.feedback import (
    Activations,
    DeviationFilters,
    FeedbackGains,
    FilterParams,
    IGain,
    PdGains,
    PdiTerms,
    apply_actions,
    compute_activations,
    zero_gains,
)
from gaitlab.pose import AbstractPose, LegGeometry, foot_fk


def test_zero_input_keeps_all_terms_zero():
    filters = DeviationFilters()
    for _ in range(200):
        pitch, roll = filters.update(0.0, 0.0, 0.01)
    assert pitch.p == pitch.d == pitch.i == 0.0
    assert roll.p == roll.d == roll.i == 0.0


def test_constant_deviation_deadbanded():
    filters = DeviationFilters(FilterParams(deadband=0.02))
    for _ in range(5000):
        pitch, _ = filters.update(0.1, 0.0, 0.01)
    assert abs(pitch.p - 0.08) < 1e-9
    assert abs(pitch.d) < 1e-9


def test_leaky_integral_matches_exponential_closed_form():
    params = FilterParams(smoothing_time=0.05, deadband=0.02, leak_rate=0.2)
    filters = DeviationFilters(params)
    dt = 0.01
    history = []
    for _ in range(6000):
        pitch, _ = filters.update(0.1, 0.0, dt)
        history.append((pitch.p, pitch.i))
    # once the smoothed P has settled, the leaky integral follows the exact
    # solution of di/dt = -leak*i + p from any reference sample
    p_ref, i_ref = history[2999]
    for k in (1, 10, 100, 1000, 3000):
        t = k * dt
        expected = i_ref * math.exp(-params.leak_rate * t) + (
            p_ref / params.leak_rate
        ) * (1 - math.exp(-params.leak_rate * t))
        assert abs(history[2999 + k][1] - expected) < 1e-10
    # and its asymptote is P / leak_rate
    assert abs(history[-1][1] - p_ref / params.leak_rate) < 1e-5


def test_leaky_integral_is_bounded_by_sup_p_over_leak():
    rng = np.random.default_rng(3)
    params = FilterParams(leak_rate=0.5)
    filters = DeviationFilters(params)
    sup_p = 0.0
    for _ in range(20000):
        pitch, roll = filters.update(rng.uniform(-0.4, 0.4), rng.uniform(-0.4, 0.4), 0.01)
        sup_p = max(sup_p, abs(pitch.p), abs(roll.p))
        assert abs(pitch.i) <= sup_p / params.leak_rate + 1e-12
        assert abs(roll.i) <= sup_p / params.leak_rate + 1e-12


def test_update_rejects_bad_dt():
    with pytest.raises(InvalidInputError):
        DeviationFilters().update(0.0, 0.0, 0.0)


def test_zero_terms_give_zero_activations():
    act = compute_activations(PdiTerms(), PdiTerms(), FeedbackGains(), 1)
    assert act.to_array()[:6].tolist() == [0.0] * 6
    assert act.timing_factor == 1.0


def test_forward_lean_raises_arm_angle_y():
    gains = zero_gains()
    gains.arm_angle_y = PdGains(kp=1.0)
    act = compute_activations(PdiTerms(p=0.08), PdiTerms(), gains, 1)
    assert abs(act.arm_angle_y - 0.08) < 1e-15  # backward-correcting direction
    assert act.arm_angle_x == 0.0


def test_outward_tilt_slows_gait_down():
    gains = zero_gains()
    gains.timing_slow_down = 0.5
    # tilting toward the support leg: d_phi and support sign agree
    act = compute_activations(PdiTerms(), PdiTerms(p=0.2), gains, 1)
    assert abs(act.timing_factor - 0.9) < 1e-15


def test_inward_tilt_speeds_gait_up():
    gains = zero_gains()
    gains.timing_speed_up = 0.5
    act = compute_activations(PdiTerms(), PdiTerms(p=-0.2), gains, 1)
    assert abs(act.timing_factor - 1.1) < 1e-15


def test_timing_factor_monotone_and_floored():
    gains = FeedbackGains()
    tilts = np.linspace(-0.5, 0.5, 21)
    factors = [
        compute_activations(PdiTerms(), PdiTerms(p=t), gains, 1).timing_factor
        for t in tilts
    ]
    assert all(b <= a + 1e-15 for a, b in zip(factors, factors[1:]))
    huge = compute_activations(PdiTerms(), PdiTerms(p=50.0), gains, 1).timing_factor
    assert huge == gains.min_timing_factor


def test_integral_terms_feed_the_slow_actions():
    gains = zero_gains()
    gains.cont_foot_angle_x = IGain(ki=0.4)
    gains.com_shift_x = IGain(ki=0.02)
    gains.com_shift_y = IGain(ki=0.03)
    act = compute_activations(PdiTerms(i=1.5), PdiTerms(i=-2.0), gains, -1)
    assert abs(act.cont_foot_angle_x - 0.4 * -2.0) < 1e-15
    assert abs(act.com_shift_x - 0.02 * 1.5) < 1e-15
    assert abs(act.com_shift_y - 0.03 * -2.0) < 1e-15


def test_apply_zero_activations_is_identity():
    pose = AbstractPose()
    pose.left_leg.ly = 0.2
    pose.right_arm.lx = -0.1
    out, saturated = apply_actions(pose, Activations())
    assert np.array_equal(out.to_array(), pose.to_array())
    assert not saturated


def test_arm_angle_moves_both_arms_only():
    pose = AbstractPose()
    out, _ = apply_actions(pose, Activations(arm_angle_y=0.1))
    assert abs(out.left_arm.ly - 0.1) < 1e-15
    assert abs(out.right_arm.ly - 0.1) < 1e-15
    assert np.array_equal(out.to_array()[:12], pose.to_array()[:12])  # legs untouched


def test_support_foot_angle_hits_support_side_only():
    pose = AbstractPose()
    out, _ = apply_actions(pose, Activations(supp_foot_angle_x=0.05), support_leg_sign=1)
    assert abs(out.left_leg.fx - 0.05) < 1e-15
    assert out.right_leg.fx == 0.0
    out, _ = apply_actions(pose, Activations(supp_foot_angle_x=0.05), support_leg_sign=-1)
    assert out.left_leg.fx == 0.0
    assert abs(out.right_leg.fx - 0.05) < 1e-15


def test_continuous_foot_angle_hits_both_feet():
    out, _ = apply_actions(AbstractPose(), Activations(cont_foot_angle_x=0.03))
    assert abs(out.left_leg.fx - 0.03) < 1e-15
    assert abs(out.right_leg.fx - 0.03) < 1e-15


def test_com_shift_displaces_ankle_targets():
    geom = LegGeometry()
    halt_eta = 0.1
    pose = AbstractPose()
    pose.left_leg.eta = pose.right_leg.eta = halt_eta  # legs at the halt retraction
    act = Activations(com_shift_x=0.03, com_shift_y=-0.02)
    out, saturated = apply_actions(pose, act, geom=geom, halt_eta=halt_eta)
    assert not saturated
    # reconstruct the commanded leg chain and check the ankle actually moved
    # opposite to the requested CoM shift
    knee0 = 2 * math.acos(1 - halt_eta)
    dist = math.sqrt(geom.thigh**2 + geom.shank**2 + 2 * geom.thigh * geom.shank * math.cos(knee0))
    leg = out.left_leg
    knee = 2 * math.acos(1 - leg.eta)
    hip_pitch = leg.ly - 0.5 * knee
    ankle = foot_fk(hip_pitch, leg.lx, knee, geom)
    assert np.allclose(ankle, [-0.03, 0.02, -dist], atol=1e-9)
    # both legs get the same displacement
    assert out.left_leg.ly == out.right_leg.ly
    assert out.left_leg.lx == out.right_leg.lx


def test_eta_clamp_sets_saturation_flag():
    pose = AbstractPose()
    pose.left_leg.eta = 0.99
    act = Activations(com_shift_x=0.25)  # large shift retracts past the limit
    out, saturated = apply_actions(pose, act, halt_eta=0.1)
    assert saturated
    assert 0.0 <= out.left_leg.eta <= 1.0


def test_arm_eta_clamp_sets_saturation_flag():
    # the closed loop never moves an arm's retraction off the range-checked
    # halt one, but apply_actions takes any pose
    pose = AbstractPose()
    pose.right_arm.eta = 1.2
    out, saturated = apply_actions(pose, Activations())
    assert saturated
    assert out.right_arm.eta == 1.0 and out.left_arm.eta == 0.0


@pytest.mark.parametrize("halt_eta", [-0.1, 2.5, math.nan])
def test_apply_actions_rejects_halt_eta_outside_unit_interval(halt_eta):
    with pytest.raises(InvalidInputError, match="halt_eta"):
        apply_actions(AbstractPose(), Activations(), halt_eta=halt_eta)


def test_superposition_linearity_of_angle_actions():
    rng = np.random.default_rng(2)
    for _ in range(50):
        pose = AbstractPose.from_array(rng.uniform(-0.3, 0.3, 18).clip(-0.3, 0.3))
        for limb in (pose.left_leg, pose.right_leg, pose.left_arm, pose.right_arm):
            limb.eta = abs(limb.eta)
        a1 = Activations(
            arm_angle_x=rng.normal(0, 0.05),
            arm_angle_y=rng.normal(0, 0.05),
            supp_foot_angle_x=rng.normal(0, 0.05),
            cont_foot_angle_x=rng.normal(0, 0.05),
        )
        a2 = Activations(
            arm_angle_x=rng.normal(0, 0.05),
            arm_angle_y=rng.normal(0, 0.05),
            supp_foot_angle_x=rng.normal(0, 0.05),
            cont_foot_angle_x=rng.normal(0, 0.05),
        )
        summed = Activations(
            arm_angle_x=a1.arm_angle_x + a2.arm_angle_x,
            arm_angle_y=a1.arm_angle_y + a2.arm_angle_y,
            supp_foot_angle_x=a1.supp_foot_angle_x + a2.supp_foot_angle_x,
            cont_foot_angle_x=a1.cont_foot_angle_x + a2.cont_foot_angle_x,
        )
        once, _ = apply_actions(pose, summed, support_leg_sign=1)
        step1, _ = apply_actions(pose, a1, support_leg_sign=1)
        twice, _ = apply_actions(step1, a2, support_leg_sign=1)
        assert np.max(np.abs(once.to_array() - twice.to_array())) < 1e-12


def test_gain_validation():
    with pytest.raises(InvalidInputError):
        PdGains(kp=-0.1)
    with pytest.raises(InvalidInputError):
        FeedbackGains(min_timing_factor=0.0)
    with pytest.raises(InvalidInputError):
        Activations(timing_factor=0.0)
    with pytest.raises(InvalidInputError):
        compute_activations(PdiTerms(), PdiTerms(), FeedbackGains(), 0)


@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_non_finite_gains_and_filter_constants_rejected(bad):
    for make in (
        lambda: PdGains(kp=bad),
        lambda: PdGains(kd=bad),
        lambda: IGain(ki=bad),
        lambda: FeedbackGains(timing_speed_up=bad),
        lambda: FeedbackGains(timing_slow_down=bad),
        lambda: FeedbackGains(min_timing_factor=bad),
        lambda: FilterParams(smoothing_time=bad),
        lambda: FilterParams(deadband=bad),
        lambda: FilterParams(leak_rate=bad),
    ):
        with pytest.raises(InvalidInputError, match="finite"):
            make()
