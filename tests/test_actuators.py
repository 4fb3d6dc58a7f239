import math

import numpy as np
import pytest

from gaitlab.actuators import (
    AliasRule,
    GearSpec,
    TorqueModel,
    apply_aliases,
    current_to_torque,
    fit_torque_model,
    gear_pitch_diameter,
    parse_alias_rules,
    rad_to_ticks,
    ticks_to_rad,
)
from gaitlab.errors import ConfigurationError, DegenerateDataError, InvalidInputError

REF_KT = 3.8511  # Nm/A, bench-measured servo torque constant
REF_OFFSET = -0.0821  # Nm, idle-current offset


def test_ticks_center_and_extremes():
    assert ticks_to_rad(2048) == 0.0
    assert abs(ticks_to_rad(4095) - (2047 / 4096) * 2 * math.pi) < 1e-12
    assert abs(ticks_to_rad(0) - (-math.pi)) < 1e-12


def test_ticks_out_of_range():
    with pytest.raises(InvalidInputError):
        ticks_to_rad(4096)
    with pytest.raises(InvalidInputError):
        ticks_to_rad(-1)


def test_ticks_round_trip_exact_on_all_integers():
    for t in range(4096):
        assert rad_to_ticks(ticks_to_rad(t)) == t


def test_current_to_torque_values():
    model = TorqueModel(k_t=REF_KT, offset=REF_OFFSET)
    assert abs(current_to_torque(1.0, model) - 3.7690) < 1e-12
    assert abs(current_to_torque(0.0, model) - REF_OFFSET) < 1e-15
    assert current_to_torque(0.0, TorqueModel(k_t=1.0)) == 0.0


def test_fit_recovers_noiseless_model():
    currents = np.linspace(0.1, 3.0, 25)
    samples = [(i, REF_KT * i + REF_OFFSET) for i in currents]
    model = fit_torque_model(samples)
    assert abs(model.k_t - REF_KT) < 1e-9
    assert abs(model.offset - REF_OFFSET) < 1e-9


def test_fit_two_points():
    model = fit_torque_model([(0.0, 0.0), (1.0, 1.0)])
    assert abs(model.k_t - 1.0) < 1e-15
    assert abs(model.offset) < 1e-15


def normal_equations_fit(currents, torques):
    # brute-force oracle: solve the 2x2 normal equations directly
    a = np.array([[np.sum(currents**2), np.sum(currents)], [np.sum(currents), len(currents)]])
    b = np.array([np.sum(currents * torques), np.sum(torques)])
    return np.linalg.solve(a, b)


def test_fit_noisy_matches_oracle_and_truth():
    rng = np.random.default_rng(1)
    currents = rng.uniform(0.0, 3.0, 100)
    sigma = 0.01
    torques = REF_KT * currents + REF_OFFSET + rng.normal(0, sigma, 100)
    model = fit_torque_model(list(zip(currents, torques)))
    slope, intercept = normal_equations_fit(currents, torques)
    assert abs(model.k_t - slope) < 1e-12
    assert abs(model.offset - intercept) < 1e-12
    # slope standard error is sigma / (sqrt(n) * std(x))
    se = sigma / (math.sqrt(100) * currents.std())
    assert abs(model.k_t - REF_KT) < 3 * se


def test_fit_degenerate_inputs():
    with pytest.raises(DegenerateDataError):
        fit_torque_model([(1.0, 2.0)])
    with pytest.raises(DegenerateDataError):
        fit_torque_model([(1.0, 2.0), (1.0, 2.5)])


def test_alias_copy_and_negate():
    rules = [AliasRule("slave", "copy", "master"), AliasRule("neg", "negate", "master")]
    out = apply_aliases(rules, {"master": 0.5, "other": 1.0})
    assert out["slave"] == 0.5
    assert out["neg"] == -0.5
    assert out["other"] == 1.0  # untouched entries pass through


def test_alias_knee_chain_hand_computed():
    # one knee master drives a copied slave servo, a negated coupling joint,
    # and the 16:30 externally geared hip roll
    rules = parse_alias_rules(
        """
        # knee master-slave pair plus couplings
        knee_slave = copy(knee_master)
        shank_link = negate(knee_master)
        hip_roll_out = scale(hip_roll_servo, 0.53333333333333333)
        """
    )
    positions = {"knee_master": 0.9, "hip_roll_servo": 0.3}
    out = apply_aliases(rules, positions)
    assert out["knee_slave"] == 0.9
    assert out["shank_link"] == -0.9
    assert abs(out["hip_roll_out"] - 0.3 * 16 / 30) < 1e-12


def test_alias_sum_subtract_and_chaining():
    rules = parse_alias_rules(
        "a = sum(x, y)\nb = subtract(a, y)\n"
    )
    out = apply_aliases(rules, {"x": 2.0, "y": 0.5})
    assert out["a"] == 2.5
    assert out["b"] == 2.0  # b depends on the computed a


def test_alias_cycle_detected():
    rules = [AliasRule("a", "copy", "b"), AliasRule("b", "copy", "a")]
    with pytest.raises(ConfigurationError, match="cyclic"):
        apply_aliases(rules, {})


def test_alias_missing_source_named():
    rules = [AliasRule("a", "copy", "ghost")]
    with pytest.raises(ConfigurationError, match="ghost"):
        apply_aliases(rules, {"x": 1.0})


@pytest.mark.parametrize("order", [1, -1])
def test_alias_reads_a_target_given_as_a_position_after_its_rule(order):
    rules = [AliasRule("b", "copy", "a"), AliasRule("a", "scale", "x", factor=2.0)][::order]
    out = apply_aliases(rules, {"a": 1.0, "x": 5.0})
    assert out == {"a": 10.0, "x": 5.0, "b": 10.0}


def test_alias_idempotent_on_own_output():
    rules = [
        AliasRule("s", "copy", "m"),
        AliasRule("n", "negate", "m"),
        AliasRule("g", "scale", "m", factor=0.5),
    ]
    first = apply_aliases(rules, {"m": 0.7})
    second = apply_aliases(rules, first)
    assert first == second


def test_alias_parse_errors():
    with pytest.raises(ConfigurationError, match="line 1"):
        parse_alias_rules("nonsense")
    with pytest.raises(ConfigurationError, match="factor"):
        parse_alias_rules("a = scale(b, not_a_number)")
    with pytest.raises(ConfigurationError, match="unknown kind"):
        parse_alias_rules("a = warp(b)")


def test_gear_pitch_diameter_values():
    psi = math.acos(0.75)  # the chosen helix angle; prints as 41.4096 deg
    assert abs(math.degrees(psi) - 41.4096) < 1e-3
    assert abs(gear_pitch_diameter(GearSpec(30, 1.5, psi)) - 60.0) < 1e-9
    assert abs(gear_pitch_diameter(GearSpec(16, 1.5, psi)) - 32.0) < 1e-9


def test_gear_spur_limit():
    assert gear_pitch_diameter(GearSpec(24, 2.0, 0.0)) == 48.0


def test_gear_diameter_is_double_tooth_count_at_default_module():
    psi = math.acos(0.75)
    for teeth in (16, 21, 30, 40):
        d = gear_pitch_diameter(GearSpec(teeth, 1.5, psi))
        assert abs(d - 2 * teeth) < 1e-9


def test_gear_validation():
    with pytest.raises(InvalidInputError):
        GearSpec(3, 1.5)
    with pytest.raises(InvalidInputError):
        GearSpec(30, -1.0)
    with pytest.raises(InvalidInputError):
        GearSpec(30, 1.5, math.pi / 3)
