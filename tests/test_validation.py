"""Range checks reject NaN and infinities, not only out-of-range numbers."""

import math

import numpy as np
import pytest

from gaitlab.actuators import (
    AliasRule,
    GearSpec,
    TorqueModel,
    current_to_torque,
    gear_pitch_diameter,
    parse_alias_rules,
    rad_to_ticks,
    ticks_to_rad,
)
from gaitlab.bayesopt import (
    MAX_TOTAL_CEILING,
    SIM_AVERAGE_CEILING,
    AugmentedPoint,
    CompositeKernel,
    EvalRecord,
    GainProblem,
    OptBudget,
    RqKernelParams,
    evaluate_cost,
    gp_posterior,
    optimize,
    random_search,
    select_next,
)
from gaitlab.cpg import CpgParams, GaitCommand, evaluate_cpg, step_phase
from gaitlab.errors import InvalidInputError
from gaitlab.feedback import Activations, DeviationFilters, zero_gains
from gaitlab.heatmap import CameraIntrinsics, CameraPose, project
from gaitlab.numopt import SimplexConfig
from gaitlab.orientation import FilterState, FusedAngles, ImuSample, Quaternion, filter_update
from gaitlab.plant import PlantParams, make_real_plant, run_sequence
from gaitlab.pose import LegGeometry, foot_ik

nan, inf = math.nan, math.inf


def short_trace():
    return run_sequence(zero_gains(), CpgParams(), [(GaitCommand(), 0.1)], PlantParams())


def one_record():
    return [EvalRecord(AugmentedPoint([0.5, 0.5], "sim"), (1.0, 1.0))]


CASES = [
    ("gear-module-nan", "module", lambda: GearSpec(30, nan)),
    ("gear-module-inf", "module", lambda: GearSpec(30, inf)),
    ("sim-bias-nan", "sim_bias_weight", lambda: OptBudget(sim_bias_weight=nan)),
    ("thigh-nan", "thigh", lambda: LegGeometry(thigh=nan)),
    ("shank-inf", "shank", lambda: LegGeometry(shank=inf)),
    ("focal-nan", "focal", lambda: CameraIntrinsics(nan, 320.0, 240.0)),
    ("focal-inf", "focal", lambda: CameraIntrinsics(inf, 320.0, 240.0)),
    ("cx-nan", "cx", lambda: CameraIntrinsics(500.0, nan, 240.0)),
    ("cy-inf", "cy", lambda: CameraIntrinsics(500.0, 320.0, -inf)),
    ("camera-position-nan", "position", lambda: CameraPose(position=[nan, 0.0, 0.0])),
    ("camera-position-inf", "position", lambda: CameraPose(position=[0.0, inf, 0.0])),
    ("imu-gyro-nan", "gyro", lambda: ImuSample([nan, 0.0, 0.0], [0.0, 0.0, 9.81], 0.01)),
    ("imu-accel-inf", "accel", lambda: ImuSample([0.0, 0.0, 0.0], [0.0, inf, 9.81], 0.01)),
    ("filter-gain-nan", "correction_gain", lambda: FilterState(correction_gain=nan)),
    ("filter-gain-inf", "correction_gain", lambda: FilterState(correction_gain=inf)),
    ("filter-bias-nan", "gyro_bias", lambda: FilterState(gyro_bias=[0.0, nan, 0.0])),
    ("k_t-nan", "k_t", lambda: TorqueModel(k_t=nan)),
    ("k_t-inf", "k_t", lambda: TorqueModel(k_t=inf)),
    ("rq-variance-nan", "variance", lambda: RqKernelParams(variance=nan)),
    ("rq-length-scale-inf", "length_scale", lambda: RqKernelParams(length_scale=inf)),
    ("rq-shape-nan", "shape", lambda: RqKernelParams(shape=nan)),
    ("timing-factor-nan", "timing_factor", lambda: Activations(timing_factor=nan)),
    ("timing-factor-inf", "timing_factor", lambda: Activations(timing_factor=inf)),
    ("simplex-x-tol-nan", "x_tol", lambda: SimplexConfig(x_tol=nan)),
    ("simplex-f-tol-nan", "f_tol", lambda: SimplexConfig(f_tol=nan)),
    ("filters-dt-nan", "dt", lambda: DeviationFilters().update(0.0, 0.0, nan)),
    ("filters-dt-inf", "dt", lambda: DeviationFilters().update(0.0, 0.0, inf)),
    ("step-phase-dt-nan", "dt", lambda: step_phase(0.0, nan, 0.7)),
    ("step-phase-timing-nan", "timing_factor", lambda: step_phase(0.0, 0.01, 0.7, nan)),
    ("regularization-nan", "regularization", lambda: evaluate_cost(short_trace(), nan, [1.0])),
    ("regularization-inf", "regularization", lambda: evaluate_cost(short_trace(), inf, [1.0])),
    ("cost-gains-nan", "x must be a finite gain vector",
     lambda: evaluate_cost(short_trace(), 0.02, [nan])),
    ("cost-fall-penalty-nan", "fall_penalty",
     lambda: evaluate_cost(short_trace(), 0.02, [1.0], fall_penalty=nan)),
    ("gp-noise-nan", "noise", lambda: gp_posterior(
        one_record(), CompositeKernel(), nan, AugmentedPoint([0.5, 0.5], "sim"))),
    ("ticks-inf", "angle", lambda: rad_to_ticks(inf)),
    ("ticks-minus-inf", "angle", lambda: rad_to_ticks(-inf)),
    ("ticks-nan", "angle", lambda: rad_to_ticks(nan)),
    # the squared angle of the gyro increment overflows
    ("filter-gyro-step-overflow", "gyro increment", lambda: filter_update(
        FilterState(), ImuSample([0.0, 0.0, 1.0], [0.0, 0.0, 9.81], dt=1e300))),
    # correction_gain * dt overflows
    ("filter-correction-overflow", "correction_gain", lambda: filter_update(
        FilterState(correction_gain=1e300), ImuSample([0.0, 0.0, 0.0], [1.0, 0.0, 9.81], 1e10))),
    ("filter-attitude-nan", "quaternion w",
     lambda: FilterState(attitude=Quaternion(nan, 0.0, 0.0, 0.0))),
    ("quaternion-inf", "quaternion z", lambda: Quaternion(1.0, 0.0, 0.0, inf)),
    ("gear-teeth-nan", "tooth count", lambda: gear_pitch_diameter(GearSpec(teeth=nan, module=1.0))),
    ("gear-teeth-float", "tooth count", lambda: GearSpec(teeth=4.5, module=1.0)),
    ("ticks-float", "ticks", lambda: ticks_to_rad(2048.7)),
    ("ticks-bool", "ticks", lambda: ticks_to_rad(True)),
    ("torque-offset-nan", "offset", lambda: TorqueModel(1.0, offset=nan)),
    ("current-nan", "current", lambda: current_to_torque(nan, TorqueModel(1.0))),
    ("alias-factor-nan", "factor", lambda: AliasRule("b", "scale", "a", factor=nan)),
    ("alias-text-factor-nan", "factor", lambda: parse_alias_rules("b = scale(a, nan)")),
    ("foot-ik-target-nan", "target", lambda: foot_ik([nan, 0.0, -0.5], LegGeometry())),
    ("project-point-nan", "point", lambda: project([nan, 0.0, 1.0], CameraPose())),
    ("fused-yaw-nan", "yaw", lambda: FusedAngles(yaw=nan)),
    ("step-phase-mu-nan", "mu", lambda: step_phase(nan, 0.01, 0.7)),
    ("step-phase-frequency-nan", "frequency", lambda: step_phase(0.0, 0.01, nan)),
    ("cpg-mu-inf", "mu", lambda: evaluate_cpg(inf, GaitCommand(), CpgParams())),
]


@pytest.mark.parametrize("field, make", [c[1:] for c in CASES], ids=[c[0] for c in CASES])
def test_range_check_rejects_non_finite(field, make):
    with pytest.raises(InvalidInputError, match=field):
        make()


@pytest.mark.parametrize("field, make", [
    ("gyro", lambda: ImuSample([0.0, 0.5], [0.0, 0.0, 9.81], 0.01)),
    ("accel", lambda: ImuSample([0.0, 0.0, 0.0], [[0.0, 0.0, 9.81]], 0.01)),
    ("gyro_bias", lambda: FilterState(gyro_bias=np.zeros(4))),
    ("camera position", lambda: CameraPose(position=[1.0, 2.0])),
], ids=["imu-gyro-2", "imu-accel-1x3", "filter-bias-4", "camera-position-2"])
def test_vector_inputs_must_be_3_vectors(field, make):
    # a wrong shape used to pass and fail later in a broadcast, or never
    with pytest.raises(InvalidInputError, match=f"{field} must be a finite 3-vector, got"):
        make()


def test_infinite_sim_bias_still_means_never_real():
    assert OptBudget(sim_bias_weight=inf).sim_bias_weight == inf


def test_finite_values_still_pass():
    assert GearSpec(30, 1.5).module == 1.5
    assert rad_to_ticks(0.0) == 2048
    assert ticks_to_rad(np.int64(2048)) == 0.0
    assert gear_pitch_diameter(GearSpec(np.int64(30), 1.5)) == 45.0
    assert Quaternion(1.0, 0.0, 0.0, 0.0).norm() == 1.0
    assert np.isfinite(evaluate_cost(short_trace(), 0.0, [1.0])).all()
    top = OptBudget(max_real=np.int64(2), max_total=MAX_TOTAL_CEILING,
                    sim_average_n=SIM_AVERAGE_CEILING)
    assert (top.max_real, top.max_total, top.sim_average_n) == (2, 500, 50)


def propose(bounds, seed=0):
    return select_next(one_record(), CompositeKernel(), bounds, OptBudget(), seed)


def problem(**kwargs):
    return GainProblem(sim_plant=PlantParams(), real_plant=make_real_plant(PlantParams()), **kwargs)


UNIT = np.array([[0.0, 1.0], [0.0, 1.0]])
OPTIMIZER_CASES = [
    ("bounds-nan", "bounds must be finite", lambda: propose(np.array([[0.0, nan], [0.0, 1.0]]))),
    ("bounds-inf", "bounds must be finite", lambda: propose(np.array([[0.0, inf], [0.0, 1.0]]))),
    ("bounds-span-overflow", "finite with finite hi - lo",
     lambda: propose(np.array([[-1e308, 1e308], [0.0, 1.0]]))),
    ("bounds-flat", "lo < hi", lambda: propose(np.array([[0.5, 0.5], [0.0, 1.0]]))),
    ("bounds-1d", r"one \(lo, hi\) row per gain", lambda: propose(np.array([0.0, 1.0]))),
    ("problem-bounds-nan", "bounds must be finite", lambda: problem(bounds=[[0.0, nan], [0.0, 1.0]])),
    ("problem-bounds-inf", "bounds must be finite", lambda: problem(bounds=[[0.0, inf], [0.0, 4.0]])),
    ("problem-bounds-flat", "lo < hi", lambda: problem(bounds=[[0.0, 1.0], [2.0, 1.0]])),
    ("problem-bounds-1d", r"one \(lo, hi\) row per gain", lambda: problem(bounds=[0.0, 1.0])),
    ("problem-bounds-rows", "bounds has 3 rows for 2 param_names",
     lambda: problem(bounds=[[0.0, 1.0]] * 3)),
    ("record-dimension", "record 0 has 2 gains, the bounds 3 rows",
     lambda: propose(np.array([[0.0, 1.0]] * 3))),
    ("select-next-seed", "seed must be >= 0", lambda: propose(UNIT, seed=-1)),
    ("optimize-seed", "seed must be >= 0", lambda: optimize(problem(), seed=-1)),
    ("random-search-seed", "seed must be >= 0", lambda: random_search(problem(), seed=-1)),
    # int() would truncate a float seed and read True as 1
    ("select-next-seed-float", "seed must be an integer, got 1.5", lambda: propose(UNIT, seed=1.5)),
    ("select-next-seed-bool", "seed must be an integer, got True", lambda: propose(UNIT, seed=True)),
    ("optimize-seed-float", "seed must be an integer, got 1.5",
     lambda: optimize(problem(), seed=1.5)),
    ("optimize-seed-bool", "seed must be an integer, got True",
     lambda: optimize(problem(), seed=True)),
    ("random-search-seed-float", "seed must be an integer, got 1.5",
     lambda: random_search(problem(), seed=1.5)),
    ("random-search-seed-bool", "seed must be an integer, got True",
     lambda: random_search(problem(), seed=True)),
    ("plant-seed", "seed must be >= 0, got -1", lambda: PlantParams(seed=-1)),
    ("plant-seed-float", "seed must be an integer, got 1.5", lambda: PlantParams(seed=1.5)),
    ("budget-real-float", "max_real must be an integer", lambda: OptBudget(max_real=1.5)),
    ("budget-total-float", "max_total must be an integer", lambda: OptBudget(max_total=2.5)),
    ("budget-sim-average-float", "sim_average_n must be an integer",
     lambda: OptBudget(sim_average_n=2.5)),
    ("budget-total-ceiling", f"max_total must be <= {MAX_TOTAL_CEILING}, got {MAX_TOTAL_CEILING + 1}",
     lambda: OptBudget(max_total=MAX_TOTAL_CEILING + 1)),
    ("budget-sim-average-ceiling",
     f"sim_average_n must be <= {SIM_AVERAGE_CEILING}, got {SIM_AVERAGE_CEILING + 1}",
     lambda: OptBudget(sim_average_n=SIM_AVERAGE_CEILING + 1)),
    ("record-one-cost", r"cost must be \(J_alpha, J_beta\)",  # history.csv writes both
     lambda: EvalRecord(AugmentedPoint([0.5, 0.5], "sim"), (1.0,))),
    ("point-nan", "x must be a finite gain vector", lambda: AugmentedPoint([nan, 0.5], "sim")),
    ("point-matrix", "x must be a finite gain vector", lambda: AugmentedPoint(UNIT, "sim")),
]


@pytest.mark.parametrize("cause, make", [c[1:] for c in OPTIMIZER_CASES],
                         ids=[c[0] for c in OPTIMIZER_CASES])
def test_optimizer_rejects_bad_input_naming_the_cause(cause, make):
    # raw numpy errors and RuntimeWarnings (errors under this suite) fail the match
    with pytest.raises(InvalidInputError, match=cause):
        make()
