"""Bipedal gait synthesis, fused-angle feedback stabilization, and
sample-efficient Bayesian optimization of the feedback gains across a
simulated/"real" plant pair, closed at desk scale by a surrogate torso
simulator."""

from ._accel import NUMBA_ENABLED
from .actuators import (
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
from .bayesopt import (
    AugmentedPoint,
    CompositeKernel,
    EvalRecord,
    GainProblem,
    OptBudget,
    RqKernelParams,
    composite_kernel,
    evaluate_cost,
    gp_posterior,
    optimize,
    random_search,
    rq_kernel,
    select_next,
)
from .cpg import CpgParams, GaitCommand, evaluate_cpg, step_phase
from .feedback import (
    Activations,
    DeviationFilters,
    FeedbackGains,
    FilterParams,
    IGain,
    PdGains,
    apply_actions,
    compute_activations,
    zero_gains,
)
from .heatmap import (
    CameraIntrinsics,
    CameraPose,
    Detection,
    calibrate_extrinsics,
    connected_components,
    detect_blobs,
    dilate,
    erode,
    project,
    subpixel_centroid,
    threshold,
)
from .numopt import SimplexConfig, SimplexResult, least_squares_line, nelder_mead
from .orientation import (
    FilterState,
    FusedAngles,
    ImuSample,
    Quaternion,
    filter_update,
    fused_deviation,
    fused_to_quat,
    quat_to_fused,
)
from .pose import (
    AbstractPose,
    JointPose,
    LegGeometry,
    abstract_to_joint,
    foot_fk,
    foot_ik,
    joint_to_abstract,
)
from .plant import (
    Disturbance,
    PlantParams,
    RealGap,
    RunTrace,
    TorsoState,
    make_real_plant,
    phase_plot_series,
    run_sequence,
    standard_test_sequence,
    step_plant,
)

__version__ = "0.1.0"
