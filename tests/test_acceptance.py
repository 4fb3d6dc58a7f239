"""Acceptance suite: one test per release criterion, one printed line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the line per
criterion; every tolerance is asserted exactly as stated.
"""

import functools
import math
import time

import numpy as np

from gaitlab.actuators import GearSpec, fit_torque_model, gear_pitch_diameter
from gaitlab.bayesopt import (
    REAL,
    CompositeKernel,
    GainProblem,
    OptBudget,
    composite_gram,
    optimize,
    random_search,
    rq_kernel,
    _derived_seed,
)
from gaitlab.cpg import CpgParams, evaluate_cpg
from gaitlab.feedback import FeedbackGains, zero_gains
from gaitlab.heatmap import (
    CameraIntrinsics,
    CameraPose,
    calibrate_extrinsics,
    connected_components,
    detect_blobs,
    project,
)
from gaitlab.numopt import SimplexConfig, nelder_mead
from gaitlab.orientation import (
    FilterState,
    FusedAngles,
    ImuSample,
    Quaternion,
    filter_update,
    fused_to_quat,
    quat_to_fused,
    wrap_angle,
)
from gaitlab.plant import (
    Disturbance,
    PlantParams,
    make_real_plant,
    phase_plot_to_csv,
    run_sequence,
    standard_test_sequence,
)
from gaitlab.pose import ArmJoints, JointPose, LegJoints, abstract_to_joint, joint_to_abstract

KT, OFFSET = 3.8511, -0.0821


def criterion(number, name):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"[acceptance] {number:2d}. {name}: FAIL")
                raise
            print(f"[acceptance] {number:2d}. {name}: PASS")

        return wrapper

    return deco


@criterion(1, "torque calibration recovers the current-torque model")
def test_torque_calibration():
    start = time.monotonic()
    currents = np.linspace(0.05, 3.0, 100)
    noiseless = fit_torque_model([(i, KT * i + OFFSET) for i in currents])
    assert abs(noiseless.k_t - KT) < 1e-9
    assert abs(noiseless.offset - OFFSET) < 1e-9

    rng = np.random.default_rng(0)
    torques = KT * currents + OFFSET + rng.normal(0.0, 0.01, 100)
    noisy = fit_torque_model(list(zip(currents, torques)))
    assert abs(noisy.k_t - KT) < 0.01
    assert abs(noisy.offset - OFFSET) < 0.01
    assert time.monotonic() - start < 1.0


@criterion(2, "gear pitch diameter is exact and doubles the tooth count")
def test_gear_geometry():
    psi = math.acos(0.75)  # the design helix angle; 41.4096 degrees
    assert abs(math.degrees(psi) - 41.4096) < 1e-3
    d = gear_pitch_diameter(GearSpec(30, 1.5, psi))
    assert abs(d - 60.0) < 1e-9
    for teeth, module in ((16, 1.5), (30, 1.5), (21, 3.0), (40, 0.75)):
        d = gear_pitch_diameter(GearSpec(teeth, module, psi))
        assert abs(d - 2 * teeth * (module / 1.5)) < 1e-9


@criterion(3, "joint/abstract pose map round-trips 10,000 poses")
def test_abstract_pose_round_trip():
    rng = np.random.default_rng(1)
    start = time.monotonic()
    # one draw per joint in field order: left leg, right leg, left arm, right arm
    leg_lo, leg_hi = [-1.5, -1.5, -1.5, 0.0, -1.5, -1.5], [1.5, 1.5, 1.5, math.pi - 0.01, 1.5, 1.5]
    arm_lo, arm_hi = [-1.5, -1.5, 0.0], [1.5, 1.5, math.pi - 0.01]
    draws = rng.uniform(leg_lo * 2 + arm_lo * 2, leg_hi * 2 + arm_hi * 2, size=(10_000, 18))
    for row in draws.tolist():
        j = JointPose(LegJoints(*row[0:6]), LegJoints(*row[6:12]),
                      ArmJoints(*row[12:15]), ArmJoints(*row[15:18]))
        j2 = abstract_to_joint(joint_to_abstract(j))
        for attr in ("left_leg", "right_leg"):
            a, b = getattr(j, attr), getattr(j2, attr)
            for f in ("hip_yaw", "hip_roll", "hip_pitch", "knee_pitch", "ankle_pitch", "ankle_roll"):
                assert abs(getattr(a, f) - getattr(b, f)) < 1e-9
        for attr in ("left_arm", "right_arm"):
            a, b = getattr(j, attr), getattr(j2, attr)
            for f in ("shoulder_pitch", "shoulder_roll", "elbow_pitch"):
                assert abs(getattr(a, f) - getattr(b, f)) < 1e-9
    assert time.monotonic() - start < 1.0


@criterion(4, "composite kernel Gram matrix follows the sim/real case table")
def test_composite_kernel_gram():
    rng = np.random.default_rng(2)
    kernel = CompositeKernel()
    x = rng.uniform(-2.0, 2.0, (200, 4))
    real = rng.random(200) < 0.5
    gram = composite_gram(x, real, x, real, kernel)

    assert np.linalg.eigvalsh(gram).min() >= -1e-8

    # case table, exact: mixed-delta entries equal the pure-sim entries,
    # real-real entries exceed them by exactly the error kernel
    all_sim = np.zeros(200, bool)
    sim_gram = composite_gram(x, all_sim, x, all_sim, kernel)
    eps_gram = composite_gram(x, all_sim, x, all_sim, CompositeKernel(k_sim=kernel.k_eps))
    pair_real = np.outer(real, real)
    assert np.array_equal(gram[~pair_real], sim_gram[~pair_real])
    assert np.array_equal(gram[pair_real], (sim_gram + eps_gram)[pair_real])

    # matrix entries agree with the scalar kernel to float round-off
    for _ in range(500):
        i, j = rng.integers(0, 200, 2)
        want = rq_kernel(x[i], x[j], kernel.k_sim)
        assert abs(sim_gram[i, j] - want) <= 4e-16 * max(1.0, abs(want))


@criterion(5, "real-experiment budget holds over 20 seeded optimizations")
def test_budget_invariant():
    sim = PlantParams(seed=0)
    problem = GainProblem(sim_plant=sim, real_plant=make_real_plant(sim))
    budget = OptBudget(max_real=15, max_total=40, sim_average_n=4)
    for seed in range(20):
        result = optimize(problem, budget, seed=seed)
        assert result.real_count <= 15
        running = 0
        for rec in result.history:
            running += rec.point.delta == REAL
            assert running <= 15
        # a sim record's cost is the average of its 4 seeded runs
        sim_rec = next(r for r in result.history if r.point.delta == "sim")
        per_seed = [
            problem.evaluate(sim_rec.point.x, "sim", _derived_seed(seed, 0, k))
            for k in range(4)
        ]
        assert len({c[0] for c in per_seed}) > 1  # distinct seeds, distinct runs
        assert abs(np.mean([c[0] for c in per_seed]) - sim_rec.cost[0]) < 1e-12


@criterion(6, "optimizer beats the default gains and a random-search baseline")
def test_optimizer_efficacy():
    start = time.monotonic()
    sim = PlantParams(seed=0)
    problem = GainProblem(sim_plant=sim, real_plant=make_real_plant(sim))
    budget = OptBudget(max_real=15, max_total=40)
    beats_default = 0
    beats_random = 0
    for seed in range(10):
        result = optimize(problem, budget, seed=seed)
        default_cost = problem.evaluate(problem.default_x(), REAL, _derived_seed(seed, 1, 0))
        if result.best_cost <= default_cost[0]:
            beats_default += 1
        baseline = random_search(problem, budget, seed=seed)
        if result.best_cost <= baseline.best_cost:
            beats_random += 1
    assert beats_default >= 9, f"beat default only {beats_default}/10"
    assert beats_random >= 8, f"beat random search only {beats_random}/10"
    assert time.monotonic() - start < 300.0


@criterion(7, "feedback reduces integrated deviation under a mid-run push")
def test_closed_loop_benefit(tmp_path_factory):
    out = tmp_path_factory.mktemp("phase")
    seq = standard_test_sequence()
    push = [Disturbance(10.0, 9.51, "front")]
    for seed in range(10):
        plant = PlantParams(seed=seed)
        with_fb = run_sequence(FeedbackGains(), CpgParams(), seq, plant, push)
        without = run_sequence(zero_gains(), CpgParams(), seq, plant, push)
        int_with = np.trapezoid(np.abs(with_fb.e_p_alpha), dx=with_fb.dt)
        int_without = np.trapezoid(np.abs(without.e_p_alpha), dx=without.dt)
        assert int_with < int_without
        assert not with_fb.fall
        path = out / f"phase_{seed}.csv"
        phase_plot_to_csv(with_fb, path)
        data = np.loadtxt(path, delimiter=",", skiprows=1)
        assert data.shape[0] == len(with_fb)
        assert np.abs(data[:, 0]).max() < plant.fall_threshold


@criterion(8, "corrective actions are transparent at zero gain and shape timing")
def test_corrective_action_semantics():
    cpg = CpgParams()
    trace = run_sequence(zero_gains(), cpg, standard_test_sequence(), PlantParams(seed=9))
    assert np.all(trace.activations[:, :6] == 0.0)
    assert np.all(trace.activations[:, 6] == 1.0)
    segments = standard_test_sequence()
    bounds = np.cumsum([0.0] + [d for _, d in segments])
    for i in range(0, len(trace), 97):
        t = trace.t[i]
        seg = np.searchsorted(bounds, t, side="right") - 1
        cmd = segments[min(seg, len(segments) - 1)][0]
        open_pose = evaluate_cpg(trace.mu[i], cmd, cpg).to_array()
        assert np.array_equal(trace.pose[i], open_pose)

    from gaitlab.feedback import PdiTerms, compute_activations

    gains = FeedbackGains()
    outward = compute_activations(PdiTerms(), PdiTerms(p=0.1), gains, 1)
    inward = compute_activations(PdiTerms(), PdiTerms(p=-0.1), gains, 1)
    assert outward.timing_factor < 1.0
    assert inward.timing_factor > 1.0


@criterion(9, "sub-pixel centroids and connected components meet their oracles")
def test_subpixel_and_components():
    rng = np.random.default_rng(3)
    for sigma in (1.5, 2.0, 3.0):
        for _ in range(100):
            cx = rng.uniform(6.0, 26.0)
            cy = rng.uniform(6.0, 26.0)
            yy, xx = np.mgrid[0:32, 0:32]
            h = np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma**2))
            dets = detect_blobs(h, t=0.2)
            assert len(dets) == 1
            assert abs(dets[0].cx - cx) <= 0.25
            assert abs(dets[0].cy - cy) <= 0.25

    from test_heatmap import flood_fill_components

    for _ in range(1000):
        shape = (rng.integers(1, 28), rng.integers(1, 28))
        mask = (rng.random(shape) < rng.uniform(0.05, 0.8)).astype(np.uint8)
        got = connected_components(mask)
        want = flood_fill_components(mask)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


@criterion(10, "Nelder-Mead solves Rosenbrock and recovers camera extrinsics")
def test_nelder_mead_and_calibration():
    res = nelder_mead(
        lambda v: (1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2,
        [-1.2, 1.0],
        SimplexConfig(max_iter=500),
    )
    assert res.iterations <= 500
    assert np.max(np.abs(res.x - [1.0, 1.0])) < 1e-4

    rng = np.random.default_rng(4)
    intr = CameraIntrinsics(500.0, 320.0, 240.0)
    true = CameraPose(
        position=np.array([0.12, -0.08, 0.25]),
        orientation=Quaternion.from_rotvec([0.1, -0.15, 0.07]),
        intrinsics=intr,
    )
    world = rng.uniform(-1.0, 1.0, (20, 3))
    world[:, 2] += 4.0
    observations = [(w, project(w, true)) for w in world]
    guess = CameraPose(
        position=true.position + [0.05, 0.05, -0.05],
        orientation=true.orientation * Quaternion.from_rotvec([0.05, 0.04, -0.05]),
        intrinsics=intr,
    )
    result = calibrate_extrinsics(observations, intr, guess)
    assert np.linalg.norm(result.pose.position - true.position) < 1e-3
    q_err = result.pose.orientation.conjugate() * true.orientation
    assert 2 * math.acos(min(1.0, abs(q_err.w))) < 1e-3


@criterion(11, "attitude filter converges and fused conversions round-trip")
def test_attitude_estimation():
    g = 9.81
    for pitch, roll in ((0.2, 0.0), (0.0, -0.15), (0.12, 0.08)):
        q_true = fused_to_quat(FusedAngles(0.0, pitch, roll, 1))
        accel = g * q_true.rotate_inverse(np.array([0.0, 0.0, 1.0]))
        state = FilterState(correction_gain=2.0)
        sample = ImuSample(np.zeros(3), accel, 0.01)
        for _ in range(500):  # 5 simulated seconds
            state = filter_update(state, sample)
        fused = quat_to_fused(state.attitude)
        assert abs(fused.pitch - pitch) < 1e-3
        assert abs(fused.roll - roll) < 1e-3

    rng = np.random.default_rng(5)
    for _ in range(10_000):
        yaw = rng.uniform(-math.pi, math.pi)
        pitch = rng.uniform(-math.pi / 2, math.pi / 2)
        limit = math.sqrt(max(0.0, 1.0 - math.sin(pitch) ** 2)) * 0.999
        roll = math.asin(rng.uniform(-limit, limit))
        f = FusedAngles(yaw, pitch, roll, 1)
        f2 = quat_to_fused(fused_to_quat(f))
        assert abs(wrap_angle(f2.yaw - f.yaw)) < 1e-9
        assert abs(f2.pitch - f.pitch) < 1e-9
        assert abs(f2.roll - f.roll) < 1e-9
