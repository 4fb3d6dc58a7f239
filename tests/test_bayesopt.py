import math
from dataclasses import replace

import numpy as np
import pytest

from gaitlab import _kernels
from gaitlab.bayesopt import (
    REAL,
    SIM,
    AugmentedPoint,
    CompositeKernel,
    EvalRecord,
    GainProblem,
    OptBudget,
    RqKernelParams,
    composite_gram,
    composite_kernel,
    evaluate_cost,
    gp_posterior,
    history_to_csv,
    optimize,
    random_search,
    rq_kernel,
    select_next,
)
from gaitlab.cpg import CpgParams, GaitCommand
from gaitlab.errors import BudgetExhaustedError, InvalidInputError
from gaitlab.feedback import zero_gains
from gaitlab.plant import PlantParams, make_real_plant, run_sequence


def make_problem(**kwargs):
    sim = PlantParams(seed=0)
    defaults = dict(sim_plant=sim, real_plant=make_real_plant(sim))
    defaults.update(kwargs)
    return GainProblem(**defaults)


def test_rq_kernel_zero_distance_is_variance():
    p = RqKernelParams(variance=2.5, length_scale=0.7, shape=1.3)
    assert rq_kernel([1.0, 2.0], [1.0, 2.0], p) == 2.5


def test_rq_kernel_arithmetic():
    p = RqKernelParams(variance=1.0, length_scale=1.0, shape=1.0)
    assert abs(rq_kernel([0.0], [1.0], p) - 2.0 / 3.0) < 1e-15


def test_rq_kernel_large_shape_approaches_squared_exponential():
    p = RqKernelParams(variance=1.0, length_scale=0.8, shape=1e6)
    for r in (0.3, 0.9, 1.7):
        se = math.exp(-(r**2) / (2 * 0.8**2))
        assert abs(rq_kernel([0.0], [r], p) - se) < 1e-4


def test_rq_kernel_dimension_mismatch():
    with pytest.raises(InvalidInputError):
        rq_kernel([1.0], [1.0, 2.0], RqKernelParams())


def test_composite_kernel_case_table():
    k = CompositeKernel(
        k_sim=RqKernelParams(variance=1.0),
        k_eps=RqKernelParams(variance=0.25),
    )
    x = np.array([0.4, 0.6])
    both_sim = composite_kernel(AugmentedPoint(x, SIM), AugmentedPoint(x, SIM), k)
    both_real = composite_kernel(AugmentedPoint(x, REAL), AugmentedPoint(x, REAL), k)
    mixed = composite_kernel(AugmentedPoint(x, SIM), AugmentedPoint(x, REAL), k)
    assert both_sim == 1.0
    assert both_real == 1.25
    assert mixed == both_sim


def test_composite_gram_psd_and_case_structure():
    rng = np.random.default_rng(0)
    k = CompositeKernel()
    x = rng.uniform(0, 1, (200, 3))
    real = rng.random(200) < 0.5
    gram = composite_gram(x, real, x, real, k)
    eigmin = np.linalg.eigvalsh(gram).min()
    assert eigmin >= -1e-8
    sim_only = composite_gram(x, np.zeros(200, bool), x, np.zeros(200, bool), k)
    eps = np.outer(real, real) * composite_gram(x, np.zeros(200, bool), x, np.zeros(200, bool),
                                                CompositeKernel(k_sim=k.k_eps))
    assert np.allclose(gram, sim_only + eps, atol=1e-12)


def test_gp_interpolates_single_noiseless_record():
    k = CompositeKernel()
    rec = EvalRecord(AugmentedPoint(np.array([0.5, 0.5]), SIM), (1.7, 0.4))
    mean, var = gp_posterior([rec], k, 0.0, AugmentedPoint(np.array([0.5, 0.5]), SIM))
    assert abs(mean - 1.7) < 1e-9
    assert abs(var) < 1e-9


def test_gp_matches_two_point_closed_form():
    k = CompositeKernel()
    x1, x2 = np.array([0.0]), np.array([1.0])
    y = np.array([1.0, -1.0])
    noise = 0.01
    recs = [
        EvalRecord(AugmentedPoint(x1, SIM), (y[0], 0.0)),
        EvalRecord(AugmentedPoint(x2, SIM), (y[1], 0.0)),
    ]
    q = np.array([0.3])
    # hand-solved 2x2 GP regression
    k11 = rq_kernel(x1, x1, k.k_sim) + noise
    k12 = rq_kernel(x1, x2, k.k_sim)
    k22 = rq_kernel(x2, x2, k.k_sim) + noise
    kq = np.array([rq_kernel(q, x1, k.k_sim), rq_kernel(q, x2, k.k_sim)])
    kmat = np.array([[k11, k12], [k12, k22]])
    alpha = np.linalg.solve(kmat, y)
    want_mean = kq @ alpha
    want_var = rq_kernel(q, q, k.k_sim) - kq @ np.linalg.solve(kmat, kq)
    mean, var = gp_posterior(recs, k, noise, AugmentedPoint(q, SIM))
    assert abs(mean - want_mean) < 1e-12
    assert abs(var - want_var) < 1e-12


def test_gp_reverts_to_prior_far_away():
    k = CompositeKernel()
    rec = EvalRecord(AugmentedPoint(np.array([0.0]), SIM), (2.0, 0.0))
    prior = k.k_sim.variance
    _, var = gp_posterior([rec], k, 1e-6, AugmentedPoint(np.array([50.0]), SIM))
    assert abs(var - prior) / prior < 0.01


def test_gp_variance_nonnegative_everywhere():
    rng = np.random.default_rng(5)
    k = CompositeKernel()
    recs = [
        EvalRecord(
            AugmentedPoint(rng.uniform(0, 1, 2), REAL if rng.random() < 0.5 else SIM),
            (rng.normal(), 0.0),
        )
        for _ in range(30)
    ]
    for _ in range(100):
        _, var = gp_posterior(recs, k, 1e-4, AugmentedPoint(rng.uniform(0, 1, 2), SIM))
        assert var >= 0.0


def test_gp_handles_duplicate_points_via_jitter():
    k = CompositeKernel()
    x = np.array([0.5])
    recs = [
        EvalRecord(AugmentedPoint(x, SIM), (1.0, 0.0)),
        EvalRecord(AugmentedPoint(x, SIM), (1.2, 0.0)),
    ]
    mean, var = gp_posterior(recs, k, 0.0, AugmentedPoint(x, SIM))
    assert 0.9 < mean < 1.3
    assert var >= 0.0


def quiet_trace(e_alpha, e_beta, dt=0.01, fall=False):
    n = len(e_alpha)
    trace = run_sequence(
        zero_gains(), CpgParams(), [(GaitCommand(), n * dt)],
        PlantParams(noise_std=0.0, gait_coupling=0.0, seed=0),
    )
    return replace(
        trace,
        e_p_alpha=np.asarray(e_alpha, float),
        e_p_beta=np.asarray(e_beta, float),
        fall=fall,
    )


def test_cost_of_constant_feedback():
    n = 501  # spans exactly 5 s
    trace = quiet_trace(np.full(n, 0.3), np.zeros(n))
    j_alpha, j_beta = evaluate_cost(trace, 0.0, [0.0])
    assert abs(j_alpha - 0.3 * 5.0) < 1e-12
    assert j_beta == 0.0


def test_cost_regularizer_only():
    n = 101
    trace = quiet_trace(np.zeros(n), np.zeros(n))
    j_alpha, j_beta = evaluate_cost(trace, 1.0, [0.3, 0.4])
    assert abs(j_alpha - 0.25) < 1e-15
    assert abs(j_beta - 0.25) < 1e-15


def test_cost_matches_reintegration_oracle():
    prob = make_problem()
    trace = prob._run(prob.default_x(), prob.real_plant, 123)
    j_alpha, j_beta = evaluate_cost(trace, 0.0, [0.0, 0.0])
    # independent trapezoid re-integration of the stored series
    for series, got in ((trace.e_p_alpha, j_alpha), (trace.e_p_beta, j_beta)):
        acc = 0.0
        for a, b in zip(series, series[1:]):
            acc += 0.5 * (abs(a) + abs(b)) * trace.dt
        assert abs(acc - got) < 1e-12


def test_cost_resampling_refinement_invariance():
    t_coarse = np.linspace(0, 5, 501)
    t_fine = np.linspace(0, 5, 2001)
    f = lambda t: np.abs(np.sin(3 * t)) * 0.2
    coarse = quiet_trace(f(t_coarse), np.zeros_like(t_coarse))
    fine = replace(quiet_trace(f(t_fine[:500]), np.zeros(500)),
                   e_p_alpha=f(t_fine), e_p_beta=np.zeros_like(t_fine), dt=0.0025)
    j_coarse, _ = evaluate_cost(coarse, 0.0, [0.0])
    j_fine, _ = evaluate_cost(fine, 0.0, [0.0])
    assert abs(j_coarse - j_fine) / j_fine < 1e-3


def test_cost_fall_penalty():
    n = 101
    trace = quiet_trace(np.full(n, 0.1), np.zeros(n), fall=True)
    j_alpha, j_beta = evaluate_cost(trace, 0.0, [0.0], fall_penalty=50.0)
    assert abs(j_alpha - (0.1 * 1.0 + 50.0)) < 1e-12
    assert abs(j_beta - 50.0) < 1e-12


def seeded_records(n, rng, d=2):
    recs = []
    for i in range(n):
        delta = REAL if i % 3 == 0 else SIM
        recs.append(
            EvalRecord(AugmentedPoint(rng.uniform(0, 6, d), delta), (rng.uniform(0, 2), 0.5))
        )
    return recs


def test_select_next_budget_contracts():
    rng = np.random.default_rng(9)
    bounds = np.array([[0.0, 6.0], [0.0, 4.0]])
    k = CompositeKernel()
    recs = seeded_records(10, rng)
    with pytest.raises(BudgetExhaustedError):
        select_next(recs, k, bounds, OptBudget(max_real=3, max_total=10))
    # real budget exhausted: delta is always sim
    budget = OptBudget(max_real=4, max_total=40, sim_bias_weight=1.0)
    for seed in range(5):
        pt = select_next(recs, k, bounds, budget, seed=seed)
        assert pt.delta == SIM
    # infinite bias weight: sim even with plenty of real budget
    budget = OptBudget(max_real=15, max_total=40, sim_bias_weight=math.inf)
    assert select_next(recs, k, bounds, budget, seed=0).delta == SIM


def test_select_next_explores_away_from_single_record():
    bounds = np.array([[-1.0, 1.0], [-1.0, 1.0]])
    rec = EvalRecord(AugmentedPoint(np.zeros(2), SIM), (1.0, 1.0))
    pt = select_next([rec], CompositeKernel(), bounds, OptBudget(), seed=3)
    assert np.linalg.norm(pt.x) > 1e-3
    assert np.all(pt.x >= bounds[:, 0]) and np.all(pt.x <= bounds[:, 1])


def test_optimize_with_zero_real_budget():
    prob = make_problem()
    res = optimize(prob, OptBudget(max_real=0, max_total=20), seed=1)
    assert res.real_count == 0
    assert res.sim_count == 20
    assert res.best_delta == SIM


def test_optimize_respects_real_budget_and_improves_on_default():
    prob = make_problem()
    budget = OptBudget(max_real=15, max_total=40)
    res = optimize(prob, budget, seed=2)
    assert res.real_count <= 15
    assert len(res.history) == 40
    from gaitlab.bayesopt import _derived_seed

    default_cost = prob.evaluate(prob.default_x(), REAL, _derived_seed(2, 1, 0))
    assert res.best_cost <= default_cost[0]
    # real evaluations never exceed the budget at any point in the history
    running = 0
    for rec in res.history:
        running += rec.point.delta == REAL
        assert running <= 15


def test_optimize_is_deterministic():
    prob = make_problem()
    res1 = optimize(prob, OptBudget(max_real=4, max_total=12), seed=5)
    res2 = optimize(prob, OptBudget(max_real=4, max_total=12), seed=5)
    assert np.array_equal(res1.best_x, res2.best_x)
    for a, b in zip(res1.history, res2.history):
        assert a.point.delta == b.point.delta
        assert np.array_equal(a.point.x, b.point.x)
        assert a.cost == b.cost


def test_random_search_baseline():
    prob = make_problem()
    res = random_search(prob, OptBudget(max_real=6, max_total=20), seed=4)
    assert res.real_count == 6
    assert res.sim_count == 0
    assert res.best_delta == REAL


def test_history_csv_schema(tmp_path):
    prob = make_problem()
    res = optimize(prob, OptBudget(max_total=6, max_real=2), seed=0)
    path = tmp_path / "history.csv"
    history_to_csv(res, prob.param_names, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "iter,delta,arm_angle_y.kp,arm_angle_y.kd,J_alpha,J_beta"
    assert len(lines) == 7


@pytest.mark.parametrize("name", ["arm_angle_y.kq", "arm_angle_z.kp", "frequency", "arm_angle_y"])
def test_gain_problem_rejects_unknown_gain_names(name):
    with pytest.raises(InvalidInputError, match=f"unknown gain.*{name}"):
        make_problem(param_names=("arm_angle_y.kp", name), bounds=[[0.0, 6.0], [0.0, 1.0]])


@pytest.mark.parametrize("bounds, field", [
    ([[-3.0, -1.0], [0.0, 4.0]], "arm_angle_y: gain kp"),
    ([[0.0, 6.0], [-0.5, 4.0]], "arm_angle_y: gain kd"),
    ([[0.0, math.inf], [0.0, 4.0]], "arm_angle_y: gain kp"),
])
def test_gain_problem_rejects_bounds_that_are_not_valid_gains(bounds, field):
    with pytest.raises(InvalidInputError, match=field):
        make_problem(bounds=bounds)


def test_gain_problem_reads_and_writes_gains_through_the_config_map():
    names = ("arm_angle_x.kd", "com_shift_y.ki", "min_timing_factor")
    prob = make_problem(param_names=names, bounds=[[0.0, 1.0], [0.0, 0.1], [0.05, 0.5]])
    assert prob.default_x().tolist() == [0.25, 0.02, 0.1]
    gains = prob.gains_with([0.5, 0.07, 0.3])
    assert (gains.arm_angle_x.kd, gains.com_shift_y.ki, gains.min_timing_factor) == (0.5, 0.07, 0.3)
    assert gains.arm_angle_x.kp == 0.8 and gains.com_shift_y is not prob.base_gains.com_shift_y
    assert prob.base_gains.arm_angle_x.kd == 0.25  # the base gains stay untouched
    with pytest.raises(InvalidInputError, match="com_shift_y: gain ki"):
        prob.gains_with([0.5, math.nan, 0.3])


@pytest.mark.parametrize("kwargs, field", [
    (dict(max_real=0, max_total=0), "max_total"),
    (dict(max_real=-1, max_total=5), "max_real"),
])
def test_budget_rejects_empty_total_and_negative_real(kwargs, field):
    with pytest.raises(InvalidInputError, match=field):
        OptBudget(**kwargs)


def test_random_search_rejects_zero_real_budget():
    with pytest.raises(InvalidInputError, match="max_real >= 1"):
        random_search(make_problem(), OptBudget(max_real=0, max_total=5), seed=0)


def test_cost_runs_never_read_the_pose(monkeypatch):
    def readout(*args):
        raise AssertionError("the cost path read the pose")

    monkeypatch.setattr(_kernels, "pose_readout", readout)
    prob = make_problem()
    prob.evaluate(prob.default_x(), REAL, 3)
    optimize(prob, OptBudget(max_real=1, max_total=3), seed=2)
    random_search(prob, OptBudget(max_real=2, max_total=2), seed=2)
