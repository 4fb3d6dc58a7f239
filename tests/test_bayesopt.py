import contextlib
import glob
import math
import multiprocessing
import os
import signal
import subprocess
import sys
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from gaitlab import _kernels, bayesopt
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
from gaitlab.errors import BudgetExhaustedError, InvalidInputError, NonFiniteStateError
from gaitlab.feedback import zero_gains
from gaitlab.plant import DT, Disturbance, PlantParams, make_real_plant, run_sequence


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


def _broadcast_rq(xa, xb, p):
    r2 = np.sum((xa[:, None, :] - xb[None, :, :]) ** 2, axis=2)
    return p.variance * (1.0 + r2 / (2.0 * p.shape * p.length_scale**2)) ** (-p.shape)


def reference_gram(xa, real_a, xb, real_b, k):
    """The composite gram as an (n, m, d) broadcast with an outer-product gate."""
    gram = _broadcast_rq(xa, xb, k.k_sim)
    gate = np.outer(real_a.astype(float), real_b.astype(float))
    if gate.any():
        gram = gram + gate * _broadcast_rq(xa, xb, k.k_eps)
    return gram


_GATES = {
    "all_sim": (np.zeros(9, bool), np.zeros(7, bool)),
    "all_real": (np.ones(9, bool), np.ones(7, bool)),
    "mixed": (np.arange(9) % 2 == 0, np.arange(7) % 3 != 1),
    "no_rows_a": (np.zeros(0, bool), np.arange(7) % 2 == 0),
    "no_rows_b": (np.arange(9) % 2 == 0, np.zeros(0, bool)),
}


def _gram_case(d, gate):
    real_a, real_b = _GATES[gate]
    rng = np.random.default_rng([d, len(real_a), len(real_b)])
    k = CompositeKernel(k_sim=RqKernelParams(1.3, 0.4, 1.7), k_eps=RqKernelParams(0.3, 0.2, 2.5))
    xa, xb = rng.random((len(real_a), d)), rng.random((len(real_b), d))
    return composite_gram(xa, real_a, xb, real_b, k), reference_gram(xa, real_a, xb, real_b, k)


@pytest.mark.parametrize("gate", sorted(_GATES))
@pytest.mark.parametrize("d", range(1, 8))
def test_composite_gram_is_bit_identical_to_the_broadcast_formula(d, gate):
    gram, ref = _gram_case(d, gate)
    assert gram.shape == ref.shape
    assert np.array_equal(gram, ref)


@pytest.mark.parametrize("gate", sorted(_GATES))
@pytest.mark.parametrize("d", range(8, 11))
def test_composite_gram_agrees_beyond_the_pairwise_sum_threshold(d, gate):
    # np.sum adds 8 or more terms pairwise, so the last bit may differ here
    gram, ref = _gram_case(d, gate)
    np.testing.assert_allclose(gram, ref, rtol=1e-14, atol=0)


def test_composite_gram_rejects_masks_of_the_wrong_length():
    x = np.zeros((4, 2))
    with pytest.raises(InvalidInputError, match="real_a has 3 entries for 4 points"):
        composite_gram(x, np.ones(3, bool), x, np.ones(4, bool), CompositeKernel())
    with pytest.raises(InvalidInputError, match="real_b has 5 entries for 4 points"):
        composite_gram(x, np.ones(4, bool), x, np.ones(5, bool), CompositeKernel())


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


def quiet_trace(e_alpha, e_beta, fall=False):
    n = len(e_alpha)
    trace = run_sequence(
        zero_gains(), CpgParams(), [(GaitCommand(), n * DT)],
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


def test_cost_regularizer_is_the_plain_float_sum_of_squares():
    # a BLAS dot product on FMA kernels rounds this x's sum of squares to ...384
    x = [0.04756886292360285, 2.3200782952813337]
    trace = quiet_trace(np.zeros(101), np.zeros(101))
    assert evaluate_cost(trace, 1.0, x) == (x[0] * x[0] + x[1] * x[1],) * 2


def test_cost_matches_reintegration_oracle():
    prob = make_problem()
    trace = prob._run(prob.default_x(), prob.real_plant, 123)
    j_alpha, j_beta = evaluate_cost(trace, 0.0, [0.0, 0.0])
    # independent trapezoid re-integration of the stored series
    for series, got in ((trace.e_p_alpha, j_alpha), (trace.e_p_beta, j_beta)):
        acc = 0.0
        for a, b in zip(series, series[1:]):
            acc += 0.5 * (abs(a) + abs(b)) * DT
        assert abs(acc - got) < 1e-12


def test_cost_fall_penalty():
    n = 101
    trace = quiet_trace(np.full(n, 0.1), np.zeros(n), fall=True)
    j_alpha, j_beta = evaluate_cost(trace, 0.0, [0.0])
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


def oracle_chol(gram, noise):
    """The jitter ladder as a fresh ``gram + d * eye`` per rung; returns (rung, factor)."""
    for d in [noise] + [j for j in bayesopt._JITTER_LADDER if j > noise]:
        try:
            return d, np.linalg.cholesky(gram + d * np.eye(gram.shape[0]))
        except np.linalg.LinAlgError:
            continue
    raise AssertionError("no rung factored")


def oracle_mutual_information(samples, argmin_idx, noise):
    """The MI with one boolean mask per minimizer group, groups in ascending order."""
    h_cond = np.zeros(samples.shape[1])
    for g in np.unique(argmin_idx):
        mask = argmin_idx == g
        h_cond += mask.sum() / samples.shape[0] * 0.5 * np.log(samples[mask].var(axis=0) + noise)
    return 0.5 * np.log(samples.var(axis=0) + noise) - h_cond


def oracle_select_next(records, kernel, bounds, budget, seed):
    """select_next's proposal and MI vector, the joint prior a stacked [cand; cand] gram."""
    lo, span = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
    rng = np.random.default_rng(np.random.SeedSequence([seed, len(records)]))
    cand = rng.random((bayesopt._N_CANDIDATES, len(bounds)))
    x = (np.array([r.point.x for r in records]) - lo) / span
    real = np.array([r.point.delta == REAL for r in records])
    y = np.array([r.cost[0] for r in records])
    pools = [p for p in (np.flatnonzero(real), np.flatnonzero(~real)) if p.size]
    if pools:
        cand = np.vstack([cand] + [x[p[np.argmin(y[p])]] for p in pools])
    n = len(cand)
    y_std = y.std() if y.std() >= 1e-12 else 1.0
    _, chol = oracle_chol(reference_gram(x, real, x, real, kernel), bayesopt._NOISE)
    alpha = np.linalg.solve(chol.T, np.linalg.solve(chol, (y - y.mean()) / y_std))
    xq, real_q = np.vstack([cand, cand]), np.arange(2 * n) < n
    cross = reference_gram(xq, real_q, x, real, kernel)
    v = np.linalg.solve(chol, cross.T)
    _, chol_q = oracle_chol(reference_gram(xq, real_q, xq, real_q, kernel) - v.T @ v, 1e-10)
    z = cross @ alpha + rng.standard_normal((bayesopt._N_SAMPLES, 2 * n)) @ chol_q.T
    mi = oracle_mutual_information(z, np.argmin(z[:, :n], axis=1), bayesopt._NOISE)
    best_real, best_sim = np.argmax(mi[:n]), np.argmax(mi[n:])
    if real.sum() < budget.max_real and mi[best_real] > budget.sim_bias_weight * mi[n + best_sim]:
        return lo + cand[best_real] * span, REAL, mi
    return lo + cand[best_sim] * span, SIM, mi


@pytest.mark.parametrize("history", ["all_sim", "all_real", "mixed"])
@pytest.mark.parametrize("d", [1, 2, 3, 7])
@pytest.mark.parametrize("n", [1, 2, 20, 80, 160])
def test_select_next_matches_the_stacked_posterior_bit_for_bit(n, d, history, monkeypatch):
    rng = np.random.default_rng([n, d, len(history)])
    bounds = np.column_stack([-1.0 - np.arange(d), 2.0 + 0.5 * np.arange(d)])
    real = {"all_sim": [False] * n, "all_real": [True] * n, "mixed": [i % 3 == 0 for i in range(n)]}
    records = [
        EvalRecord(AugmentedPoint(rng.uniform(bounds[:, 0], bounds[:, 1]), REAL if r else SIM),
                   (rng.uniform(0, 2), 0.5))
        for r in real[history]
    ]
    budget = OptBudget(max_real=400, max_total=400)
    seen = []
    mutual_information = bayesopt._mutual_information

    def keep_mi(*args):
        seen.append(mutual_information(*args))
        return seen[-1]

    monkeypatch.setattr(bayesopt, "_mutual_information", keep_mi)
    point = select_next(records, CompositeKernel(), bounds, budget, seed=n + d)
    x, delta, mi = oracle_select_next(records, CompositeKernel(), bounds, budget, seed=n + d)
    assert point.delta == delta
    assert np.array_equal(point.x, x)
    assert np.array_equal(seen[0], mi)


def test_chol_with_escalation_is_the_ladder_of_fresh_diagonals():
    rng = np.random.default_rng(4)
    x = rng.random((30, 2))
    duplicated = np.vstack([x, x[:5]])  # five repeated points: singular at noise 0
    a = rng.standard_normal((8, 8))
    indefinite = a @ a.T - (np.linalg.eigvalsh(a @ a.T)[0] + 5e-4) * np.eye(8)
    cases = [
        (composite_gram(x, np.arange(30) % 2 == 0, x, np.arange(30) % 2 == 0, CompositeKernel()),
         1e-4, 1e-4),
        (composite_gram(duplicated, np.zeros(35, bool), duplicated, np.zeros(35, bool),
                        CompositeKernel()), 0.0, 1e-4),
        (indefinite, 1e-4, 1e-3),  # smallest eigenvalue -5e-4: the second rung factors
    ]
    for gram, noise, stop in cases:
        before = gram.copy()
        rung, want = oracle_chol(gram, noise)
        assert rung == stop
        assert np.array_equal(bayesopt._chol_with_escalation(gram, noise), want)
        assert np.array_equal(gram, before)


@pytest.mark.parametrize("groups", ["one_group", "all_distinct", "unsorted"])
def test_mutual_information_matches_a_mask_per_group(groups):
    rng = np.random.default_rng(len(groups))
    samples = rng.standard_normal((64, 9)) @ rng.random((9, 9))
    argmin_idx = {
        "one_group": np.full(64, 3),
        "all_distinct": rng.permutation(64),
        "unsorted": rng.integers(0, 7, 64),
    }[groups]
    want = oracle_mutual_information(samples, argmin_idx, bayesopt._NOISE)
    assert np.array_equal(bayesopt._mutual_information(samples, argmin_idx), want)


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


@pytest.mark.parametrize("name", [
    "arm_angle_y.kq", "arm_angle_z.kp", "frequency", "arm_angle_y",
    "com_shift_x.kp", "arm_angle_y.ki",  # terms these actions' gain types lack
])
def test_gain_problem_rejects_unknown_gain_names(name):
    with pytest.raises(InvalidInputError, match=f"unknown gain.*{name}"):
        make_problem(param_names=("arm_angle_y.kp", name), bounds=[[0.0, 6.0], [0.0, 1.0]])


@pytest.mark.parametrize("bounds, field", [
    ([[-3.0, -1.0], [0.0, 4.0]], "arm_angle_y: gain kp"),
    ([[0.0, 6.0], [-0.5, 4.0]], "arm_angle_y: gain kd"),
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


@pytest.mark.parametrize("delta, kwargs, falls", [
    (SIM, {}, False),
    (REAL, {}, False),
    (REAL, dict(disturbances=[*bayesopt.default_disturbance_schedule(),
                              Disturbance(11.0, 30.0, "back")]), True),
    (SIM, dict(sim_plant=PlantParams(noise_std=0.0)), False),
    (SIM, dict(disturbances=[Disturbance(7.0, 9.0, "back"), Disturbance(7.0, 5.0, "left")]), False),
], ids=["sim", "real", "falls", "noiseless", "two_pushes_one_step"])
def test_evaluate_is_the_cost_of_the_recorded_trace_bit_for_bit(delta, kwargs, falls):
    prob = make_problem(**kwargs)
    plant = prob.real_plant if delta == REAL else prob.sim_plant
    # the default gains fall under the 30 kg*m/s push; these do not
    for x, fell in ((prob.default_x(), falls), (np.array([5.5, 0.25]), False)):
        trace = prob._run(x, plant, 17)
        assert trace.fall == fell
        expected = evaluate_cost(trace, prob.regularization, x)
        got = prob.evaluate(x, delta, 17)
        assert np.array(got).tobytes() == np.array(expected).tobytes()


@pytest.mark.parametrize("kwargs, x, message", [
    (dict(sim_plant=PlantParams(natural_freq_pitch=1e200)), [1.2, 0.35],
     r"not finite from t=0\.01 s"),
    # the gains of PdGains(kp=1e300), out of a threshold's reach
    (dict(sim_plant=PlantParams(fall_threshold=1e300), bounds=[[0.0, 1e300], [0.0, 4.0]],
          sequence=[(GaitCommand(vx=0.7), 2.0)], disturbances=[]), [1e300, 0.0],
     r"t=0\.49 s \(sample 49\)"),
], ids=["nan_from_the_first_step", "one_step_overflow_to_inf"])
def test_evaluate_raises_the_run_sequence_error_naming_the_first_bad_sample(kwargs, x, message):
    prob = make_problem(**kwargs)
    with pytest.raises(NonFiniteStateError, match=message) as recorded:
        prob._run(x, prob.sim_plant, 0)
    with pytest.raises(NonFiniteStateError, match=message) as cost_only:
        prob.evaluate(x, SIM, 0)
    assert str(cost_only.value) == str(recorded.value)


def test_cost_runs_never_read_the_pose(monkeypatch):
    def readout(*args):
        raise AssertionError("the cost path read the pose or the retractions")

    monkeypatch.setattr(_kernels, "pose_readout", readout)
    monkeypatch.setattr(_kernels, "leg_retractions", readout)
    prob = make_problem()
    prob.evaluate(prob.default_x(), REAL, 3)
    optimize(prob, OptBudget(max_real=1, max_total=3), seed=2)
    random_search(prob, OptBudget(max_real=2, max_total=2), seed=2)


def history_bytes(result):
    return [(r.point.delta, r.point.x.tobytes(), np.asarray(r.cost).tobytes())
            for r in result.history]


@pytest.mark.parametrize("sim_average_n", [4, 3])
def test_optimize_history_is_the_same_on_any_cpu_count(monkeypatch, sim_average_n):
    prob = make_problem()
    budget = OptBudget(max_real=2, max_total=5, sim_average_n=sim_average_n)
    histories = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(bayesopt, "_cpu_count", lambda: cpus)
        histories.append(history_bytes(optimize(prob, budget, seed=6)))
        assert multiprocessing.active_children() == []
    assert sum(delta == SIM for delta, _, _ in histories[0]) >= 2
    assert histories[1] == histories[0] and histories[2] == histories[0]


def test_random_search_history_is_the_same_on_any_cpu_count(monkeypatch):
    # a push this strong makes some of the drawn gains fall and not others
    prob = make_problem(disturbances=[Disturbance(5.0, 60.0, "back")])
    budget = OptBudget(max_real=6, max_total=6)
    histories = []
    for cpus in (1, 2, 3):
        monkeypatch.setattr(bayesopt, "_cpu_count", lambda: cpus)
        result = random_search(prob, budget, seed=3)
        histories.append(history_bytes(result))
        assert multiprocessing.active_children() == []
    falls = [r.cost[0] >= bayesopt.FALL_PENALTY for r in result.history]
    assert any(falls) and not all(falls)
    assert histories[1] == histories[0] and histories[2] == histories[0]


@pytest.mark.parametrize("cpus", [1, 2, 3])
@pytest.mark.parametrize("failing, expected", [
    # job 1 is a helper's with 2 or 3 CPUs; job 2 is the main process's with 2
    ({1: NonFiniteStateError, 2: InvalidInputError}, NonFiniteStateError),
    ({2: InvalidInputError, 3: NonFiniteStateError}, InvalidInputError),
])
def test_a_run_error_reaches_the_caller_in_job_order(monkeypatch, cpus, failing, expected):
    seed = 4
    bad = {bayesopt._derived_seed(seed, 0, k): error for k, error in failing.items()}

    cost_run = bayesopt._run_ep_integrals

    def failing_cost_run(gains, cpg, seq, plant, **kwargs):
        if plant.seed in bad:
            raise bad[plant.seed](f"injected for run seed {plant.seed}")
        return cost_run(gains, cpg, seq, plant, **kwargs)

    monkeypatch.setattr(bayesopt, "_run_ep_integrals", failing_cost_run)
    monkeypatch.setattr(bayesopt, "_cpu_count", lambda: cpus)
    with pytest.raises(expected, match="injected"):
        optimize(make_problem(), OptBudget(max_real=1, max_total=3), seed=seed)
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("why", ["one cpu", "a second thread", "a batch of one"])
def test_batches_run_serially_without_forking(monkeypatch, why):
    def no_fork():
        raise AssertionError("forked")

    monkeypatch.setattr(os, "fork", no_fork)
    prob = make_problem()
    budget = OptBudget(max_real=2, max_total=3, sim_average_n=2)
    monkeypatch.setattr(bayesopt, "_cpu_count", lambda: 2)
    with pytest.raises(AssertionError, match="forked"):  # the patch does see a fork
        random_search(prob, budget, seed=1)
    release = threading.Event()
    thread = threading.Thread(target=release.wait, args=(30,))
    if why == "one cpu":
        monkeypatch.setattr(bayesopt, "_cpu_count", lambda: 1)
    elif why == "a second thread":
        thread.start()
    else:  # sim queries of one run each, and a random search of one draw
        budget = OptBudget(max_real=1, max_total=3, sim_average_n=1)
    try:
        optimize(prob, budget, seed=1)
        random_search(prob, budget, seed=1)
    finally:
        release.set()
        if thread.is_alive():
            thread.join(timeout=30)
    assert not thread.is_alive()


@pytest.mark.parametrize("cpus, batch, helpers", [(3, 4, 2), (4, 3, 2), (3, 2, 1)])
def test_a_call_forks_its_helpers_once(monkeypatch, cpus, batch, helpers):
    forks = []
    fork = os.fork

    def counting_fork():
        pid = fork()
        if pid:  # a helper's copy of the list is its own
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counting_fork)
    monkeypatch.setattr(bayesopt, "_cpu_count", lambda: cpus)
    prob = make_problem()
    optimize(prob, OptBudget(max_real=1, max_total=4, sim_average_n=batch), seed=2)
    assert len(forks) == helpers  # three sim batches share them
    random_search(prob, OptBudget(max_real=batch, max_total=batch), seed=2)
    assert len(forks) == 2 * helpers
    assert multiprocessing.active_children() == []


def test_a_failed_fork_stops_the_helpers_already_forked(monkeypatch):
    forks = []
    fork = os.fork

    def second_fork_fails():
        forks.append(None)
        if len(forks) == 2:
            raise OSError("injected: no more processes")
        return fork()

    monkeypatch.setattr(os, "fork", second_fork_fails)
    monkeypatch.setattr(bayesopt, "_cpu_count", lambda: 3)
    with pytest.raises(OSError, match="injected"):
        optimize(make_problem(), OptBudget(max_real=1, max_total=3, sim_average_n=3), seed=1)
    assert len(forks) == 2
    assert multiprocessing.active_children() == []


def _live_processes_in_group(pgid):
    live = 0
    for stat in glob.glob("/proc/[0-9]*/stat"):
        with contextlib.suppress(OSError):  # the process has gone since the glob
            with open(stat) as fh:
                state, _, pgrp = fh.read().rsplit(")", 1)[1].split()[:3]
            live += int(pgrp) == pgid and state not in "ZX"
    return live


@pytest.mark.skipif(not os.path.isdir("/proc/self") or bayesopt._cpu_count() < 2,
                    reason="needs /proc and 2 CPUs, so that an optimize forks a helper")
@pytest.mark.parametrize("sig", [signal.SIGKILL, signal.SIGTERM], ids=["SIGKILL", "SIGTERM"])
def test_a_killed_optimize_leaves_no_helper_behind(tmp_path, sig):
    # a long sim-only run: every record is a batch of 2, so it forks exactly one helper
    src = os.path.dirname(os.path.dirname(bayesopt.__file__))
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    argv = [sys.executable, "-m", "gaitlab.cli", "gait", "optimize", "--sim-average", "2",
            "--max-real", "0", "--max-total", "200"]
    with open(tmp_path / "stderr", "w") as err:
        proc = subprocess.Popen(argv, cwd=tmp_path, env=env, stdout=subprocess.DEVNULL,
                                stderr=err, start_new_session=True)
    pgid = proc.pid
    try:
        deadline = time.monotonic() + 60.0
        while _live_processes_in_group(pgid) < 2:
            assert proc.poll() is None and time.monotonic() < deadline, "no helper was forked"
            time.sleep(0.01)
        os.kill(proc.pid, sig)
        proc.wait(timeout=5.0)
        deadline = time.monotonic() + 5.0
        while _live_processes_in_group(pgid) and time.monotonic() < deadline:
            time.sleep(0.01)
        assert _live_processes_in_group(pgid) == 0
        assert (tmp_path / "stderr").read_text() == ""
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(pgid, signal.SIGKILL)
        proc.wait()


@pytest.mark.parametrize("field, value", [
    ("regularization", math.nan), ("regularization", -0.01), ("regularization", math.inf),
])
def test_gain_problem_rejects_bad_cost_weights(field, value):
    with pytest.raises(InvalidInputError, match=f"{field} must be finite and >= 0"):
        make_problem(**{field: value})
