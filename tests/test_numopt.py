import numpy as np
import pytest

from gaitlab.errors import DegenerateDataError, InvalidInputError
from gaitlab.numopt import SimplexConfig, least_squares_line, nelder_mead


def test_exact_line():
    xs = np.linspace(-3, 3, 20)
    slope, intercept = least_squares_line(xs, 2 * xs + 1)
    assert abs(slope - 2) < 1e-12
    assert abs(intercept - 1) < 1e-12


def test_symmetric_points():
    slope, intercept = least_squares_line([-1, 1], [1, 1])
    assert slope == 0.0
    assert intercept == 1.0


def test_matches_normal_equations_oracle():
    rng = np.random.default_rng(0)
    xs = rng.uniform(-5, 5, 50)
    ys = 0.7 * xs - 2.3 + rng.normal(0, 0.3, 50)
    slope, intercept = least_squares_line(xs, ys)
    a = np.array([[np.sum(xs**2), np.sum(xs)], [np.sum(xs), len(xs)]])
    b = np.array([np.sum(xs * ys), np.sum(ys)])
    ref = np.linalg.solve(a, b)
    assert abs(slope - ref[0]) < 1e-12
    assert abs(intercept - ref[1]) < 1e-12


def test_residual_orthogonality():
    rng = np.random.default_rng(1)
    xs = rng.uniform(0, 10, 40)
    ys = rng.normal(0, 1, 40)
    slope, intercept = least_squares_line(xs, ys)
    resid = ys - (slope * xs + intercept)
    assert abs(np.dot(resid, xs)) < 1e-10
    assert abs(np.sum(resid)) < 1e-10


def test_degenerate_fits():
    with pytest.raises(DegenerateDataError):
        least_squares_line([1.0], [2.0])
    with pytest.raises(DegenerateDataError):
        least_squares_line([2.0, 2.0, 2.0], [1.0, 2.0, 3.0])


def test_quadratic_bowl():
    res = nelder_mead(lambda v: (v[0] - 1) ** 2 + (v[1] - 2) ** 2, [0.0, 0.0])
    assert np.max(np.abs(res.x - [1, 2])) < 1e-6
    assert res.converged


def rosenbrock(v):
    return (1 - v[0]) ** 2 + 100 * (v[1] - v[0] ** 2) ** 2


def test_rosenbrock_classic_start():
    res = nelder_mead(rosenbrock, [-1.2, 1.0], SimplexConfig(max_iter=500))
    assert res.iterations <= 500
    assert np.max(np.abs(res.x - [1, 1])) < 1e-4


def test_6d_quadratic_matches_linear_solve():
    rng = np.random.default_rng(4)
    a = rng.normal(size=(6, 6))
    hess = a @ a.T + 6 * np.eye(6)
    b = rng.normal(size=6)
    x_star = np.linalg.solve(hess, -b)  # oracle for min of 0.5 x'Hx + b'x

    def f(v):
        return 0.5 * v @ hess @ v + b @ v

    res = nelder_mead(f, np.zeros(6), SimplexConfig(max_iter=5000, x_tol=1e-12, f_tol=1e-14))
    assert np.max(np.abs(res.x - x_star)) < 1e-5


def test_never_worse_than_start():
    rng = np.random.default_rng(8)
    for _ in range(20):
        x0 = rng.normal(size=3)
        res = nelder_mead(rosenbrock3, x0, SimplexConfig(max_iter=rng.integers(1, 50)))
        assert res.fun <= rosenbrock3(x0) + 1e-15


def rosenbrock3(v):
    return sum((1 - v[i]) ** 2 + 100 * (v[i + 1] - v[i] ** 2) ** 2 for i in range(2))


def test_best_value_monotone_per_iteration():
    vals = []
    for k in range(1, 40):
        res = nelder_mead(rosenbrock, [-1.2, 1.0], SimplexConfig(max_iter=k, x_tol=0, f_tol=0))
        vals.append(res.fun)
    assert all(b <= a + 1e-15 for a, b in zip(vals, vals[1:]))


def test_non_finite_start_rejected():
    with pytest.raises(InvalidInputError):
        nelder_mead(lambda v: float("inf"), [0.0])


def test_max_iter_flags_non_converged():
    res = nelder_mead(rosenbrock, [-1.2, 1.0], SimplexConfig(max_iter=3))
    assert not res.converged
    assert res.iterations == 3
