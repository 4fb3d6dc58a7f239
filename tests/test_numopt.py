import math
import warnings

import numpy as np
import pytest

from gaitlab.errors import DegenerateDataError, InvalidInputError
from gaitlab.numopt import SimplexConfig, SimplexResult, least_squares_line, nelder_mead


def test_exact_line():
    xs = np.linspace(-3, 3, 20)
    slope, intercept = least_squares_line(xs, 2 * xs + 1)
    assert abs(slope - 2) < 1e-12
    assert abs(intercept - 1) < 1e-12


def test_symmetric_points():
    slope, intercept = least_squares_line([-1, 1], [1, 1])
    assert slope == 0.0
    assert intercept == 1.0


def test_fit_returns_python_floats():
    # np.float64 subclasses float, so only the exact type tells a NumPy scalar
    # (whose repr TorqueModel's would show) from a Python float
    slope, intercept = least_squares_line([0.1, 0.1, 0.2], [0, 0, 5])
    assert type(slope) is float and type(intercept) is float


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
    assert np.mean([0.1] * 3) != 0.1  # so the deviations from the mean are not 0
    with pytest.raises(DegenerateDataError, match="identical"):
        least_squares_line([0.1] * 3, [0.0, 0.0, 5.0])
    with pytest.raises(DegenerateDataError):  # distinct; the squared deviations underflow to 0
        least_squares_line([1e-200, 2e-200], [0.0, 5.0])


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


def oracle_nelder_mead(f, x0, cfg=None):
    """The simplex loop as first written (numpy-scalar comparisons, ``mean`` centroid)."""
    cfg = cfg or SimplexConfig()
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    f0 = float(f(x0))
    verts = [x0.copy()]
    for i in range(n):
        v = x0.copy()
        v[i] += max(0.05 * abs(x0[i]), 0.00025)
        verts.append(v)
    verts = np.array(verts)
    vals = np.array([f0] + [float(f(v)) for v in verts[1:]])
    iterations = 0
    converged = False
    while iterations < cfg.max_iter:
        order = np.argsort(vals, kind="stable")
        verts, vals = verts[order], vals[order]
        if np.max(np.abs(verts[1:] - verts[0])) < cfg.x_tol or vals[-1] - vals[0] < cfg.f_tol:
            converged = True
            break
        iterations += 1
        centroid = verts[:-1].mean(axis=0)
        xr = centroid + 1.0 * (centroid - verts[-1])
        fr = float(f(xr))
        if fr < vals[0]:
            xe = centroid + 2.0 * (xr - centroid)
            fe = float(f(xe))
            if fe < fr:
                verts[-1], vals[-1] = xe, fe
            else:
                verts[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            verts[-1], vals[-1] = xr, fr
        else:
            if fr < vals[-1]:
                xc = centroid + 0.5 * (xr - centroid)
            else:
                xc = centroid + 0.5 * (verts[-1] - centroid)
            fc = float(f(xc))
            if fc < min(fr, vals[-1]):
                verts[-1], vals[-1] = xc, fc
            else:
                for i in range(1, n + 1):
                    verts[i] = verts[0] + 0.5 * (verts[i] - verts[0])
                    vals[i] = float(f(verts[i]))
    order = np.argsort(vals, kind="stable")
    verts, vals = verts[order], vals[order]
    return SimplexResult(verts[0].copy(), float(vals[0]), iterations, converged)


def same_bits(a, b):
    return (a.x.tobytes(), np.float64(a.fun).tobytes(), a.iterations, a.converged) == (
        b.x.tobytes(), np.float64(b.fun).tobytes(), b.iterations, b.converged)


class Counted:
    """An objective that records the arguments it was called with."""

    def __init__(self, f):
        self.f, self.calls = f, []

    def __call__(self, v):
        self.calls.append(np.array(v).tobytes())
        return self.f(v)


_HESS_6D = np.random.default_rng(4).normal(size=(6, 6))
_HESS_6D = _HESS_6D @ _HESS_6D.T + 6 * np.eye(6)


def quadratic_6d(v):
    return 0.5 * v @ _HESS_6D @ v + v.sum()


def rippled(v):
    # a bowl under fine ripples: contractions keep failing, so the simplex shrinks often
    return float(v @ v + 0.3 * np.sin(40.0 * v).sum())


def holed(v):
    # NaN and inf on parts of the plane, a bowl elsewhere
    if v[0] > 0.8:
        return math.nan
    if v[1] < -0.5:
        return math.inf
    return float((v[0] - 1.0) ** 2 + (v[1] + 0.7) ** 2)


@pytest.mark.parametrize("f, x0, cfg", [
    (rosenbrock, [-1.2, 1.0], SimplexConfig(max_iter=2000, x_tol=1e-14, f_tol=0.0)),
    (rosenbrock3, [0.5, -0.3, 1.7], SimplexConfig(max_iter=3000)),
    (quadratic_6d, np.zeros(6), SimplexConfig(max_iter=5000, x_tol=1e-12, f_tol=1e-14)),
    (rippled, [0.9, -0.6, 0.4], SimplexConfig(max_iter=400, x_tol=0.0, f_tol=0.0)),
    (holed, [0.0, 0.0], SimplexConfig(max_iter=300)),
    (holed, [0.7, -0.4], SimplexConfig(max_iter=300, x_tol=0.0, f_tol=0.0)),
], ids=["rosenbrock", "rosenbrock-3d", "quadratic-6d", "shrinking", "nan-inf", "nan-inf-stalled"])
def test_nelder_mead_is_the_oracle_simplex_bit_for_bit(f, x0, cfg):
    got, want = Counted(f), Counted(f)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        result = nelder_mead(got, x0, cfg)
    with np.errstate(all="ignore"):  # the oracle's numpy scalars warn on inf - inf
        reference = oracle_nelder_mead(want, x0, cfg)
    assert same_bits(result, reference)
    assert got.calls == want.calls  # the same points, in the same order


def test_line_fit_overflow_is_a_named_error_not_a_warning():
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match="line fit overflows"):
            least_squares_line([0.1, 1e300, 0.5], [1.0, 2.0, 3.0])  # squared spread overflows
        with pytest.raises(InvalidInputError, match="line fit overflows"):
            least_squares_line([0.0, 1e10, 2e10], [0.0, 1e300, 1.5e300])  # cross products do
