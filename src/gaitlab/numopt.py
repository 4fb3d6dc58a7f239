"""Shared numerical optimizers: line fitting and the Nelder-Mead simplex."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DegenerateDataError, InvalidInputError, check_nonnegative


def least_squares_line(xs, ys) -> tuple[float, float]:
    """Ordinary least-squares line fit, returns (slope, intercept)."""
    xs = np.asarray(xs, dtype=float)
    ys = np.asarray(ys, dtype=float)
    if xs.shape != ys.shape or xs.ndim != 1:
        raise InvalidInputError("xs and ys must be 1-D arrays of equal length")
    if xs.size < 2:
        raise DegenerateDataError("need at least 2 points for a line fit")
    # identical values whose mean rounds off them would leave a small positive sxx
    if xs.min() == xs.max():
        raise DegenerateDataError("all x values identical; slope undetermined")
    # sums of squares of finite values can overflow; that is a named error below
    with np.errstate(over="ignore", invalid="ignore"):
        x_mean = xs.mean()
        y_mean = ys.mean()
        sxx = float(np.sum((xs - x_mean) ** 2))
        if sxx <= 0.0:  # distinct values whose squared deviations underflow to 0
            raise DegenerateDataError("x values too close together; slope undetermined")
        slope = float(np.sum((xs - x_mean) * (ys - y_mean))) / sxx
        intercept = float(y_mean - slope * x_mean)
    if not (math.isfinite(sxx) and math.isfinite(slope) and math.isfinite(intercept)):
        raise InvalidInputError(
            "line fit overflows: the values are too large or spread too far for float sums"
        )
    return slope, intercept


# the standard coefficients of Nelder & Mead (1965)
_REFLECTION = 1.0
_EXPANSION = 2.0
_CONTRACTION = 0.5
_SHRINK = 0.5


@dataclass
class SimplexConfig:
    max_iter: int = 1000
    x_tol: float = 1e-9
    f_tol: float = 1e-18

    def __post_init__(self):
        check_nonnegative("x_tol", self.x_tol)
        check_nonnegative("f_tol", self.f_tol)


@dataclass
class SimplexResult:
    x: np.ndarray
    fun: float
    iterations: int
    converged: bool


def nelder_mead(f, x0, cfg: SimplexConfig | None = None) -> SimplexResult:
    """Minimize ``f`` from ``x0`` with the Nelder-Mead downhill simplex.

    The initial simplex places one vertex at x0 and perturbs each axis by
    max(0.05*|x0_i|, 0.00025).  Terminates when the simplex collapses below
    x_tol, the value spread drops below f_tol, or max_iter is reached (in
    which case the result is flagged non-converged).

    The results' bits depend on this order, which is fixed: each step sorts
    the vertices by value with a stable argsort (NaN last), compares the
    sorted values as Python floats, and takes the centroid of all but the
    worst vertex as their sum along axis 0 over n (the bits of ``mean``).
    ``f`` is called on x0, then on each perturbed vertex in axis order,
    then once or twice a step, plus once per moved vertex in sorted order on
    a shrink.  The simplex sets no floating-point error state: a caller that
    wants ``f`` quiet wraps the whole call in one ``np.errstate``.
    """
    cfg = cfg or SimplexConfig()
    x0 = np.asarray(x0, dtype=float)
    n = x0.size
    f0 = float(f(x0))
    if not math.isfinite(f0):
        raise InvalidInputError("objective is not finite at x0")

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
        order = vals.argsort(kind="stable")
        verts, vals = verts[order], vals[order]
        sorted_vals = vals.tolist()
        best, second, worst = sorted_vals[0], sorted_vals[-2], sorted_vals[-1]

        if np.abs(verts[1:] - verts[0]).max() < cfg.x_tol or worst - best < cfg.f_tol:
            converged = True
            break
        iterations += 1

        centroid = np.add.reduce(verts[:-1], 0) / n
        xr = centroid + _REFLECTION * (centroid - verts[-1])
        fr = float(f(xr))

        if fr < best:
            xe = centroid + _EXPANSION * (xr - centroid)
            fe = float(f(xe))
            if fe < fr:
                verts[-1], vals[-1] = xe, fe
            else:
                verts[-1], vals[-1] = xr, fr
        elif fr < second:
            verts[-1], vals[-1] = xr, fr
        else:
            if fr < worst:
                xc = centroid + _CONTRACTION * (xr - centroid)
            else:
                xc = centroid + _CONTRACTION * (verts[-1] - centroid)
            fc = float(f(xc))
            if fc < min(fr, worst):
                verts[-1], vals[-1] = xc, fc
            else:
                # shrink everything toward the best vertex
                for i in range(1, n + 1):
                    verts[i] = verts[0] + _SHRINK * (verts[i] - verts[0])
                    vals[i] = float(f(verts[i]))

    order = np.argsort(vals, kind="stable")
    verts, vals = verts[order], vals[order]
    return SimplexResult(verts[0].copy(), float(vals[0]), iterations, converged)
