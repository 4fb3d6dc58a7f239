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
    x_mean = xs.mean()
    y_mean = ys.mean()
    sxx = float(np.sum((xs - x_mean) ** 2))
    if sxx <= 0.0:
        raise DegenerateDataError("all x values identical; slope undetermined")
    slope = float(np.sum((xs - x_mean) * (ys - y_mean))) / sxx
    return slope, y_mean - slope * x_mean


@dataclass
class SimplexConfig:
    reflection: float = 1.0
    expansion: float = 2.0
    contraction: float = 0.5
    shrink: float = 0.5
    max_iter: int = 1000
    x_tol: float = 1e-9
    f_tol: float = 1e-18

    def __post_init__(self):
        check_nonnegative("reflection coefficient", self.reflection, positive=True)
        if not 1.0 < self.expansion < math.inf:
            raise InvalidInputError(
                f"expansion coefficient must be finite and > 1, got {self.expansion}"
            )
        if not 0 < self.contraction < 1:
            raise InvalidInputError("contraction coefficient must be in (0, 1)")
        if not 0 < self.shrink < 1:
            raise InvalidInputError("shrink coefficient must be in (0, 1)")
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
        order = np.argsort(vals, kind="stable")
        verts, vals = verts[order], vals[order]

        if np.max(np.abs(verts[1:] - verts[0])) < cfg.x_tol or vals[-1] - vals[0] < cfg.f_tol:
            converged = True
            break
        iterations += 1

        centroid = verts[:-1].mean(axis=0)
        xr = centroid + cfg.reflection * (centroid - verts[-1])
        fr = float(f(xr))

        if fr < vals[0]:
            xe = centroid + cfg.expansion * (xr - centroid)
            fe = float(f(xe))
            if fe < fr:
                verts[-1], vals[-1] = xe, fe
            else:
                verts[-1], vals[-1] = xr, fr
        elif fr < vals[-2]:
            verts[-1], vals[-1] = xr, fr
        else:
            if fr < vals[-1]:
                xc = centroid + cfg.contraction * (xr - centroid)
            else:
                xc = centroid + cfg.contraction * (verts[-1] - centroid)
            fc = float(f(xc))
            if fc < min(fr, vals[-1]):
                verts[-1], vals[-1] = xc, fc
            else:
                # shrink everything toward the best vertex
                for i in range(1, n + 1):
                    verts[i] = verts[0] + cfg.shrink * (verts[i] - verts[0])
                    vals[i] = float(f(verts[i]))

    order = np.argsort(vals, kind="stable")
    verts, vals = verts[order], vals[order]
    return SimplexResult(verts[0].copy(), float(vals[0]), iterations, converged)
