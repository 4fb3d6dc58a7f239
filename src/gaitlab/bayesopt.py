"""Gaussian-process optimization of feedback gains across a sim/real plant pair.

A single GP models both simulated and real evaluations through a composite
kernel: a rational-quadratic term over the gain vector plus a second
rational-quadratic error term that is only active between two real-world
evaluations.  Query points are proposed by an information-gain acquisition
(Monte-Carlo estimate of the mutual information between an observation and
the location of the real-plant minimizer over a seeded candidate grid) with
the selection biased toward simulation queries to spare the real budget.
"""

from __future__ import annotations

import contextlib
import math
import os
import signal
import threading
from dataclasses import dataclass, field, replace

import numpy as np

from .config import flatten, rebuild
from .cpg import CpgParams
from .errors import (
    BudgetExhaustedError,
    InvalidInputError,
    NumericalConditioningError,
    check_count,
    check_nonnegative,
)
from .feedback import FeedbackGains, FilterParams
from .plant import (
    Disturbance,
    PlantParams,
    RunTrace,
    _run_ep_integrals,
    run_sequence,
    standard_test_sequence,
)

SIM = "sim"
REAL = "real"
_NOISE = 1e-4  # GP observation noise variance
_N_CANDIDATES = 128  # seeded uniform candidates per proposal, plus up to two incumbents
_N_SAMPLES = 192  # joint posterior draws that score them


@dataclass
class AugmentedPoint:
    """A gain vector tagged with where it was (or will be) evaluated."""

    x: np.ndarray
    delta: str

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        if self.x.ndim != 1 or not np.isfinite(self.x).all():
            raise InvalidInputError(f"x must be a finite gain vector, got {self.x}")
        if self.delta not in (SIM, REAL):
            raise InvalidInputError(f"delta must be '{SIM}' or '{REAL}'")


@dataclass
class RqKernelParams:
    variance: float = 1.0
    length_scale: float = 0.3
    shape: float = 2.0

    def __post_init__(self):
        for name in ("variance", "length_scale", "shape"):
            check_nonnegative(f"RQ kernel {name}", getattr(self, name), positive=True)


@dataclass
class CompositeKernel:
    """k(a_i, a_j) = k_sim(x_i, x_j) + [both real] * k_eps(x_i, x_j)."""

    k_sim: RqKernelParams = field(default_factory=RqKernelParams)
    k_eps: RqKernelParams = field(default_factory=lambda: RqKernelParams(variance=0.25))


@dataclass
class EvalRecord:
    point: AugmentedPoint
    cost: tuple[float, float]  # (J_alpha, J_beta)

    def __post_init__(self):
        if np.shape(self.cost) != (2,):  # history.csv writes both
            raise InvalidInputError(f"cost must be (J_alpha, J_beta), got {self.cost}")
        if not all(math.isfinite(c) for c in self.cost):
            raise InvalidInputError("costs must be finite")


# the largest budget counts accepted, so that any call returns in bounded time (docs/formats.md)
MAX_TOTAL_CEILING = 500
SIM_AVERAGE_CEILING = 50


@dataclass
class OptBudget:
    """Evaluation budget: records in all, real ones among them, and runs per sim record.

    ``max_total`` may be at most MAX_TOTAL_CEILING and ``sim_average_n`` at
    most SIM_AVERAGE_CEILING.
    """

    max_real: int = 15
    max_total: int = 40
    sim_average_n: int = 4
    sim_bias_weight: float = 1.15

    def __post_init__(self):
        check_count("max_total", self.max_total, 1, MAX_TOTAL_CEILING)
        check_count("max_real", self.max_real)
        if self.max_real > self.max_total:
            raise InvalidInputError(
                f"max_real must be <= max_total ({self.max_total}), got {self.max_real}"
            )
        check_count("sim_average_n", self.sim_average_n, 1, SIM_AVERAGE_CEILING)
        if not self.sim_bias_weight >= 1:  # inf is allowed: never go real
            raise InvalidInputError(f"sim_bias_weight must be >= 1, got {self.sim_bias_weight}")


def _checked_bounds(bounds) -> np.ndarray:
    """``bounds`` as a float (d, 2) array of d >= 1 finite (lo, hi) rows with lo < hi."""
    bounds = np.asarray(bounds, dtype=float)
    if bounds.ndim != 2 or bounds.shape[1] != 2 or len(bounds) < 1:
        raise InvalidInputError(f"bounds must be one (lo, hi) row per gain, got {bounds.shape}")
    with np.errstate(over="ignore", invalid="ignore"):  # a non-finite end makes a non-finite span
        span = bounds[:, 1] - bounds[:, 0]
    if not np.isfinite(span).all():
        raise InvalidInputError(f"bounds must be finite with finite hi - lo, got {bounds.tolist()}")
    if np.any(span <= 0):
        raise InvalidInputError(f"each bound must satisfy lo < hi, got {bounds.tolist()}")
    return bounds


def _rq_matrix(xa: np.ndarray, xb: np.ndarray, p: RqKernelParams) -> np.ndarray:
    """RQ gram between the rows of ``xa`` (n, d) and ``xb`` (m, d).

    The squared distance is summed one input dimension at a time on (n, m)
    arrays, never through an (n, m, d) difference.  For d <= 7 this adds in
    the same order as ``np.sum`` over the last axis, so the gram is
    bit-identical to the broadcast formula; from d = 8 on ``np.sum`` sums
    pairwise and the two can differ in the last bit.
    """
    if xa.shape[1] != xb.shape[1]:  # broadcasting would pair mismatched vectors silently
        raise InvalidInputError(f"dimension mismatch: {xa.shape[1]} vs {xb.shape[1]}")
    r2, d = np.zeros((xa.shape[0], xb.shape[0])), np.empty((xa.shape[0], xb.shape[0]))
    for k in range(xa.shape[1]):
        np.subtract.outer(xa[:, k], xb[:, k], out=d)
        d *= d
        r2 += d
    r2 /= 2.0 * p.shape * p.length_scale**2  # variance * (1 + r2 / c) ** -shape, in place
    r2 += 1.0
    r2 **= -p.shape
    r2 *= p.variance
    return r2


def rq_kernel(x1, x2, p: RqKernelParams) -> float:
    """Rational-quadratic covariance between two gain vectors (a 1x1 gram)."""
    rows = [np.asarray(x, dtype=float).reshape(1, -1) for x in (x1, x2)]
    return float(_rq_matrix(*rows, p)[0, 0])


def composite_kernel(a1: AugmentedPoint, a2: AugmentedPoint, k: CompositeKernel) -> float:
    """Composite covariance (a 1x1 gram); the error term gates on both points being real."""
    real_a, real_b = np.array([a1.delta == REAL]), np.array([a2.delta == REAL])
    return float(composite_gram(a1.x.reshape(1, -1), real_a, a2.x.reshape(1, -1), real_b, k)[0, 0])


def composite_gram(
    xa: np.ndarray,
    real_a: np.ndarray,
    xb: np.ndarray,
    real_b: np.ndarray,
    k: CompositeKernel,
) -> np.ndarray:
    """Composite kernel matrix between two augmented point sets.

    The sim term covers the whole gram; the error term is evaluated only
    between the real rows of ``xa`` and the real rows of ``xb`` and added
    into that block, the one place where the gate is nonzero.
    """
    for x, real, side in ((xa, real_a, "real_a"), (xb, real_b, "real_b")):
        if len(real) != len(x):  # the block indexing would pick the wrong rows silently
            raise InvalidInputError(f"{side} has {len(real)} entries for {len(x)} points")
    gram = _rq_matrix(xa, xb, k.k_sim)
    ra, rb = np.flatnonzero(real_a), np.flatnonzero(real_b)
    gram[np.ix_(ra, rb)] += _rq_matrix(xa[ra], xb[rb], k.k_eps)
    return gram


_JITTER_LADDER = (1e-4, 1e-3, 1e-2)


def _chol_with_escalation(gram: np.ndarray, noise: float) -> np.ndarray:
    """Cholesky of gram + diag (on a copy), escalating the diagonal x10 up to 1e-2."""
    diags = [noise] + [j for j in _JITTER_LADDER if j > noise]
    base = np.diagonal(gram)
    work = gram.copy()
    for d in diags:
        np.fill_diagonal(work, base + d)
        try:
            return np.linalg.cholesky(work)
        except np.linalg.LinAlgError:
            continue
    raise NumericalConditioningError(
        f"kernel matrix not positive definite even with diagonal {_JITTER_LADDER[-1]}"
    )


class _GpFit:
    """Cholesky factorization of the training covariance plus predict helpers."""

    def __init__(self, x, real, y, kernel: CompositeKernel, noise: float):
        self.x = x
        self.real = real
        self.kernel = kernel
        self.chol = _chol_with_escalation(composite_gram(x, real, x, real, kernel), noise)
        self.alpha = np.linalg.solve(
            self.chol.T, np.linalg.solve(self.chol, np.asarray(y, dtype=float))
        )

    def predict(self, cand):
        """Joint posterior (mean, cov) of ``cand`` as real (first n rows), then as sim; the
        prior blocks equal the composite gram of ``[cand; cand]`` entry by entry, bit for bit."""
        n, k, rt = cand.shape[0], self.kernel, np.flatnonzero(self.real)
        cross = np.empty((2 * n, self.x.shape[0]))
        cross[:n] = cross[n:] = _rq_matrix(cand, self.x, k.k_sim)
        cross[:n, rt] += _rq_matrix(cand, self.x[rt], k.k_eps)
        ks = _rq_matrix(cand, cand, k.k_sim)
        cov = np.empty((2 * n, 2 * n))
        cov[:n, :n] = ks + _rq_matrix(cand, cand, k.k_eps)
        cov[:n, n:] = cov[n:, :n] = cov[n:, n:] = ks
        v = np.linalg.solve(self.chol, cross.T)
        cov -= v.T @ v
        return cross @ self.alpha, cov


def _records_arrays(records):
    """Gains, real flags and J_alpha, the cost the optimizer minimizes, of ``records``."""
    x = np.array([r.point.x for r in records], dtype=float)
    real = np.array([r.point.delta == REAL for r in records])
    y = np.array([r.cost[0] for r in records], dtype=float)
    return x, real, y


def gp_posterior(
    records: list[EvalRecord],
    kernel: CompositeKernel,
    noise: float,
    query: AugmentedPoint,
) -> tuple[float, float]:
    """Posterior mean and variance of J_alpha at one augmented query point."""
    if not records:
        raise InvalidInputError("need at least one record")
    check_nonnegative("noise variance", noise)
    x, real, y = _records_arrays(records)
    mean, cov = _GpFit(x, real, y, kernel, noise).predict(query.x[None, :])
    row = 0 if query.delta == REAL else 1  # predict's rows: the query as real, then as sim
    return float(mean[row]), max(float(cov[row, row]), 0.0)


def evaluate_cost(
    trace: RunTrace,
    regularization: float,
    x,
    fall_penalty: float = 50.0,
) -> tuple[float, float]:
    """Per-plane cost: integrated |e_P| plus the gain regularizer.

    A fallen trace contributes its partial integral plus the fall penalty.
    """
    return _penalized(trace.ep_integrals(), trace.fall, regularization, x, fall_penalty)


def _penalized(integrals, fell: bool, regularization: float, x, fall_penalty: float):
    """``evaluate_cost`` of a run given its e_P integrals and fall flag."""
    check_nonnegative("regularization", regularization)
    x = np.asarray(x, dtype=float)
    # the sum of squares as NumPy's add reduction, not the BLAS dot product,
    # whose rounding depends on the kernel OpenBLAS picks for the CPU
    nu = regularization * float(np.add.reduce(x * x))
    j_alpha, j_beta = (j + nu for j in integrals)
    if fell:
        j_alpha += fall_penalty
        j_beta += fall_penalty
    return j_alpha, j_beta


def default_disturbance_schedule() -> list[Disturbance]:
    """Fixed pushes injected into every cost-evaluation run.

    They keep the gain landscape meaningful: without them the deadbanded
    deviations barely leave zero and the regularizer would dominate.
    """
    return [
        Disturbance(5.0, 8.0, "back"),
        Disturbance(9.0, 8.0, "front"),
        Disturbance(14.0, 7.0, "left"),
    ]


@dataclass
class GainProblem:
    """The gain-tuning task: which gains to tune, on which plant pair."""

    sim_plant: PlantParams
    real_plant: PlantParams
    base_gains: FeedbackGains = field(default_factory=FeedbackGains)
    cpg: CpgParams = field(default_factory=CpgParams)
    filter_params: FilterParams = field(default_factory=FilterParams)
    param_names: tuple[str, ...] = ("arm_angle_y.kp", "arm_angle_y.kd")
    bounds: np.ndarray = field(default_factory=lambda: np.array([[0.0, 6.0], [0.0, 4.0]]))
    sequence: list = field(default_factory=standard_test_sequence)
    disturbances: list = field(default_factory=default_disturbance_schedule)
    regularization: float = 0.02
    fall_penalty: float = 50.0

    def __post_init__(self):
        self.bounds = _checked_bounds(self.bounds)
        if len(self.bounds) != len(self.param_names):
            raise InvalidInputError(
                f"bounds has {len(self.bounds)} rows for {len(self.param_names)} param_names"
            )
        known = flatten(self.base_gains)
        unknown = [name for name in self.param_names if name not in known]
        if unknown:
            raise InvalidInputError(f"unknown gain name(s) {unknown}; known: {', '.join(known)}")
        for corner in self.bounds.T:  # both ends of every range must be valid gains
            self.gains_with(corner)
        check_nonnegative("regularization", self.regularization)
        check_nonnegative("fall_penalty", self.fall_penalty)

    def default_x(self) -> np.ndarray:
        gains = flatten(self.base_gains)
        out = [float(gains[name]) for name in self.param_names]
        return np.clip(np.array(out), self.bounds[:, 0], self.bounds[:, 1])

    def gains_with(self, x) -> FeedbackGains:
        values = np.asarray(x, dtype=float).tolist()
        return rebuild(self.base_gains, dict(zip(self.param_names, values)))

    def _run(self, x, plant: PlantParams, run_seed: int, runner=None) -> RunTrace:
        """``run_sequence``'s trace of one run, or ``runner``'s result on the same arguments."""
        return (runner or run_sequence)(
            self.gains_with(x),
            self.cpg,
            self.sequence,
            replace(plant, seed=int(run_seed)),
            disturbances=self.disturbances,
            filter_params=self.filter_params,
        )

    def evaluate(self, x, delta: str, run_seed: int) -> tuple[float, float]:
        """``evaluate_cost`` of ``_run``'s trace, from a run that records only e_P."""
        plant = self.real_plant if delta == REAL else self.sim_plant
        integrals, fell = self._run(x, plant, run_seed, runner=_run_ep_integrals)
        return _penalized(integrals, fell, self.regularization, x, self.fall_penalty)


def _derived_seed(seed: int, iteration: int, k: int) -> int:
    return int(np.random.SeedSequence([int(seed), int(iteration), int(k)]).generate_state(1)[0])


def _cpu_count() -> int:
    """CPUs this process may run on; 1 where the platform cannot say (no sched_getaffinity)."""
    affinity = getattr(os, "sched_getaffinity", None)
    return len(affinity(0)) if affinity is not None else 1


def _run_share(problem: GainProblem, jobs) -> list:
    """Cost of each ``(x, delta, run_seed)`` job in order, or the exception it raised."""
    out = []
    for job in jobs:
        try:
            out.append(problem.evaluate(*job))
        except Exception as exc:  # carried back to the caller, which raises it in job order
            out.append(exc)
    return out


def _helper_main(conn, problem: GainProblem, caller_ends) -> None:
    """A forked helper: run each share of jobs received and send back its outcomes, until None
    or until the caller is gone."""
    for end in caller_ends:  # inherited; closed, the caller's death reads as end of file
        end.close()
    signal.signal(signal.SIGINT, signal.SIG_IGN)  # Ctrl-C is the caller's, which stops the helpers
    with contextlib.suppress(EOFError, OSError):  # the caller is gone: exit quietly
        while (jobs := conn.recv()) is not None:
            conn.send(_run_share(problem, jobs))


class _RunPool:
    """Evaluates batches of independent runs of one problem on up to ``batch`` CPUs.

    On entry it forks min(CPUs, batch) - 1 helpers, kept until exit.  It forks
    none with one CPU, a batch of one, no ``sched_getaffinity`` or more than
    one thread (fork is unsafe there); its batches then run serially.  A batch
    of n jobs uses k = min(processes, n) processes: the main process runs jobs
    ``0::k`` and helper h jobs ``h::k``.  Each share runs to its end and the
    results go back in job order, so they equal the serial loop's bit for bit.
    A helper exits once its caller is gone, killed or not, after its current
    share.
    """

    def __init__(self, problem: GainProblem, batch: int):
        self.problem = problem
        self.batch = batch
        self._helpers: list = []  # (process, connection)

    def __enter__(self):
        n = min(_cpu_count(), self.batch)
        if n < 2 or threading.active_count() > 1:
            return self
        import multiprocessing  # here, not at module level: `import gaitlab` stays as fast

        ctx = multiprocessing.get_context("fork")
        try:
            for _ in range(n - 1):
                mine, theirs = ctx.Pipe()
                caller_ends = [mine, *(conn for _, conn in self._helpers)]
                proc = ctx.Process(target=_helper_main, args=(theirs, self.problem, caller_ends),
                                   daemon=True)
                proc.start()
                theirs.close()
                self._helpers.append((proc, mine))
        except BaseException:
            self.__exit__()
            raise
        return self

    def __exit__(self, *exc_info):  # stops and joins every helper
        for _, conn in self._helpers:
            with contextlib.suppress(OSError):  # a helper that died has closed its end
                conn.send(None)
        for proc, conn in self._helpers:
            proc.join()
            conn.close()

    def costs(self, jobs: list) -> list:
        """Costs of ``(x, delta, run_seed)`` jobs in job order; raises the first failing job's error."""
        k = min(len(self._helpers) + 1, len(jobs))
        conns = [conn for _, conn in self._helpers[: k - 1]]
        for h, conn in enumerate(conns, start=1):
            conn.send(jobs[h::k])
        outcomes = [None] * len(jobs)
        outcomes[::k] = _run_share(self.problem, jobs[::k])
        for h, conn in enumerate(conns, start=1):
            outcomes[h::k] = conn.recv()
        for out in outcomes:
            if isinstance(out, Exception):
                raise out
        return outcomes


def _eval_sim_averaged(pool: _RunPool, x, n: int, seed: int, iteration: int):
    costs = np.array(pool.costs([(x, SIM, _derived_seed(seed, iteration, k)) for k in range(n)]))
    return tuple(costs.mean(axis=0))


def _mutual_information(samples: np.ndarray, argmin_idx: np.ndarray, noise: float) -> np.ndarray:
    """MI between each column's observable and the minimizer index.

    ``samples`` is (n_samples, n_columns); observation noise enters both the
    marginal and the per-group conditional Gaussian entropies.
    """
    var_marg = samples.var(axis=0) + noise
    h_marg = 0.5 * np.log(var_marg)
    h_cond = np.zeros(samples.shape[1])
    n = samples.shape[0]
    # a stable sort keeps each group's rows in sample order, so a group is one slice
    order = np.argsort(argmin_idx, kind="stable")
    grouped = samples[order]
    _, starts, counts = np.unique(argmin_idx[order], return_index=True, return_counts=True)
    for start, count in zip(starts, counts):
        var_g = grouped[start : start + count].var(axis=0) + noise
        h_cond += count / n * 0.5 * np.log(var_g)
    return h_marg - h_cond


def select_next(
    records: list[EvalRecord],
    kernel: CompositeKernel,
    bounds: np.ndarray,
    budget: OptBudget,
    seed: int = 0,
) -> AugmentedPoint:
    """Propose the next augmented query point.

    Draws a seeded uniform candidate grid, samples the joint GP posterior of
    the real-plant cost at all candidates (both as sim and as real queries),
    and scores each potential observation by the estimated information gain
    about the minimizer.  A real query is chosen only while real budget
    remains and its best score exceeds sim_bias_weight times the best sim
    score.
    """
    if not records:
        raise InvalidInputError("need at least one record to select from")
    if len(records) >= budget.max_total:
        raise BudgetExhaustedError(f"total budget {budget.max_total} exhausted")
    real_used = sum(1 for r in records if r.point.delta == REAL)
    check_count("seed", seed)

    bounds = _checked_bounds(bounds)
    d = bounds.shape[0]
    for i, r in enumerate(records):
        if r.point.x.shape != (d,):
            raise InvalidInputError(f"record {i} has {r.point.x.size} gains, the bounds {d} rows")
    lo, span = bounds[:, 0], bounds[:, 1] - bounds[:, 0]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), len(records)]))
    cand = rng.random((_N_CANDIDATES, d))  # unit box; kernel scales refer to it

    x_tr, real_tr, y_tr = _records_arrays(records)
    x_tr = (x_tr - lo) / span

    # keep the incumbents in the candidate set so real queries can exploit
    incumbents = []
    for want_real in (True, False):
        pool = np.flatnonzero(real_tr == want_real)
        if pool.size:
            incumbents.append(x_tr[pool[np.argmin(y_tr[pool])]])
    if incumbents:
        cand = np.vstack([cand, incumbents])
    n = cand.shape[0]
    y_mean = y_tr.mean()
    y_std = y_tr.std()
    if y_std < 1e-12:
        y_std = 1.0
    fit = _GpFit(x_tr, real_tr, (y_tr - y_mean) / y_std, kernel, _NOISE)

    # joint posterior over every candidate observed as real and as sim
    mean, cov = fit.predict(cand)
    chol = _chol_with_escalation(cov, 1e-10)
    z = mean[None, :] + rng.standard_normal((_N_SAMPLES, 2 * n)) @ chol.T

    argmin_idx = np.argmin(z[:, :n], axis=1)
    mi = _mutual_information(z, argmin_idx, _NOISE)
    acq_real, acq_sim = mi[:n], mi[n:]

    best_real = int(np.argmax(acq_real))
    best_sim = int(np.argmax(acq_sim))
    use_real = (
        real_used < budget.max_real
        and math.isfinite(budget.sim_bias_weight)
        and acq_real[best_real] > budget.sim_bias_weight * acq_sim[best_sim]
    )
    if use_real:
        return AugmentedPoint(lo + cand[best_real] * span, REAL)
    return AugmentedPoint(lo + cand[best_sim] * span, SIM)


@dataclass
class OptResult:
    best_x: np.ndarray
    best_cost: float
    best_delta: str
    history: list[EvalRecord]

    @property
    def real_count(self) -> int:
        return sum(1 for r in self.history if r.point.delta == REAL)

    @property
    def sim_count(self) -> int:
        return sum(1 for r in self.history if r.point.delta == SIM)


def _result(records: list[EvalRecord]) -> OptResult:
    """The record of lowest J_alpha among the real-evaluated ones if any, else among all."""
    real = [r for r in records if r.point.delta == REAL]
    best = min(real or records, key=lambda r: r.cost[0])
    return OptResult(best.point.x.copy(), best.cost[0], best.point.delta, records)


def optimize(problem: GainProblem, budget: OptBudget | None = None, seed: int = 0) -> OptResult:
    """Run the budgeted sim/real optimization loop.

    The first points are the default gain vector in simulation, then on the
    real plant if real budget exists; select_next proposes the rest, until
    the total budget is spent.  Sim queries average sim_average_n seeded
    runs, which run at the same time on up to sim_average_n CPUs: the call
    forks its helpers once, on entry, and joins them before it returns or
    raises (see ``_RunPool``).  The history is the same on any number of
    CPUs.  The result is the best real-evaluated point when any real
    evaluation exists, else the best sim.
    """
    budget = budget or OptBudget()
    check_count("seed", seed)
    kernel = CompositeKernel()
    x0 = problem.default_x()
    records: list[EvalRecord] = []

    with _RunPool(problem, budget.sim_average_n) as pool:
        while len(records) < budget.max_total:
            iteration = len(records)
            if iteration == 0:
                point = AugmentedPoint(x0, SIM)
            elif iteration == 1 and budget.max_real > 0:
                point = AugmentedPoint(x0, REAL)
            else:
                point = select_next(records, kernel, problem.bounds, budget, seed=seed)
            if point.delta == REAL:
                cost = problem.evaluate(point.x, REAL, _derived_seed(seed, iteration, 0))
            else:
                cost = _eval_sim_averaged(pool, point.x, budget.sim_average_n, seed, iteration)
            records.append(EvalRecord(point, cost))
    return _result(records)


def random_search(problem: GainProblem, budget: OptBudget | None = None, seed: int = 0) -> OptResult:
    """Baseline with the same real budget: uniform draws evaluated on the real plant.

    All max_real points are drawn first, then their runs go as one batch to
    up to max_real CPUs (see ``_RunPool``); the history is the same on any
    number of CPUs.
    """
    budget = budget or OptBudget()
    if budget.max_real < 1:
        raise InvalidInputError("random_search evaluates only on the real plant: need max_real >= 1")
    check_count("seed", seed)
    rng = np.random.default_rng(np.random.SeedSequence([int(seed), 424242]))
    lo, hi = problem.bounds[:, 0], problem.bounds[:, 1]
    xs = [lo + rng.random(problem.bounds.shape[0]) * (hi - lo) for _ in range(budget.max_real)]
    with _RunPool(problem, budget.max_real) as pool:
        costs = pool.costs([(x, REAL, _derived_seed(seed, i, 0)) for i, x in enumerate(xs)])
    records = [EvalRecord(AugmentedPoint(x, REAL), cost) for x, cost in zip(xs, costs)]
    return _result(records)


def history_to_csv(result: OptResult, param_names, path) -> None:
    """Write the evaluation history in the documented CSV schema."""
    header = "iter,delta," + ",".join(param_names) + ",J_alpha,J_beta"
    lines = [header]
    for i, rec in enumerate(result.history):
        xs = ",".join("%.12g" % v for v in rec.point.x)
        lines.append(
            "%d,%s,%s,%.12g,%.12g" % (i, rec.point.delta, xs, rec.cost[0], rec.cost[1])
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
