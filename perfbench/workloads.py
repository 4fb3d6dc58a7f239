"""The four seeded workloads, their input generators and their output checks.

Each workload is built from a seed (all inputs come from it) and a size
(``full`` for measurement, ``tiny`` for the benchmark's own tests).  A
workload runs in cycles; each cycle issues the workload's calls through a
``Recorder``, which times them and counts failed output checks.  Every
workload has one *main* call kind and one or two *aux* call kinds, and one
quality figure computed over the first ``min_cycles`` cycles, so it is the
same for a given seed however many cycles fit into the measured time.

    tune        main: optimize()            aux: select_next inside optimize()
    sweep       main: `gait run` in-process aux: random_search, 64 real runs
    propose     main: select_next()         aux: calibrate_extrinsics()
    perception  main: typical frame         aux: serpentine mask, dense-noise frame

Calls that the tracer wraps go through their module (``bayesopt.select_next``,
``heatmap.detect_blobs``, ``cli.main``) so a traced cycle sees them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import time
from collections import defaultdict

import numpy as np

from gaitlab import (
    AugmentedPoint,
    CameraIntrinsics,
    CameraPose,
    CompositeKernel,
    EvalRecord,
    GainProblem,
    OptBudget,
    PlantParams,
    make_real_plant,
    optimize,
    project,
    random_search,
)
from gaitlab import bayesopt, cli, heatmap
from gaitlab.orientation import Quaternion

THRESHOLD = 0.2  # detect_blobs threshold used on every frame
CENTROID_TOL_PX = 0.3  # |detected - generated| blob centre, per axis; seen up to ~0.16
CALIB_RMS_MAX_PX = 0.6  # injected noise is 0.3 px per axis, so rms ~0.42
CALIB_POS_TOL_M = 0.02
CALIB_ROT_TOL_RAD = math.radians(0.25)
NOISE_DENSITY = 0.63  # below the ~0.7 where one cell cluster spans the frame


class Recorder:
    """Times calls by kind and counts failed calls.

    A call fails when it raises or when any check made after it fails; it
    is counted once either way.  With a ``pace.Pace`` running, the time of
    its probes inside a call is left out of the call's time.
    """

    def __init__(self, pace=None):
        self.pace = pace
        self.samples = defaultdict(list)  # kind -> busy seconds per call
        self.spans = defaultdict(list)  # kind -> (start, end) per call
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self._current_failed = False

    def probe_seconds(self) -> float:
        return self.pace.spent if self.pace is not None else 0.0

    def add(self, kind, t0, t1, probe_s0):
        """Record a call of ``kind`` that ran from t0 to t1; probe_s0 = probe_seconds() at t0."""
        self.samples[kind].append(t1 - t0 - (self.probe_seconds() - probe_s0))
        self.spans[kind].append((t0, t1))

    def call(self, kind, fn, *args, **kwargs):
        """Time ``fn(*args, **kwargs)`` as one call of ``kind``; None if it raised."""
        self.attempted += 1
        self._current_failed = False
        probe_s0 = self.probe_seconds()
        t0 = time.perf_counter()
        try:
            out = fn(*args, **kwargs)
        except Exception as exc:  # a raising call is a failed operation, not a crash
            self.check(False, f"{kind}: {type(exc).__name__}: {exc}")
            return None
        self.add(kind, t0, time.perf_counter(), probe_s0)
        return out

    def untimed(self):
        """Start an untimed operation (a repeat-determinism check)."""
        self.attempted += 1
        self._current_failed = False

    def check(self, ok, what):
        if not ok and not self._current_failed:
            self._current_failed = True
            self.failed += 1
            self.errors.append(what)


def _rng(seed, *tags):
    return np.random.default_rng(np.random.SeedSequence([int(seed), *tags]))


def _derived_seeds(seed, tag, n):
    return [int(s) for s in np.random.SeedSequence([int(seed), tag]).generate_state(n)]


def _in_bounds(x, bounds):
    x = np.asarray(x, dtype=float)
    return bool(np.all(np.isfinite(x)) and np.all(x >= bounds[:, 0]) and np.all(x <= bounds[:, 1]))


def history_digest(history) -> str:
    h = hashlib.sha256()
    for rec in history:
        h.update(rec.point.delta.encode())
        h.update(np.asarray(rec.point.x, dtype=float).tobytes())
        h.update(np.asarray(rec.cost, dtype=float).tobytes())
    return h.hexdigest()


def default_problem() -> GainProblem:
    sim = PlantParams(seed=0)
    return GainProblem(sim_plant=sim, real_plant=make_real_plant(sim))


def check_history(rec: Recorder, result, budget: OptBudget, bounds, what):
    hist = result.history
    n_real = sum(1 for r in hist if r.point.delta == "real")
    rec.check(len(hist) == budget.max_total, f"{what}: {len(hist)} records, want {budget.max_total}")
    rec.check(n_real <= budget.max_real, f"{what}: {n_real} real records > {budget.max_real}")
    rec.check(
        all(math.isfinite(c) for r in hist for c in r.cost), f"{what}: non-finite cost"
    )
    rec.check(_in_bounds(result.best_x, bounds), f"{what}: best_x {result.best_x} out of bounds")
    rec.check(math.isfinite(result.best_cost), f"{what}: best_cost not finite")


class Workload:
    """Shared cycle bookkeeping; subclasses generate inputs and define cycle()."""

    min_cycles = 1
    # call kind (before any ":") -> the pace probes whose mix of work it resembles
    pace_parts = {"main": "py", "aux": "py"}

    def __init__(self):
        self.quality_values: list[float] = []

    def cycle(self, i: int, rec: Recorder) -> None:
        raise NotImplementedError

    def finish(self, rec: Recorder) -> None:
        """Checks made once, after the measured cycles."""

    def quality(self) -> float:
        return float(np.mean(self.quality_values))


class Tune(Workload):
    """optimize() with the default GainProblem and OptBudget.

    The aux figure is the latency of the select_next calls optimize makes,
    timed by a wrapper that adds two clock reads per proposal.
    """

    # Three calls, so the median holds when one call's seed costs more.
    min_cycles = 3
    pace_parts = {"main": "py", "aux": ("np", "la")}

    def __init__(self, seed, size):
        super().__init__()
        self.problem = default_problem()
        if size == "full":
            self.budget = OptBudget()
            self.prefix = 8
        else:
            self.budget = OptBudget(max_real=2, max_total=4, sim_average_n=2)
            self.prefix = 3
        self.seeds = _derived_seeds(seed, 1, 64)
        self.first = None  # (seed, history) of the first successful call

    def cycle(self, i, rec):
        seed = self.seeds[i % len(self.seeds)]
        inner = bayesopt.select_next

        def timed_select_next(*args, **kwargs):
            probe_s0 = rec.probe_seconds()
            t0 = time.perf_counter()
            point = inner(*args, **kwargs)
            rec.add("aux", t0, time.perf_counter(), probe_s0)
            return point

        bayesopt.select_next = timed_select_next
        try:
            result = rec.call("main", optimize, self.problem, self.budget, seed=seed)
        finally:
            bayesopt.select_next = inner
        if result is not None:
            check_history(rec, result, self.budget, self.problem.bounds, f"optimize seed {seed}")
            if self.first is None:
                self.first = (seed, result.history)
            if i < self.min_cycles:
                self.quality_values.append(result.best_cost)

    def finish(self, rec):
        # Same seed, shorter budget: the history must be a prefix of the first
        # run's, because proposals depend only on (seed, records so far).
        rec.untimed()
        if self.first is None:
            rec.check(False, "optimize repeat: no successful optimize call to repeat")
            return
        seed, history = self.first
        # While fewer than `prefix` records exist, real_used < min(max_real, prefix)
        # decides exactly as real_used < max_real does.
        budget = OptBudget(
            max_real=min(self.budget.max_real, self.prefix),
            max_total=self.prefix,
            sim_average_n=self.budget.sim_average_n,
            sim_bias_weight=self.budget.sim_bias_weight,
        )
        again = optimize(self.problem, budget, seed=seed)
        rec.check(
            history_digest(again.history) == history_digest(history[: self.prefix]),
            f"optimize seed {seed}: repeated run gave a different history digest",
        )


def _disturb_spec(rng, strong) -> list[str]:
    """One strong push that makes the robot fall, or one or two it survives."""
    direction = ("front", "back", "left", "right")
    if strong:
        pushes = [(rng.uniform(60.0, 70.0), rng.uniform(3.0, 17.0), int(rng.integers(4)))]
    else:
        pushes = [(rng.uniform(5.0, 18.0), rng.uniform(1.0, 19.0), int(rng.integers(4)))
                  for _ in range(int(rng.integers(1, 3)))]
    return [f"{imp:.3f}@{t:.2f}s:{direction[d]}" for imp, t, d in pushes]


def read_trace(path) -> np.ndarray:
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


class Sweep(Workload):
    """random_search over 64 real runs, plus many in-process `gait run` calls."""

    min_cycles = 2

    def __init__(self, seed, size, workdir):
        super().__init__()
        self.problem = default_problem()
        n_rs = 64 if size == "full" else 4
        self.budget = OptBudget(max_real=n_rs, max_total=n_rs)
        self.runs_per_cycle = 48 if size == "full" else 3
        self.seq = "standard" if size == "full" else "forward"
        self.steps = 2000 if size == "full" else 1000
        self.rs_seeds = _derived_seeds(seed, 2, 64)
        rng = _rng(seed, 3)
        # every eighth run falls, so the median and p90 are full-length runs
        self.specs = [(int(rng.integers(1 << 30)), _disturb_spec(rng, k % 8 == 7))
                      for k in range(256)]
        self.workdir = workdir
        self.falls = 0
        self.first_trace = None  # (spec, trace.csv bytes) of the first run

    def argv(self, spec, out):
        seed, pushes = spec
        argv = ["gait", "run", "--seq", self.seq, "--seed", str(seed), "--out", out]
        for p in pushes:
            argv += ["--disturb", p]
        return argv

    @staticmethod
    def gait_run(argv):
        with contextlib.redirect_stdout(io.StringIO()) as text:
            code = cli.main(argv)
        return code, text.getvalue()

    def cycle(self, i, rec):
        seed = self.rs_seeds[i % len(self.rs_seeds)]
        result = rec.call("aux", random_search, self.problem, self.budget, seed=seed)
        if result is not None:
            check_history(rec, result, self.budget, self.problem.bounds, f"random_search seed {seed}")
            rec.check(
                all(r.point.delta == "real" for r in result.history), "random_search: sim record"
            )
            if i < self.min_cycles:
                self.quality_values.append(result.best_cost)
        out = os.path.join(self.workdir, "run")
        for j in range(self.runs_per_cycle):
            spec = self.specs[(i * self.runs_per_cycle + j) % len(self.specs)]
            argv = self.argv(spec, out)
            res = rec.call("main", self.gait_run, argv)
            if res is not None:
                self.check_run(rec, spec, argv, res, out)

    def check_run(self, rec, spec, argv, res, out):
        code, text = res
        what = "gait run " + " ".join(argv[2:6])
        rec.check(code in (0, 2), f"{what}: exit code {code}")
        path = os.path.join(out, "trace.csv")
        try:
            data = read_trace(path)
        except (OSError, ValueError) as exc:
            rec.check(False, f"{what}: unreadable trace: {exc}")
            return
        rec.check(bool(np.all(np.isfinite(data))), f"{what}: non-finite trace value")
        fell = bool(data[-1, -1] == 1)
        rec.check(fell == (code == 2) == ("FELL" in text), f"{what}: fall flag disagrees with exit code")
        rec.check(
            len(data) == self.steps if not fell else len(data) <= self.steps,
            f"{what}: {len(data)} samples",
        )
        self.falls += fell
        if self.first_trace is None:
            with open(path, "rb") as fh:
                self.first_trace = (spec, fh.read())

    def finish(self, rec):
        rec.untimed()
        if self.first_trace is None:
            rec.check(False, "gait run repeat: no successful run to repeat")
            return
        spec, data = self.first_trace
        out = os.path.join(self.workdir, "repeat")
        self.gait_run(self.argv(spec, out))
        with open(os.path.join(out, "trace.csv"), "rb") as fh:
            rec.check(fh.read() == data, "gait run repeat: trace.csv differs byte for byte")


def _smooth_cost(x, shift):
    """Synthetic J_alpha over the gain bounds: a bowl plus a ripple."""
    u = (x - shift) / np.array([6.0, 4.0])
    return 0.3 + 2.0 * float(np.sum(u * u)) + 0.1 * math.sin(3.0 * x[0]) * math.cos(2.0 * x[1])


def make_history(rng, n, bounds, real_share=0.35):
    lo, hi = bounds[:, 0], bounds[:, 1]
    shift = lo + rng.uniform(0.2, 0.8, 2) * (hi - lo)
    records = []
    for _ in range(n):
        x = lo + rng.random(2) * (hi - lo)
        real = rng.random() < real_share
        j = _smooth_cost(x, shift) + (0.05 if real else 0.0) + rng.normal(0.0, 0.01)
        records.append(EvalRecord(AugmentedPoint(x, "real" if real else "sim"), (j, 1.3 * j)))
    return records


def make_calibration(rng, n_points=30, noise_px=0.3):
    intr = CameraIntrinsics(500.0, 320.0, 240.0)
    true = CameraPose(
        position=rng.uniform(-0.2, 0.2, 3),
        orientation=Quaternion.from_rotvec(rng.uniform(-0.1, 0.1, 3)),
        intrinsics=intr,
    )
    obs = []
    while len(obs) < n_points:
        z = rng.uniform(2.0, 6.0)
        cam = np.array([rng.uniform(-0.5, 0.5) * z, rng.uniform(-0.4, 0.4) * z, z])
        world = true.orientation.rotate(cam) + true.position
        obs.append((world, project(world, true) + rng.normal(0.0, noise_px, 2)))
    return intr, true, obs


class Propose(Workload):
    """Ask-tell proposals on synthetic histories, plus camera calibration."""

    min_cycles = 8  # the quality figure averages 16 calibration sets
    pace_parts = {"main": ("np", "la"), "aux": ("py", "np")}

    def __init__(self, seed, size):
        super().__init__()
        self.bounds = np.array([[0.0, 6.0], [0.0, 4.0]])
        self.kernel = CompositeKernel()
        sizes = range(20, 161, 20) if size == "full" else (20, 40)
        rng = _rng(seed, 4)
        self.histories = []
        for n in sizes:
            for exhausted in (False, True):
                records = make_history(rng, n, self.bounds)
                n_real = sum(1 for r in records if r.point.delta == "real")
                max_real = n_real if exhausted else n_real + 10
                budget = OptBudget(max_real=max_real, max_total=max(n + 10, max_real))
                self.histories.append((records, budget, exhausted))
        self.calibrations = [make_calibration(rng) for _ in range(32)]
        self.seeds = _derived_seeds(seed, 5, 64)

    def cycle(self, i, rec):
        seed = self.seeds[i % len(self.seeds)]
        for records, budget, exhausted in self.histories:
            point = rec.call(
                "main", bayesopt.select_next, records, self.kernel, self.bounds, budget, seed=seed
            )
            if point is not None:
                self.check_proposal(rec, point, self.bounds, exhausted)
        # Two calibrations a cycle: their cost varies with the observation set.
        for k in (2 * i, 2 * i + 1):
            intr, true, obs = self.calibrations[k % len(self.calibrations)]
            guess = CameraPose(intrinsics=intr)
            result = rec.call("aux", heatmap.calibrate_extrinsics, obs, intr, guess)
            if result is not None:
                self.check_calibration(rec, result, true)
                if i < self.min_cycles:
                    self.quality_values.append(result.rms_residual)

    @staticmethod
    def check_proposal(rec, point, bounds, exhausted):
        rec.check(_in_bounds(point.x, bounds), f"proposal {point.x} out of bounds")
        rec.check(
            point.delta in ("sim", "real") and not (exhausted and point.delta == "real"),
            f"{point.delta} point proposed (real budget spent: {exhausted})",
        )

    @staticmethod
    def check_calibration(rec, result, true):
        rec.check(result.rms_residual <= CALIB_RMS_MAX_PX, f"calibration rms {result.rms_residual:.3f} px")
        pos_err = float(np.linalg.norm(result.pose.position - true.position))
        rec.check(pos_err <= CALIB_POS_TOL_M, f"calibration position error {pos_err:.4f} m")
        q_err = result.pose.orientation.conjugate() * true.orientation
        rot_err = 2.0 * math.acos(min(1.0, abs(q_err.w)))
        rec.check(rot_err <= CALIB_ROT_TOL_RAD, f"calibration rotation error {rot_err:.5f} rad")


def blob_frame(rng, shape, n_blobs, sigma_range):
    """Heatmap with isolated Gaussian blobs over low background noise.

    Returns the frame and the (cx, cy) blob centres.  Blobs keep clear of
    each other and of the border, and peaks stay below 1 so nothing clips.
    """
    h, w = shape
    frame = rng.uniform(0.0, 0.08, shape)
    blobs = []
    while len(blobs) < n_blobs:
        sigma = rng.uniform(*sigma_range)
        cx = rng.uniform(5 * sigma, w - 5 * sigma)
        cy = rng.uniform(5 * sigma, h - 5 * sigma)
        if all(math.hypot(cx - bx, cy - by) > 6 * (sigma + bs) for bx, by, bs, _ in blobs):
            blobs.append((cx, cy, sigma, rng.uniform(0.6, 0.92)))
    for cx, cy, sigma, amp in blobs:
        r = int(math.ceil(5 * sigma))
        r0, r1 = max(int(cy) - r, 0), min(int(cy) + r + 1, h)
        c0, c1 = max(int(cx) - r, 0), min(int(cx) + r + 1, w)
        yy, xx = np.mgrid[r0:r1, c0:c1]
        frame[r0:r1, c0:c1] += amp * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma * sigma))
    return frame, np.array([(cx, cy) for cx, cy, _, _ in blobs])


def serpentine(n, rng) -> np.ndarray:
    """n x n snake of 3-px bands joined at alternating ends; opening keeps it whole.

    Labeling by label propagation needs one sweep per pixel of its length.
    """
    mask = np.zeros((n, n))
    for k, r in enumerate(range(0, n - 2, 4)):
        mask[r : r + 3, :] = 1.0
        if r + 6 < n:
            cols = slice(0, 3) if k % 2 else slice(n - 3, n)
            mask[r + 3, cols] = 1.0
    mask = np.rot90(mask, int(rng.integers(4)))
    return np.ascontiguousarray(mask[:, ::-1] if rng.random() < 0.5 else mask)


def noise_frame(rng, shape, density) -> np.ndarray:
    """Dense binary noise made of 2x2 cells, so opening leaves large tangled regions."""
    cells = (rng.random((shape[0] // 2 + 1, shape[1] // 2 + 1)) < density).astype(float)
    return np.ascontiguousarray(np.kron(cells, np.ones((2, 2)))[: shape[0], : shape[1]])


class Perception(Workload):
    """detect_blobs on typical frames and on adversarial masks."""

    min_cycles = 4  # the quality figure averages the first 32 frames
    pace_parts = {"main": "np", "aux": "np"}

    def __init__(self, seed, size):
        super().__init__()
        rng = _rng(seed, 6)
        if size == "full":
            shape, n_blobs, n_frames, snake, noise_shape = (480, 640), (10, 14), 32, 128, (480, 640)
            self.frames_per_cycle = 8
        else:
            shape, n_blobs, n_frames, snake, noise_shape = (120, 160), (3, 4), 2, 24, (48, 64)
            self.frames_per_cycle = 2
        self.frames = [
            blob_frame(rng, shape, int(rng.integers(n_blobs[0], n_blobs[1] + 1)), (2.5, 6.0))
            for _ in range(n_frames)
        ]
        self.snakes = [serpentine(snake, rng) for _ in range(2)]
        self.noise = [noise_frame(rng, noise_shape, NOISE_DENSITY) for _ in range(8)]

    def cycle(self, i, rec):
        for j in range(self.frames_per_cycle):
            frame, truth = self.frames[(i * self.frames_per_cycle + j) % len(self.frames)]
            dets = rec.call("main", heatmap.detect_blobs, frame, THRESHOLD)
            if dets is not None:
                err = self.check_frame(rec, frame, dets, truth)
                if i < self.min_cycles and math.isfinite(err):
                    self.quality_values.append(err)
        for kind, masks in (("aux:serpentine", self.snakes), ("aux:noise", self.noise)):
            mask = masks[i % len(masks)]
            dets = rec.call(kind, heatmap.detect_blobs, mask, THRESHOLD)
            if dets is not None:
                check_against_oracle(rec, mask, dets, kind)
                if kind == "aux:serpentine":
                    rec.check(
                        len(dets) == 1 and dets[0].pixel_count == int(mask.sum()),
                        "serpentine: not one component covering the whole snake",
                    )

    @staticmethod
    def check_frame(rec, frame, dets, truth) -> float:
        """Checks against the generator and the oracle; returns the mean centre error."""
        check_against_oracle(rec, frame, dets, "frame")
        if len(dets) != len(truth):
            rec.check(False, f"frame: {len(dets)} detections for {len(truth)} blobs")
            return float("nan")
        found = np.array([(d.cx, d.cy) for d in dets])
        errs = []
        for cx, cy in truth:
            dist = np.abs(found - (cx, cy)).max(axis=1)
            errs.append(dist.min())
        errs = np.array(errs)
        rec.check(
            float(errs.max()) <= CENTROID_TOL_PX,
            f"frame: centroid off by {errs.max():.3f} px (tolerance {CENTROID_TOL_PX} px)",
        )
        return float(errs.mean())


def check_against_oracle(rec, frame, dets, what):
    """Components, pixel counts and centroids must match scipy.ndimage's."""
    from scipy import ndimage

    square = np.ones((3, 3), bool)
    mask = ndimage.binary_dilation(
        ndimage.binary_erosion(frame >= THRESHOLD, square, border_value=0), square
    )
    labels, n = ndimage.label(mask, square)
    if len(dets) != n:
        rec.check(False, f"{what}: {len(dets)} components, oracle has {n}")
        return
    if n == 0:
        return
    index = np.arange(1, n + 1)
    counts = ndimage.sum_labels(np.ones_like(frame), labels, index)
    mass = ndimage.sum_labels(frame, labels, index)
    rows, cols = np.indices(frame.shape)
    cy = ndimage.sum_labels(frame * rows, labels, index) / mass
    cx = ndimage.sum_labels(frame * cols, labels, index) / mass
    got = np.array([(d.pixel_count, d.cx, d.cy) for d in dets])
    rec.check(np.array_equal(got[:, 0], counts), f"{what}: component pixel counts differ from oracle")
    rec.check(
        np.allclose(got[:, 1], cx, atol=1e-6) and np.allclose(got[:, 2], cy, atol=1e-6),
        f"{what}: centroids differ from oracle",
    )


WORKLOADS = {"tune": Tune, "sweep": Sweep, "propose": Propose, "perception": Perception}


def build(name, seed, size, workdir):
    cls = WORKLOADS[name]
    return cls(seed, size, workdir) if cls is Sweep else cls(seed, size)
