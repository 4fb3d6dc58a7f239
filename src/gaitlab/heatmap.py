"""Heatmap post-processing and pinhole extrinsic calibration.

Heatmaps are 2-D float arrays with values in [0, 1] (row-major, index
[row, col]).  Detection coordinates are sub-pixel (cx along columns, cy
along rows).  Connected components use 8-connectivity; morphology uses a
fixed 3x3 square structuring element with out-of-image pixels treated as
background.  Masks live in a bool grid with a one-pixel background border:
``detect_blobs`` thresholds the frame into one such grid, opens it in place
through one row buffer and finds its runs there, with no other frame-sized
copy; the public uint8 ``erode``, ``dilate`` and ``connected_components``
pad their input into a grid and run the same passes.
"""

from __future__ import annotations

import math
import re
import warnings
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BehindCameraError,
    DegenerateComponentError,
    DegenerateDataError,
    InvalidInputError,
    check_count,
    check_finite,
    check_nonnegative,
    check_vector,
)
from .numopt import SimplexConfig, SimplexResult, nelder_mead
from .orientation import Quaternion, _matrix, _product, _rotvec


def _as_heatmap(h, t: float | None = None, finite: bool = True) -> np.ndarray:
    """``h`` as a float array; raises InvalidInputError unless it is non-empty
    and 2-D, its values are finite (unless ``finite`` is False) and ``t``, if
    given, is a threshold in [0, 1]."""
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.size == 0:
        raise InvalidInputError("heatmap must be a non-empty 2-D array")
    if finite and not np.isfinite(h).all():
        raise InvalidInputError("heatmap values must be finite")
    if t is not None and not 0.0 <= t <= 1.0:
        raise InvalidInputError("threshold must be in [0, 1]")
    return h


def _mask_grid(b) -> np.ndarray:
    """A 2-D mask as bool in the interior of a grid with a one-pixel background border."""
    b = np.asarray(b)
    if b.ndim != 2:
        raise InvalidInputError("mask must be 2-D")
    grid = np.zeros((b.shape[0] + 2, b.shape[1] + 2), bool)
    grid[1:-1, 1:-1] = b
    return grid


def threshold(h, t: float) -> np.ndarray:
    """Binarize: 1 where value >= t."""
    return (_as_heatmap(h, t) >= t).astype(np.uint8)


def _box3(grid: np.ndarray, rows: np.ndarray, op) -> None:
    """3x3 box filter of a bordered bool grid's interior, in place.

    Rows then columns, through the (H+2, W) buffer ``rows``; the border
    stays False, so out-of-image pixels count as background.
    """
    op(grid[:, :-2], grid[:, 1:-1], out=rows)
    op(rows, grid[:, 2:], out=rows)
    inner = grid[1:-1, 1:-1]
    op(rows[:-2], rows[1:-1], out=inner)
    op(inner, rows[2:], out=inner)


def _morph(b, op) -> np.ndarray:
    grid = _mask_grid(b)
    _box3(grid, np.empty((grid.shape[0], grid.shape[1] - 2), bool), op)
    return grid[1:-1, 1:-1].astype(np.uint8)


def erode(b) -> np.ndarray:
    """3x3 erosion; the border counts as background."""
    return _morph(b, np.logical_and)


def dilate(b) -> np.ndarray:
    """3x3 dilation; nothing grows in from outside the image."""
    return _morph(b, np.logical_or)


def _label_runs(grid):
    """8-connected labeling of a bool mask by horizontal runs.

    ``grid`` is the mask with a background column on each side, C-contiguous.
    Returns (labels, rows, cols), one entry per foreground pixel in scan
    order, cols counted inside the border; labels number the components 0,
    1, ... in scan order of their first pixel.  This is the run-based
    two-scan labeling of He, Chao & Suzuki (IEEE Trans. Image Process.
    2008).  Thanks to the border columns a run is a flat range [start, end)
    of the grid and, one row stride back, that range widened by one pixel
    each way holds exactly the runs above that touch it; two searchsorted
    calls find them.

    The runs are then joined by hook-and-jump connectivity (Shiloach &
    Vishkin, J. Algorithms 1982) in whole-array passes.  Each run first
    points at the first run above that touches it, if any; the other
    touching runs above give the pairs.  Each round jumps every pointer to
    its root (``root = root[root]`` until nothing changes), stops if both
    runs of every pair share a root, and otherwise hooks the larger root of
    each pair to the smaller.  A pointer only ever falls and stays inside
    its component, and the loop stops only when every touching pair shares a
    root, so each run ends at its component's first run in scan order, and
    numbering the roots in order numbers the components in scan order.
    """
    s = grid.shape[1]
    cells = grid.ravel()
    edges = np.flatnonzero(cells[1:] != cells[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    lo = np.searchsorted(ends, starts - s)
    hi = np.searchsorted(starts, ends - s, "right")
    runs = np.arange(len(lo))
    root = np.where(hi > lo, lo, runs)
    extra = np.maximum(hi - lo - 1, 0)  # touching runs above after the first
    below = np.repeat(runs, extra)
    above = np.arange(len(below)) + np.repeat(lo + 1 - np.cumsum(extra) + extra, extra)
    while True:
        while not np.array_equal(jumped := root[root], root):
            root = jumped
        a, b = root[below], root[above]
        apart = a != b
        if not apart.any():
            break
        below, above, a, b = below[apart], above[apart], a[apart], b[apart]
        np.minimum.at(root, np.maximum(a, b), np.minimum(a, b))
    lengths = ends - starts
    flat = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return np.repeat((np.cumsum(root == runs) - 1)[root], lengths), flat // s, flat % s - 1


def connected_components(b) -> list[np.ndarray]:
    """8-connected components of a binary mask.

    Returns one (n, 2) array of (row, col) indices per component, pixels in
    row-major order, components ordered by their first pixel in scan order.
    """
    labels, rows, cols = _label_runs(_mask_grid(b)[1:-1])
    if labels.size == 0:
        return []
    # a stable sort keeps each component's pixels in scan order
    order = np.argsort(labels, kind="stable")
    return np.split(np.column_stack([rows, cols])[order], np.cumsum(np.bincount(labels))[:-1])


@dataclass
class Detection:
    """One blob: sub-pixel centroid, summed intensity, pixel count."""

    cx: float
    cy: float
    mass: float
    pixel_count: int


def _detections(weights, labels, rows, cols, min_pixels: int = 1) -> list[Detection]:
    """One Detection per label with at least min_pixels pixels.

    Count, mass and both weighted moments are one bincount each, which sums
    each label's pixels in the order given.
    """
    count = np.bincount(labels)
    mass = np.bincount(labels, weights)
    keep = count >= min_pixels
    mass = mass[keep]
    if np.any(mass <= 0.0):
        raise DegenerateComponentError("component has zero total mass")
    cx = np.bincount(labels, weights * cols)[keep] / mass
    cy = np.bincount(labels, weights * rows)[keep] / mass
    return [Detection(*d) for d in zip(cx.tolist(), cy.tolist(), mass.tolist(), count[keep].tolist())]


def subpixel_centroid(h, component: np.ndarray) -> Detection:
    """Intensity-weighted centroid of a component over the original heatmap.

    Only the component's pixels are checked for finiteness, so the cost is
    set by the component, not the frame.
    """
    h = _as_heatmap(h, finite=False)
    component = np.asarray(component)
    if component.size == 0:
        raise DegenerateComponentError("empty component")
    rows = component[:, 0]
    cols = component[:, 1]
    weights = check_vector("heatmap values", h[rows, cols], None, "finite")
    return _detections(weights, np.zeros(len(weights), np.intp), rows, cols)[0]


def detect_blobs(h, t: float = 0.2, min_pixels: int = 1) -> list[Detection]:
    """Threshold, open (erode then dilate), label, and take centroids.

    The same as subpixel_centroid of each component of the opened mask with
    at least min_pixels pixels, bit for bit.  The mask is made, opened and
    labeled in one bordered bool grid, with one row buffer for both
    morphology passes.
    """
    check_count("min_pixels", min_pixels)
    h = _as_heatmap(h, t)  # checks the whole frame for finiteness
    grid = np.zeros((h.shape[0] + 2, h.shape[1] + 2), bool)
    np.greater_equal(h, t, out=grid[1:-1, 1:-1])
    buf = np.empty((grid.shape[0], h.shape[1]), bool)
    _box3(grid, buf, np.logical_and)
    _box3(grid, buf, np.logical_or)
    del buf  # so labeling peaks at the grid and its run-edge comparison
    labels, rows, cols = _label_runs(grid[1:-1])
    return _detections(h[rows, cols], labels, rows, cols, min_pixels)


@dataclass
class CameraIntrinsics:
    focal: float  # px
    cx: float
    cy: float

    def __post_init__(self):
        check_nonnegative("focal length", self.focal, positive=True)
        check_finite("principal point cx", self.cx)
        check_finite("principal point cy", self.cy)


@dataclass
class CameraPose:
    """Camera extrinsics (position in world, camera-to-world rotation) and intrinsics."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    orientation: Quaternion = field(default_factory=Quaternion.identity)
    intrinsics: CameraIntrinsics = field(default_factory=lambda: CameraIntrinsics(500.0, 320.0, 240.0))

    def __post_init__(self):
        self.position = check_vector("camera position", self.position)


def _to_camera(points, pose: CameraPose) -> np.ndarray:
    """World points, shape (3,) or (N, 3), in the camera frame."""
    return pose.orientation.rotate_inverse(np.asarray(points, dtype=float) - pose.position)


def _pinhole(p_cam: np.ndarray, k: CameraIntrinsics):
    """Pixel coordinates (u, v) of camera-frame points (+z optical axis,
    +x right, +y down)."""
    z = p_cam[..., 2]
    return k.focal * p_cam[..., 0] / z + k.cx, k.focal * p_cam[..., 1] / z + k.cy


def project(point, pose: CameraPose) -> np.ndarray:
    """Pinhole projection of a world point to pixels."""
    p_cam = _to_camera(check_vector("point", point), pose)
    if p_cam[2] <= 0.0:
        raise BehindCameraError(f"point depth {p_cam[2]:.6f} is not positive")
    return np.array(_pinhole(p_cam, pose.intrinsics))


_MIN_DEPTH = 1e-6  # m; calibration treats a point at or below this depth as behind the camera
# m; the simplex's first position step is 2.5e-4 m, which rounds away in the
# coordinates of points much farther from the guess than this
_MAX_POINT_DISTANCE = 1e9


@dataclass
class CalibrationResult:
    pose: CameraPose
    rms_residual: float
    # False at the iteration limit, with a point behind the camera or with a
    # non-finite residual
    converged: bool
    iterations: int


def _check_pose_determined(worlds: np.ndarray, guess: CameraPose) -> None:
    """Raise DegenerateDataError unless the world points can fix a camera pose.

    A pose needs at least 4 distinct points that are not all on one line: a
    line of points leaves the rotation about it free.  Points must also lie
    within _MAX_POINT_DISTANCE of the guess.
    """
    distinct = np.unique(worlds, axis=0)
    if len(distinct) < 4:
        raise DegenerateDataError(
            f"need at least 4 distinct world points to fix a camera pose, got {len(distinct)}"
        )
    reach = float(np.max(np.abs(worlds - guess.position)))
    if not reach <= _MAX_POINT_DISTANCE:
        raise DegenerateDataError(
            f"world points lie up to {reach:.3g} m from the guess position; "
            f"calibration takes points within {_MAX_POINT_DISTANCE:.0e} m of it"
        )
    spread = np.linalg.svd(distinct - distinct.mean(axis=0), compute_uv=False)
    # rounding leaves the points of a line about eps * |coordinate| off it
    if spread[1] <= len(distinct) * np.finfo(float).eps * max(spread[0], np.abs(distinct).max()):
        raise DegenerateDataError(
            "the world points are collinear; the rotation about their line is undetermined"
        )


def calibrate_extrinsics(
    observations,
    intrinsics: CameraIntrinsics,
    guess: CameraPose,
    cfg: SimplexConfig | None = None,
) -> CalibrationResult:
    """Fit camera position and orientation to (world point, pixel) pairs.

    Runs Nelder-Mead over a 6-vector (position offset, rotation-vector
    increment composed onto the guess), minimizing mean squared reprojection
    error.  Needs at least 4 observations, each finite (else InvalidInputError
    names it), of at least 4 distinct world points, not all collinear, within
    1e9 m of the guess position; raises DegenerateDataError otherwise.

    The objective's bits depend on its evaluation order, which is fixed: the
    rotation matrix comes from the Python-float product of the guess
    quaternion and the increment's; the camera-frame points are
    (world - (guess position + offset)) @ R; each pixel axis error is
    ((focal * p) / depth + principal point) - pixel, squared, and a row's
    error is its u term plus its v term; a row at depth <= 1e-6 m scores
    1e6 + (1 - depth)^2 instead; and the rows are summed left to right.
    One ``np.errstate(all="ignore")`` scope covers the evaluation at the
    guess and both simplex runs, so the objective itself enters none.
    """
    observations = list(observations)
    if len(observations) < 4:
        raise InvalidInputError("need at least 4 observations")
    for i, (world, pixel) in enumerate(observations):
        check_vector(f"observation {i}", [*world, *pixel], 5, "a finite (x, y, z, u, v)")
    worlds = np.array([w for w, _ in observations], dtype=float)
    pixels = np.array([px for _, px in observations], dtype=float)
    _check_pose_determined(worlds, guess)
    cfg = cfg or SimplexConfig(max_iter=4000, x_tol=1e-12, f_tol=1e-16)
    q = guess.orientation
    q_guess = (q.w, q.x, q.y, q.z)
    focal = intrinsics.focal
    centre = np.array([intrinsics.cx, intrinsics.cy])

    def objective(params) -> float:
        # _to_camera and _pinhole of the pose at params, without building that pose
        rotation = _matrix(*_product(q_guess, _rotvec(params[3:])))
        p_cam = (worlds - (guess.position + params[:3])) @ rotation
        d = focal * p_cam[:, :2] / p_cam[:, 2:] + centre - pixels
        d *= d
        err = d[:, 0] + d[:, 1]
        depth = p_cam[:, 2]
        behind = depth <= _MIN_DEPTH
        if np.count_nonzero(behind):
            err[behind] = 1e6 + (1.0 - depth[behind]) ** 2  # keep the simplex in front
        # summed left to right like a running total, so results do not
        # depend on np.sum's pairwise grouping
        return np.add.accumulate(err)[-1] / len(observations)

    x0 = np.zeros(6)
    # rows behind the camera are replaced in the objective; a non-finite value
    # the simplex reaches anyway is reported through ``converged``
    with np.errstate(all="ignore"):
        at_guess = objective(x0)
        if not math.isfinite(at_guess):
            raise InvalidInputError(
                f"mean squared reprojection error at the guess is {at_guess} px^2 with focal "
                f"length {intrinsics.focal} px and principal point ({intrinsics.cx}, "
                f"{intrinsics.cy}) px: the squared pixel errors overflow"
            )
        result: SimplexResult = nelder_mead(objective, x0, cfg)
        # one restart from the found point polishes flat valleys cheaply
        result2 = nelder_mead(objective, result.x, cfg)
    if result2.fun < result.fun:
        result2 = SimplexResult(
            result2.x, result2.fun, result.iterations + result2.iterations, result2.converged
        )
        result = result2
    pose = CameraPose(
        position=guess.position + result.x[:3],
        orientation=guess.orientation * Quaternion.from_rotvec(result.x[3:]),
        intrinsics=intrinsics,
    )
    in_front = bool(np.all(_to_camera(worlds, pose)[:, 2] > _MIN_DEPTH))
    return CalibrationResult(
        pose=pose,
        rms_residual=math.sqrt(result.fun),
        converged=result.converged and in_front and math.isfinite(result.fun),
        iterations=result.iterations,
    )


_PGM_GAP = re.compile(rb"(?:\s|#[^\n]*\n)*")  # whitespace and comment lines
_PGM_TOKEN = re.compile(rb"\S+")


def read_pgm(path) -> np.ndarray:
    """Read a binary (P5) PGM into a [0, 1] float heatmap."""
    with open(path, "rb") as fh:
        data = fh.read()
    tokens = []
    pos = 0
    while len(tokens) < 4:
        # the gap always matches, so no failed token match backtracks into it
        m = _PGM_TOKEN.match(data, _PGM_GAP.match(data, pos).end())
        if m is None:
            raise InvalidInputError(f"malformed PGM header in {path}")
        tokens.append(m.group())
        pos = m.end()
    if tokens[0] != b"P5":
        raise InvalidInputError(f"{path} is not a binary PGM (magic {tokens[0]!r})")
    try:
        width, height, maxval = (int(t) for t in tokens[1:])
    except ValueError:
        raise InvalidInputError(f"non-integer PGM header field in {path}: {tokens[1:]}") from None
    if width <= 0 or height <= 0:
        raise InvalidInputError(f"PGM size {width}x{height} in {path} is not positive")
    if maxval <= 0 or maxval > 255:
        raise InvalidInputError(f"unsupported PGM maxval {maxval}")
    start = pos + 1
    if len(data) - start < width * height:
        raise InvalidInputError(
            f"truncated PGM {path}: {max(len(data) - start, 0)} of {width * height} pixel bytes"
        )
    pixels = np.frombuffer(data, dtype=np.uint8, count=width * height, offset=start)
    if pixels.max() > maxval:
        raise InvalidInputError(f"PGM {path} has a pixel above its maxval {maxval}")
    return pixels.reshape(height, width).astype(float) / maxval


def write_pgm(h, path) -> None:
    """Write a [0, 1] heatmap as a binary PGM with maxval 255."""
    h = _as_heatmap(h)
    scaled = np.clip(np.round(h * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (h.shape[1], h.shape[0]))
        fh.write(scaled.tobytes())


def read_heatmap_csv(path) -> np.ndarray:
    try:
        with warnings.catch_warnings():
            # loadtxt warns and returns an empty array for a file without values
            warnings.filterwarnings("error", "loadtxt: input contained no data", UserWarning)
            h = np.loadtxt(path, delimiter=",", dtype=float)
    except UserWarning:
        raise InvalidInputError(f"heatmap CSV {path} holds no values") from None
    except ValueError as exc:  # a non-numeric cell or rows of different lengths
        raise InvalidInputError(f"malformed heatmap CSV {path}: {str(exc).split(';')[0]}") from None
    return _as_heatmap(np.atleast_2d(h))


def detections_to_csv(detections_by_channel: dict[int, list[Detection]], path) -> None:
    """Write the documented detections schema: channel,cx,cy,mass,pixels."""
    lines = ["channel,cx,cy,mass,pixels"]
    for channel in sorted(detections_by_channel):
        for det in detections_by_channel[channel]:
            lines.append(
                "%d,%.6f,%.6f,%.6f,%d" % (channel, det.cx, det.cy, det.mass, det.pixel_count)
            )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")
