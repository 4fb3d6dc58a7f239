"""Heatmap post-processing and pinhole extrinsic calibration.

Heatmaps are 2-D float arrays with values in [0, 1] (row-major, index
[row, col]).  Detection coordinates are sub-pixel (cx along columns, cy
along rows).  Connected components use 8-connectivity; morphology uses a
fixed 3x3 square structuring element with out-of-image pixels treated as
background.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BehindCameraError,
    DegenerateComponentError,
    InvalidInputError,
    check_nonnegative,
)
from .numopt import SimplexConfig, SimplexResult, nelder_mead
from .orientation import Quaternion


def _as_heatmap(h) -> np.ndarray:
    h = np.asarray(h, dtype=float)
    if h.ndim != 2 or h.shape[0] < 1 or h.shape[1] < 1:
        raise InvalidInputError("heatmap must be a non-empty 2-D array")
    return h


def _check_finite(values) -> None:
    if not np.all(np.isfinite(values)):
        raise InvalidInputError("heatmap values must be finite")


def _check_heatmap(h) -> np.ndarray:
    h = _as_heatmap(h)
    _check_finite(h)
    return h


def _check_mask(b) -> np.ndarray:
    b = np.asarray(b)
    if b.ndim != 2:
        raise InvalidInputError("mask must be 2-D")
    return b.astype(bool)


def threshold(h, t: float) -> np.ndarray:
    """Binarize: 1 where value >= t."""
    h = _check_heatmap(h)
    if not 0.0 <= t <= 1.0:
        raise InvalidInputError("threshold must be in [0, 1]")
    return (h >= t).astype(np.uint8)


def _shifted_stack(b: np.ndarray, fill: bool) -> np.ndarray:
    padded = np.pad(b, 1, constant_values=fill)
    views = [
        padded[dr : dr + b.shape[0], dc : dc + b.shape[1]]
        for dr in range(3)
        for dc in range(3)
    ]
    return np.stack(views)


def erode(b) -> np.ndarray:
    """3x3 erosion; the border counts as background."""
    b = _check_mask(b)
    return np.all(_shifted_stack(b, False), axis=0).astype(np.uint8)


def dilate(b) -> np.ndarray:
    """3x3 dilation; nothing grows in from outside the image."""
    b = _check_mask(b)
    return np.any(_shifted_stack(b, False), axis=0).astype(np.uint8)


def _label_unionfind(mask):
    """Two-pass 8-connectivity labeling with union-find.

    Both passes visit only foreground pixels.  The first pass takes them in
    scan order on a grid padded with one background row on top and one
    background column on each side, so every already-scanned neighbour (NW,
    N, NE, W) is a plain offset.  N touches the other three and W touches
    NW, so at most one union (W or NW with NE) is ever needed (the decision
    tree of Wu, Otoo & Suzuki, Pattern Anal. Appl. 2009).  A union links the
    larger root under the smaller, so a component's root is the label of its
    first pixel in scan order; flattening the parent table in increasing
    order then numbers the components 1, 2, ... in that order.  The label
    and parent tables are Python lists, which CPython indexes several times
    faster than it reads NumPy scalars.
    """
    h, w = mask.shape
    s = w + 2
    grid = np.zeros((h + 1, s), np.uint8)
    grid[1:, 1:-1] = mask
    fg = np.flatnonzero(grid)
    fg_list = fg.tolist()
    labels = [0] * ((h + 1) * s)
    parent = [0] * (len(fg_list) + 1)
    n = 0
    for p in fg_list:
        a = labels[p - s]  # N
        if a == 0:
            a = labels[p - 1]  # W
            if a == 0:
                a = labels[p - s - 1]  # NW
            b = labels[p - s + 1]  # NE
            if a == 0 and b == 0:
                n += 1
                parent[n] = n
                a = n
            elif a == 0:
                a = b
            elif b != 0:
                while parent[a] != a:  # find both roots, halving the paths
                    parent[a] = parent[parent[a]]
                    a = parent[a]
                while parent[b] != b:
                    parent[b] = parent[parent[b]]
                    b = parent[b]
                if b < a:
                    a, b = b, a
                parent[b] = a
        labels[p] = a
    k = 0
    for lab in range(1, n + 1):  # parent[lab] < lab unless lab is a root
        if parent[lab] == lab:
            k += 1
            parent[lab] = k
        else:
            parent[lab] = parent[parent[lab]]
    out = np.zeros((h + 1) * s, np.int64)
    out[fg] = [parent[labels[p]] for p in fg_list]
    return out.reshape(h + 1, s)[1:, 1:-1]


def connected_components(b) -> list[np.ndarray]:
    """8-connected components of a binary mask.

    Returns one (n, 2) array of (row, col) indices per component, pixels in
    row-major order, components ordered by their first pixel in scan order.
    """
    b = _check_mask(b)
    if b.size == 0 or not b.any():
        return []
    flat = _label_unionfind(b.astype(np.uint8)).ravel()
    fg = np.flatnonzero(flat)
    # labels number the components in scan order of their first pixel, and a
    # stable sort keeps each component's pixels in scan order
    order = np.argsort(flat[fg], kind="stable")
    sorted_labels = flat[fg][order]
    boundaries = np.flatnonzero(np.diff(sorted_labels)) + 1
    w = b.shape[1]
    return [np.column_stack([g // w, g % w]) for g in np.split(fg[order], boundaries)]


@dataclass
class Detection:
    """One blob: sub-pixel centroid, summed intensity, pixel count."""

    cx: float
    cy: float
    mass: float
    pixel_count: int


def subpixel_centroid(h, component: np.ndarray) -> Detection:
    """Intensity-weighted centroid of a component over the original heatmap.

    Only the component's pixels are checked for finiteness, so the cost is
    set by the component, not the frame.
    """
    h = _as_heatmap(h)
    component = np.asarray(component)
    if component.size == 0:
        raise DegenerateComponentError("empty component")
    rows = component[:, 0]
    cols = component[:, 1]
    weights = h[rows, cols]
    _check_finite(weights)
    mass = float(weights.sum())
    if mass <= 0.0:
        raise DegenerateComponentError("component has zero total mass")
    return Detection(
        cx=float(np.dot(weights, cols) / mass),
        cy=float(np.dot(weights, rows) / mass),
        mass=mass,
        pixel_count=int(component.shape[0]),
    )


def detect_blobs(h, t: float = 0.2, min_pixels: int = 1) -> list[Detection]:
    """Threshold, open (erode then dilate), label, and take centroids."""
    h = _check_heatmap(h)
    mask = dilate(erode(threshold(h, t)))
    out = []
    for comp in connected_components(mask):
        if comp.shape[0] >= min_pixels:
            out.append(subpixel_centroid(h, comp))
    return out


@dataclass
class CameraIntrinsics:
    focal: float  # px
    cx: float
    cy: float

    def __post_init__(self):
        check_nonnegative("focal length", self.focal, positive=True)


@dataclass
class CameraPose:
    """Camera extrinsics (position in world, camera-to-world rotation) and intrinsics."""

    position: np.ndarray = field(default_factory=lambda: np.zeros(3))
    orientation: Quaternion = field(default_factory=Quaternion.identity)
    intrinsics: CameraIntrinsics = field(default_factory=lambda: CameraIntrinsics(500.0, 320.0, 240.0))

    def __post_init__(self):
        self.position = np.asarray(self.position, dtype=float)


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
    p_cam = _to_camera(point, pose)
    if p_cam[2] <= 0.0:
        raise BehindCameraError(f"point depth {p_cam[2]:.6f} is not positive")
    return np.array(_pinhole(p_cam, pose.intrinsics))


_MIN_DEPTH = 1e-6  # m; calibration treats a point at or below this depth as behind the camera


@dataclass
class CalibrationResult:
    pose: CameraPose
    rms_residual: float
    converged: bool  # False at the iteration limit or with a point behind the camera
    iterations: int


def calibrate_extrinsics(
    observations,
    intrinsics: CameraIntrinsics,
    guess: CameraPose,
    cfg: SimplexConfig | None = None,
) -> CalibrationResult:
    """Fit camera position and orientation to (world point, pixel) pairs.

    Runs Nelder-Mead over a 6-vector (position offset, rotation-vector
    increment composed onto the guess), minimizing mean squared reprojection
    error.  Needs at least 4 observations.
    """
    observations = list(observations)
    if len(observations) < 4:
        raise InvalidInputError("need at least 4 observations")
    worlds = np.array([w for w, _ in observations], dtype=float)
    pixels = np.array([px for _, px in observations], dtype=float)
    cfg = cfg or SimplexConfig(max_iter=4000, x_tol=1e-12, f_tol=1e-16)

    def pose_from(params) -> CameraPose:
        return CameraPose(
            position=guess.position + params[:3],
            orientation=guess.orientation * Quaternion.from_rotvec(params[3:]),
            intrinsics=intrinsics,
        )

    def objective(params) -> float:
        p_cam = _to_camera(worlds, pose_from(params))
        depth = p_cam[:, 2]
        with np.errstate(all="ignore"):  # rows behind the camera are replaced below
            u, v = _pinhole(p_cam, intrinsics)
        err = np.where(
            depth <= _MIN_DEPTH,
            1e6 + (1.0 - depth) ** 2,  # keep the simplex in front
            (u - pixels[:, 0]) ** 2 + (v - pixels[:, 1]) ** 2,
        )
        # summed left to right like a running total, so results do not
        # depend on np.sum's pairwise grouping
        return np.add.accumulate(err)[-1] / len(observations)

    result: SimplexResult = nelder_mead(objective, np.zeros(6), cfg)
    # one restart from the found point polishes flat valleys cheaply
    result2 = nelder_mead(objective, result.x, cfg)
    if result2.fun < result.fun:
        result2 = SimplexResult(
            result2.x, result2.fun, result.iterations + result2.iterations, result2.converged
        )
        result = result2
    pose = pose_from(result.x)
    in_front = bool(np.all(_to_camera(worlds, pose)[:, 2] > _MIN_DEPTH))
    return CalibrationResult(
        pose=pose,
        rms_residual=math.sqrt(result.fun),
        converged=result.converged and in_front,
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
    h = _check_heatmap(h)
    scaled = np.clip(np.round(h * 255.0), 0, 255).astype(np.uint8)
    with open(path, "wb") as fh:
        fh.write(b"P5\n%d %d\n255\n" % (h.shape[1], h.shape[0]))
        fh.write(scaled.tobytes())


def read_heatmap_csv(path) -> np.ndarray:
    try:
        h = np.loadtxt(path, delimiter=",", dtype=float)
    except ValueError as exc:  # a non-numeric cell or rows of different lengths
        raise InvalidInputError(f"malformed heatmap CSV {path}: {str(exc).split(';')[0]}") from None
    return _check_heatmap(np.atleast_2d(h))


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
