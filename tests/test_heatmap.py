import math
import time
import tracemalloc
import warnings

import numpy as np
import pytest

from gaitlab import heatmap
from gaitlab.errors import (
    BehindCameraError,
    DegenerateComponentError,
    DegenerateDataError,
    InvalidInputError,
)
from gaitlab.heatmap import (
    CameraIntrinsics,
    CameraPose,
    calibrate_extrinsics,
    connected_components,
    detect_blobs,
    detections_to_csv,
    dilate,
    erode,
    project,
    read_heatmap_csv,
    read_pgm,
    subpixel_centroid,
    threshold,
    write_pgm,
)
from gaitlab.numopt import SimplexConfig, nelder_mead
from gaitlab.orientation import Quaternion
from test_numopt import oracle_nelder_mead


def flood_fill_components(mask):
    """Brute-force 8-connectivity oracle."""
    mask = np.asarray(mask, bool)
    h, w = mask.shape
    seen = np.zeros_like(mask)
    comps = []
    for r in range(h):
        for c in range(w):
            if mask[r, c] and not seen[r, c]:
                stack = [(r, c)]
                seen[r, c] = True
                comp = []
                while stack:
                    rr, cc = stack.pop()
                    comp.append((rr, cc))
                    for dr in (-1, 0, 1):
                        for dc in (-1, 0, 1):
                            nr, nc = rr + dr, cc + dc
                            if 0 <= nr < h and 0 <= nc < w and mask[nr, nc] and not seen[nr, nc]:
                                seen[nr, nc] = True
                                stack.append((nr, nc))
                comps.append(np.array(sorted(comp)))
    comps.sort(key=lambda comp: (comp[:, 0] * w + comp[:, 1]).min())
    return comps


def test_threshold_examples():
    h = np.full((4, 5), 0.4)
    assert threshold(h, 0.5).sum() == 0
    assert threshold(h, 0.0).sum() == 20
    rng = np.random.default_rng(0)
    h = rng.random((8, 9))
    assert np.array_equal(threshold(h, 0.3), (h >= 0.3).astype(np.uint8))
    with pytest.raises(InvalidInputError):
        threshold(h, 1.5)


def test_erode_removes_isolated_pixel():
    m = np.zeros((5, 5), np.uint8)
    m[2, 2] = 1
    assert erode(m).sum() == 0


def test_erode_3x3_block_leaves_center():
    m = np.zeros((5, 5), np.uint8)
    m[1:4, 1:4] = 1
    out = erode(m)
    assert out.sum() == 1 and out[2, 2] == 1


def test_dilate_grows_pixel_to_block():
    m = np.zeros((5, 5), np.uint8)
    m[2, 2] = 1
    assert dilate(m).sum() == 9


def test_border_is_background():
    m = np.ones((4, 4), np.uint8)
    out = erode(m)
    assert out.sum() == 4  # only the 2x2 interior survives
    m = np.zeros((3, 3), np.uint8)
    m[0, 0] = 1
    assert dilate(m).sum() == 4  # clipped at the border


def test_opening_is_anti_extensive():
    rng = np.random.default_rng(1)
    for _ in range(50):
        m = (rng.random((20, 24)) < 0.5).astype(np.uint8)
        opened = dilate(erode(m))
        assert np.all(opened <= m)


def test_components_diagonal_touching():
    m = np.zeros((4, 4), np.uint8)
    m[1, 1] = m[2, 2] = 1
    assert len(connected_components(m)) == 1


def test_components_separated_by_background_row():
    m = np.zeros((5, 4), np.uint8)
    m[0] = 1
    m[3] = 1
    assert len(connected_components(m)) == 2


def serpentine(n):
    """n x n snake of 3-px bands joined at alternating ends: one long component."""
    m = np.zeros((n, n), np.uint8)
    for k, r in enumerate(range(0, n - 2, 4)):
        m[r : r + 3] = 1
        if r + 6 < n:
            m[r + 3, slice(0, 3) if k % 2 else slice(n - 3, n)] = 1
    return m


def random_masks(rng, count):
    for _ in range(count):
        shape = (rng.integers(1, 32), rng.integers(1, 32))
        yield (rng.random(shape) < rng.uniform(0.05, 0.8)).astype(np.uint8)


def checkerboard(shape):
    return (np.indices(shape).sum(axis=0) % 2).astype(np.uint8)


def comb(shape):
    """Vertical 1-px teeth 1 px apart, joined alternately at the top and the bottom:
    one component that winds across the whole mask."""
    m = np.zeros(shape, np.uint8)
    m[:, ::2] = 1
    m[0, 1::4] = 1
    m[-1, 3::4] = 1
    return m


def spiral(n):
    """n x n square spiral of a 1-px line with 1-px gaps: one component, one long path."""
    m = np.zeros((n, n), np.uint8)
    r = c = 0
    m[0, 0] = 1
    legs = [n - 1] + [length for length in range(n - 1, 0, -2) for _ in (0, 1)]
    for k, length in enumerate(legs):
        dr, dc = ((0, 1), (1, 0), (0, -1), (-1, 0))[k % 4]
        for _ in range(length):
            r, c = r + dr, c + dc
            m[r, c] = 1
    return m


def structured_masks(rng):
    yield serpentine(29)
    yield np.rot90(serpentine(24))
    cells = rng.random((12, 14)) < 0.55  # dense noise made of 2x2 cells
    yield np.kron(cells, np.ones((2, 2), np.uint8))[:23, :27]
    for n in (1, 2, 17):  # 1 x N and N x 1
        yield (rng.random((1, n)) < 0.6).astype(np.uint8)
        yield (rng.random((n, 1)) < 0.6).astype(np.uint8)
    yield np.ones((1, 9), np.uint8)
    yield np.ones((9, 1), np.uint8)
    yield np.ones((13, 21), np.uint8)
    yield serpentine(27)[::-1]
    yield serpentine(26)[:, ::-1]
    yield np.rot90(serpentine(25), 3)
    yield checkerboard((19, 26))
    yield comb((21, 30))
    yield comb((16, 17))
    yield spiral(25)
    yield spiral(18)
    for density in (0.55, 0.6, 0.65, 0.7):  # 1-px noise: many short, branching runs
        yield (rng.random((24, 31)) < density).astype(np.uint8)


def test_components_match_flood_fill_oracle():
    rng = np.random.default_rng(2)
    for m in (*random_masks(rng, 300), *structured_masks(rng)):
        got = connected_components(m)
        want = flood_fill_components(m)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


def oracle_label_runs(grid):
    """_label_runs with a Python union-find over the runs: each run joins the runs
    above that touch it, the larger root linked under the smaller with path
    halving, then the parent list is flattened in order."""
    s = grid.shape[1]
    cells = grid.ravel()
    edges = np.flatnonzero(cells[1:] != cells[:-1]) + 1
    starts, ends = edges[0::2], edges[1::2]
    lo = np.searchsorted(ends, starts - s).tolist()
    hi = np.searchsorted(starts, ends - s, "right").tolist()
    parent = list(range(len(lo)))
    for i, j, stop in zip(range(len(lo)), lo, hi):
        a = i
        for b in range(j, stop):
            while parent[b] != b:
                parent[b] = parent[parent[b]]
                b = parent[b]
            if b < a:
                a, b = b, a
            parent[b] = a
    k = 0
    for i, p in enumerate(parent):
        if p == i:
            parent[i] = k
            k += 1
        else:
            parent[i] = parent[p]
    lengths = ends - starts
    flat = np.arange(lengths.sum()) + np.repeat(starts - np.cumsum(lengths) + lengths, lengths)
    return np.repeat(np.array(parent, np.intp), lengths), flat // s, flat % s - 1


def test_label_runs_matches_the_union_find_oracle():
    rng = np.random.default_rng(8)
    for m in (*random_masks(rng, 300), *structured_masks(rng), checkerboard((480, 640))):
        grid = heatmap._mask_grid(m)[1:-1]
        got, want = heatmap._label_runs(grid), oracle_label_runs(grid)
        for g, w in zip(got, want):
            assert g.dtype == w.dtype and np.array_equal(g, w)


def test_labeling_cost_is_bounded_on_long_serpentine():
    snake = serpentine(256).astype(float)
    start = time.perf_counter()
    dets = detect_blobs(snake, t=0.5)
    elapsed = time.perf_counter() - start
    assert len(dets) == 1 and dets[0].pixel_count == snake.sum()
    assert elapsed < 3.0, f"detect_blobs took {elapsed:.2f} s on a 256x256 serpentine"


def test_labeling_cost_is_bounded_on_checkerboard():
    board = checkerboard((480, 640))  # every run is one pixel: the most runs a mask can have
    start = time.perf_counter()
    comps = connected_components(board)
    elapsed = time.perf_counter() - start
    assert len(comps) == 1 and len(comps[0]) == board.sum()
    assert elapsed < 3.0, f"connected_components took {elapsed:.2f} s on a 480x640 checkerboard"


def test_labeling_cost_is_bounded_on_comb():
    teeth = comb((480, 640))  # 320 one-pixel teeth of 480 runs each, chained end to end
    start = time.perf_counter()
    comps = connected_components(teeth)
    elapsed = time.perf_counter() - start
    assert len(comps) == 1 and len(comps[0]) == teeth.sum()
    assert elapsed < 3.0, f"connected_components took {elapsed:.2f} s on a 480x640 comb"


def test_labeling_cost_is_bounded_on_dense_pixel_noise():
    noise = (np.random.default_rng(9).random((480, 640)) < 0.6).astype(np.uint8)
    start = time.perf_counter()
    comps = connected_components(noise)
    elapsed = time.perf_counter() - start
    labels = oracle_label_runs(heatmap._mask_grid(noise)[1:-1])[0]
    assert [len(c) for c in comps] == np.bincount(labels).tolist()
    assert elapsed < 3.0, f"connected_components took {elapsed:.2f} s on 480x640 pixel noise"


def test_detect_blobs_cost_is_bounded_on_dense_cell_noise():
    rng = np.random.default_rng(6)
    cells = rng.random((240, 320)) < 0.63
    frame = np.kron(cells, np.ones((2, 2)))
    start = time.perf_counter()
    dets = detect_blobs(frame, t=0.5)
    elapsed = time.perf_counter() - start
    want = flood_fill_components(dilate(erode(threshold(frame, 0.5))))
    assert len(dets) == len(want) > 100
    assert [d.pixel_count for d in dets] == [len(w) for w in want]
    assert elapsed < 3.0, f"detect_blobs took {elapsed:.2f} s on 480x640 dense noise"


def test_detect_blobs_is_subpixel_centroid_of_each_component():
    rng = np.random.default_rng(7)
    frames = [rng.random((rng.integers(1, 40), rng.integers(1, 40))) for _ in range(100)]
    frames += [m * rng.uniform(0.5, 1.0, m.shape) for m in structured_masks(rng)]
    for h in frames:
        for t in (0.3, 0.5):
            comps = connected_components(dilate(erode(threshold(h, t))))
            assert detect_blobs(h, t) == [subpixel_centroid(h, c) for c in comps]


def test_detect_blobs_min_pixels():
    h = np.zeros((12, 12))
    h[1:4, 1:4] = 0.5  # 9 pixels
    h[6:10, 6:10] = 0.5  # 16 pixels
    assert [d.pixel_count for d in detect_blobs(h, min_pixels=0)] == [9, 16]
    assert [d.pixel_count for d in detect_blobs(h, min_pixels=10)] == [16]
    for bad in (-3, 2.5, "2"):
        with pytest.raises(InvalidInputError, match="min_pixels"):
            detect_blobs(h, min_pixels=bad)


def test_detect_blobs_zero_mass_component_rejected():
    with pytest.raises(DegenerateComponentError, match="zero total mass"):
        detect_blobs(np.zeros((4, 4)), t=0.0)


def test_single_pixel_centroid():
    h = np.zeros((32, 32))
    h[20, 10] = 0.7
    det = subpixel_centroid(h, np.array([[20, 10]]))
    assert det.cx == 10.0 and det.cy == 20.0
    assert det.pixel_count == 1


def test_symmetric_plateau_centroid():
    h = np.zeros((11, 11))
    h[4:7, 4:7] = 0.5
    comp = connected_components(threshold(h, 0.2))[0]
    det = subpixel_centroid(h, comp)
    assert det.cx == 5.0 and det.cy == 5.0


def test_zero_mass_component_rejected():
    h = np.zeros((4, 4))
    with pytest.raises(DegenerateComponentError):
        subpixel_centroid(h, np.array([[1, 1]]))
    with pytest.raises(DegenerateComponentError):
        subpixel_centroid(h, np.empty((0, 2), int))


def test_centroid_checks_only_its_component():
    h = np.zeros((8, 8))
    h[2, 3] = h[2, 4] = 0.5
    h[6, 6] = math.nan  # outside the component: not read, not checked
    det = subpixel_centroid(h, np.array([[2, 3], [2, 4]]))
    assert det.cx == 3.5 and det.cy == 2.0
    h[2, 4] = math.nan
    with pytest.raises(InvalidInputError, match="finite"):
        subpixel_centroid(h, np.array([[2, 3], [2, 4]]))


def test_detect_blobs_rejects_non_finite_frame():
    h = np.zeros((8, 8))
    h[2:5, 2:5] = 0.9
    h[7, 0] = math.nan
    with pytest.raises(InvalidInputError, match="finite"):
        detect_blobs(h)


def gaussian_blob(shape, cx, cy, sigma):
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    return np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma**2))


def test_gaussian_blob_centroids_subpixel():
    rng = np.random.default_rng(3)
    for sigma in (1.5, 2.0, 3.0):
        for _ in range(40):
            cx = rng.uniform(8, 24)
            cy = rng.uniform(8, 24)
            h = gaussian_blob((32, 32), cx, cy, sigma)
            dets = detect_blobs(h, t=0.2)
            assert len(dets) == 1
            assert abs(dets[0].cx - cx) <= 0.25
            assert abs(dets[0].cy - cy) <= 0.25


def test_pipeline_translation_equivariance():
    rng = np.random.default_rng(4)
    base = np.zeros((40, 40))
    base[8:14, 9:16] = rng.random((6, 7)) * 0.5 + 0.5
    shifted = np.roll(np.roll(base, 5, axis=0), 7, axis=1)
    d0 = detect_blobs(base, t=0.3)
    d1 = detect_blobs(shifted, t=0.3)
    assert len(d0) == len(d1) == 1
    assert abs(d1[0].cx - d0[0].cx - 7) < 1e-9
    assert abs(d1[0].cy - d0[0].cy - 5) < 1e-9


def test_centroid_inside_bounding_box():
    rng = np.random.default_rng(5)
    for _ in range(50):
        h = rng.random((16, 16))
        mask = threshold(h, 0.6)
        for comp in connected_components(mask):
            det = subpixel_centroid(h, comp)
            assert comp[:, 1].min() - 1e-9 <= det.cx <= comp[:, 1].max() + 1e-9
            assert comp[:, 0].min() - 1e-9 <= det.cy <= comp[:, 0].max() + 1e-9



def blob_frame(rng, shape=(480, 640)):
    """A typical detector frame: 10-14 Gaussian blobs on a zero background."""
    frame = np.zeros(shape)
    for _ in range(int(rng.integers(10, 15))):
        cx, cy = rng.uniform(20, shape[1] - 20), rng.uniform(20, shape[0] - 20)
        frame += rng.uniform(0.6, 0.92) * gaussian_blob(shape, cx, cy, rng.uniform(2.5, 6.0))
    return frame


def frame_layouts(h):
    """h, and the same frame transposed, Fortran-ordered, strided, scaled to uint8, read back
    from an 8-bit PGM (where t = 0.2 is a pixel value, 51/255) and cut to 1xN and Nx1."""
    yield h
    yield h.T
    yield np.asfortranarray(h)
    yield h[::2, ::3]
    scaled = np.round(np.clip(h, 0.0, 1.0) * 255.0).astype(np.uint8)
    yield scaled
    yield scaled / 255.0
    yield h[h.shape[0] // 2 : h.shape[0] // 2 + 1]
    yield h[:, h.shape[1] // 2 : h.shape[1] // 2 + 1]


def test_detect_blobs_is_the_public_pipeline_bit_for_bit_at_frame_scale():
    rng = np.random.default_rng(19)
    frames = [blob_frame(rng) for _ in range(3)]
    frames.append(np.kron(rng.random((240, 320)) < 0.63, np.ones((2, 2))))  # dense 2x2-cell noise
    frames.append(serpentine(128).astype(float))
    for base in frames:
        for h in frame_layouts(base):
            for t in (0.2, 0.5):
                comps = connected_components(dilate(erode(threshold(h, t))))
                assert detect_blobs(h, t) == [subpixel_centroid(h, c) for c in comps]


def test_detect_blobs_peak_memory_is_at_most_four_bytes_per_pixel():
    h = blob_frame(np.random.default_rng(21))
    detect_blobs(h, 0.2)
    tracemalloc.start()
    try:
        detect_blobs(h, 0.2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 4 * h.size, f"detect_blobs peaked at {peak} bytes on a {h.shape} frame"

def default_intrinsics():
    return CameraIntrinsics(focal=500.0, cx=320.0, cy=240.0)


def test_optical_axis_projects_to_principal_point():
    pose = CameraPose(intrinsics=default_intrinsics())
    px = project([0.0, 0.0, 2.0], pose)
    assert np.allclose(px, [320.0, 240.0])


def test_unit_offset_projects_one_focal_length():
    pose = CameraPose(intrinsics=default_intrinsics())
    px = project([1.0, 0.0, 1.0], pose)
    assert np.allclose(px, [320.0 + 500.0, 240.0])


def test_projection_matches_homogeneous_matrix_oracle():
    rng = np.random.default_rng(6)
    intr = default_intrinsics()
    for _ in range(100):
        pose = CameraPose(
            position=rng.normal(0, 0.5, 3),
            orientation=Quaternion.from_rotvec(rng.normal(0, 0.3, 3)),
            intrinsics=intr,
        )
        point = rng.normal(0, 1, 3) + [0, 0, 5]
        k = np.array([[intr.focal, 0, intr.cx], [0, intr.focal, intr.cy], [0, 0, 1]])
        rt = np.hstack([pose.orientation.to_matrix().T,
                        (-pose.orientation.to_matrix().T @ pose.position)[:, None]])
        hom = k @ rt @ np.append(point, 1.0)
        assert np.allclose(project(point, pose), hom[:2] / hom[2], atol=1e-9)


def test_behind_camera_rejected():
    pose = CameraPose(intrinsics=default_intrinsics())
    with pytest.raises(BehindCameraError):
        project([0.0, 0.0, -1.0], pose)


def make_observations(pose, rng, n=12):
    world = rng.uniform(-1, 1, (n, 3))
    world[:, 2] += 4.0
    return [(w, project(w, pose)) for w in world]


def test_calibration_recovers_true_pose():
    rng = np.random.default_rng(7)
    intr = default_intrinsics()
    true = CameraPose(
        position=np.array([0.1, -0.2, 0.3]),
        orientation=Quaternion.from_rotvec([0.1, 0.2, -0.1]),
        intrinsics=intr,
    )
    obs = make_observations(true, rng)
    guess = CameraPose(
        position=true.position + [0.05, -0.05, 0.05],
        orientation=true.orientation * Quaternion.from_rotvec([0.05, -0.03, 0.04]),
        intrinsics=intr,
    )
    result = calibrate_extrinsics(obs, intr, guess)
    assert np.linalg.norm(result.pose.position - true.position) < 1e-3
    q_err = result.pose.orientation.conjugate() * true.orientation
    assert 2 * math.acos(min(1.0, abs(q_err.w))) < 1e-3


def test_calibration_penalizes_points_behind_the_guess():
    rng = np.random.default_rng(0)
    intr = default_intrinsics()
    true = CameraPose(np.array([0.05, -0.1, 0.1]),
                      Quaternion.from_rotvec([0.05, -0.05, 0.02]), intr)
    obs = make_observations(true, rng)
    near = true.orientation.rotate([0.01, 0.0, 0.04]) + true.position
    obs.append((near, project(near, true)))
    # 0.1 m along the optical axis puts the near point behind the camera
    guess = CameraPose(true.position + true.orientation.rotate([0.0, 0.0, 0.1]),
                       true.orientation, intr)
    with pytest.raises(BehindCameraError):
        project(near, guess)
    # no simplex iterations: the best initial vertex still carries one penalty
    start = calibrate_extrinsics(obs, intr, guess, SimplexConfig(max_iter=0))
    assert 1e6 <= start.rms_residual**2 * len(obs) < 2e6
    # the penalty drives the simplex back until every point is in front
    result = calibrate_extrinsics(obs, intr, guess)
    assert result.rms_residual < 1e-6
    assert np.linalg.norm(result.pose.position - true.position) < 1e-6


def loop_objective(observations, intr, guess, params):
    """Mean squared reprojection error summed one observation at a time."""
    position = guess.position + params[:3]
    rot_t = (guess.orientation * Quaternion.from_rotvec(params[3:])).to_matrix().T
    err = 0.0
    for world, pixel in observations:
        p_cam = rot_t @ (np.asarray(world, dtype=float) - position)
        if p_cam[2] <= 1e-6:
            err += 1e6 + (1.0 - p_cam[2]) ** 2
            continue
        u = intr.focal * p_cam[0] / p_cam[2] + intr.cx
        v = intr.focal * p_cam[1] / p_cam[2] + intr.cy
        err += (u - pixel[0]) ** 2 + (v - pixel[1]) ** 2
    return err / len(observations)


def captured_objective(monkeypatch, obs, intr, guess):
    """The objective calibrate_extrinsics hands to the simplex."""
    objectives = []

    def capture(f, x0, cfg=None):
        objectives.append(f)
        return nelder_mead(f, x0, SimplexConfig(max_iter=0))

    monkeypatch.setattr(heatmap, "nelder_mead", capture)
    calibrate_extrinsics(obs, intr, guess)
    monkeypatch.undo()
    return objectives[0]


def test_calibration_objective_matches_per_point_loop(monkeypatch):
    rng = np.random.default_rng(3)
    intr = default_intrinsics()
    true = CameraPose(np.array([0.1, 0.0, -0.2]), Quaternion.from_rotvec([0.1, -0.2, 0.05]), intr)
    obs = [(w, px + rng.normal(0, 0.5, 2)) for w, px in make_observations(true, rng, 25)]
    objective = captured_objective(monkeypatch, obs, intr, true)
    behind = 0
    for scale in (0.0, 0.01, 0.3, 3.0):
        for _ in range(20):
            params = rng.normal(0.0, scale, 6)
            want = loop_objective(obs, intr, true, params)
            assert objective(params) == want  # bit for bit
            behind += want >= 1e6 / len(obs)
    assert behind > 0  # the penalty branch was compared too


def test_calibration_from_true_pose_has_zero_residual():
    rng = np.random.default_rng(8)
    intr = default_intrinsics()
    true = CameraPose(np.array([0.0, 0.1, -0.1]),
                      Quaternion.from_rotvec([0.0, 0.1, 0.0]), intr)
    obs = make_observations(true, rng)
    result = calibrate_extrinsics(obs, intr, true)
    assert result.rms_residual < 1e-6


def test_calibration_noise_floor():
    rng = np.random.default_rng(9)
    intr = default_intrinsics()
    true = CameraPose(np.array([0.05, 0.0, 0.2]),
                      Quaternion.from_rotvec([0.05, -0.1, 0.02]), intr)
    obs = [(w, px + rng.normal(0, 0.5, 2)) for w, px in make_observations(true, rng, 30)]
    result = calibrate_extrinsics(obs, intr, true)
    assert 0.1 < result.rms_residual < 2.5  # same order as the injected 0.5 px


def test_calibration_needs_enough_observations():
    intr = default_intrinsics()
    with pytest.raises(InvalidInputError):
        calibrate_extrinsics([([0, 0, 2], [320, 240])] * 3, intr, CameraPose(intrinsics=intr))


def test_calibration_refuses_points_that_cannot_fix_a_pose():
    intr = default_intrinsics()
    guess = CameraPose(intrinsics=intr)
    obs = make_observations(guess, np.random.default_rng(4))
    # three distinct points seen twice each, and a line of points offset far
    # enough that rounding moves them off it
    twice = obs[:3] * 2
    line = [(np.array([1e6, 2e6, 4.0]) + t * np.array([0.3, -0.2, 1.0]), px)
            for t, (_, px) in zip(np.linspace(0.0, 1.0, 8), obs)]
    far = [(w + [0.0, 0.0, 2e9], px) for w, px in obs]
    for bad, cause in ((twice, "got 3"), (line, "collinear"), (far, r"within 1e\+09 m")):
        with pytest.raises(DegenerateDataError, match=cause):
            calibrate_extrinsics(bad, intr, guess)


def test_calibration_objective_overflow_is_a_named_error_not_a_warning():
    # at this focal length every squared pixel error overflows; the objective
    # stays quiet and calibration names the error at the guess and the focal length
    obs = make_observations(CameraPose(intrinsics=default_intrinsics()), np.random.default_rng(4))
    intr = CameraIntrinsics(focal=1e160, cx=320.0, cy=240.0)
    cause = r"reprojection error at the guess is inf px\^2 with focal length 1e\+160 px"
    with pytest.raises(InvalidInputError, match=cause):
        calibrate_extrinsics(obs, intr, CameraPose(intrinsics=intr))


def test_pgm_round_trip(tmp_path):
    rng = np.random.default_rng(10)
    h = rng.random((17, 23))
    path = tmp_path / "map.pgm"
    write_pgm(h, path)
    back = read_pgm(path)
    assert back.shape == h.shape
    assert np.max(np.abs(back - h)) <= 0.5 / 255 + 1e-12


def test_pgm_rejects_wrong_magic(tmp_path):
    path = tmp_path / "bad.pgm"
    path.write_bytes(b"P2\n2 2\n255\n0 0 0 0\n")
    with pytest.raises(InvalidInputError):
        read_pgm(path)


@pytest.mark.parametrize(
    "data",
    [
        b"P5\n4 3\n255\n" + bytes(11),  # one pixel byte short
        b"P5\n4 3\n255",  # header only
        b"P5\n0 3\n255\n",
        b"P5\n4 -3\n255\n" + bytes(12),
        b"P5\n4.5 3\n255\n" + bytes(12),
        b"P5\n4 3\nmax\n" + bytes(12),
        b"P5\n2 1\n7\n\x00\x08",  # a pixel above maxval
    ],
)
def test_pgm_rejects_bad_header_or_payload(tmp_path, data):
    path = tmp_path / "bad.pgm"
    path.write_bytes(data)
    with pytest.raises(InvalidInputError):
        read_pgm(path)


@pytest.mark.parametrize(
    "data",
    [b"P5" + b" " * 100_000, b"P5\n4 3" + b"\n" * 100_000],
    ids=["spaces-after-magic", "newlines-after-height"],
)
def test_pgm_header_without_its_next_token_fails_fast(tmp_path, data):
    path = tmp_path / "cut.pgm"
    path.write_bytes(data)
    start = time.perf_counter()
    with pytest.raises(InvalidInputError, match="malformed PGM header"):
        read_pgm(path)
    assert time.perf_counter() - start < 1.0


def test_heatmap_csv_reader(tmp_path):
    path = tmp_path / "h.csv"
    path.write_text("0.0,0.5\n1.0,0.25\n")
    h = read_heatmap_csv(path)
    assert h.shape == (2, 2)
    assert h[1, 0] == 1.0


@pytest.mark.parametrize("text", ["", "\n\n\n"])
def test_heatmap_csv_without_values_names_the_file(tmp_path, text):
    path = tmp_path / "empty.csv"
    path.write_text(text)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(InvalidInputError, match=f"heatmap CSV {path} holds no values"):
            read_heatmap_csv(path)


def test_detections_csv(tmp_path):
    h = gaussian_blob((32, 32), 14.3, 9.7, 2.0)
    dets = {0: detect_blobs(h, 0.2), 1: []}
    path = tmp_path / "det.csv"
    detections_to_csv(dets, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "channel,cx,cy,mass,pixels"
    assert len(lines) == 2 and lines[1].startswith("0,")


@pytest.mark.parametrize("seed", range(6))
def test_calibration_stuck_with_a_point_behind_the_camera_is_not_converged(seed):
    # one observation 4 cm in front of the true camera; a guess 5-20 cm forward
    # puts it behind, and the simplex settles with its 1e6 penalty still paid
    rng = np.random.default_rng(seed)
    intr = default_intrinsics()
    true = CameraPose(rng.uniform(-0.2, 0.2, 3),
                      Quaternion.from_rotvec(rng.uniform(-0.1, 0.1, 3)), intr)
    obs = make_observations(true, rng)
    near = true.orientation.rotate([0.01, 0.0, 0.04]) + true.position
    obs.append((near, project(near, true)))
    forward = true.orientation.rotate([0.0, 0.0, rng.uniform(0.05, 0.2)])
    result = calibrate_extrinsics(obs, intr, CameraPose(true.position + forward, true.orientation,
                                                        intr))
    assert result.rms_residual == pytest.approx(math.sqrt(1e6 / len(obs)), rel=1e-4)
    depth = result.pose.orientation.rotate_inverse(near - result.pose.position)[2]
    assert depth <= 1e-6  # at or below the objective's cut: treated as behind the camera
    assert not result.converged


def oracle_objective(worlds, pixels, intr, guess, params):
    """The calibration objective as first written: one pinhole axis at a time."""
    rotation = guess.orientation * Quaternion.from_rotvec(params[3:])
    p_cam = rotation.rotate_inverse(worlds - (guess.position + params[:3]))
    depth = p_cam[:, 2]
    with np.errstate(all="ignore"):
        u = intr.focal * p_cam[:, 0] / depth + intr.cx
        v = intr.focal * p_cam[:, 1] / depth + intr.cy
        err = (u - pixels[:, 0]) ** 2 + (v - pixels[:, 1]) ** 2
        behind = depth <= 1e-6
        if behind.any():
            err[behind] = 1e6 + (1.0 - depth[behind]) ** 2
    return np.add.accumulate(err)[-1] / len(pixels)


def oracle_calibration(observations, intr, guess):
    """calibrate_extrinsics from the oracle objective and the oracle simplex."""
    worlds = np.array([w for w, _ in observations], dtype=float)
    pixels = np.array([px for _, px in observations], dtype=float)
    cfg = SimplexConfig(max_iter=4000, x_tol=1e-12, f_tol=1e-16)

    def f(params):
        return oracle_objective(worlds, pixels, intr, guess, params)

    first = oracle_nelder_mead(f, np.zeros(6), cfg)
    result = oracle_nelder_mead(f, first.x, cfg)
    if result.fun < first.fun:
        result.iterations += first.iterations
    else:
        result = first
    position = guess.position + result.x[:3]
    rotation = guess.orientation * Quaternion.from_rotvec(result.x[3:])
    in_front = bool(np.all(((worlds - position) @ rotation.to_matrix())[:, 2] > 1e-6))
    converged = result.converged and in_front and math.isfinite(result.fun)
    return position, rotation, math.sqrt(result.fun), result.iterations, converged


def test_calibration_objective_is_the_oracle_bit_for_bit(monkeypatch):
    rng = np.random.default_rng(23)
    intr = default_intrinsics()
    true = CameraPose(np.array([0.1, -0.1, 0.2]), Quaternion.from_rotvec([0.05, 0.1, -0.05]), intr)
    obs = [(w, px + rng.normal(0, 0.5, 2)) for w, px in make_observations(true, rng, 20)]
    # points in the guess's image plane sit at depth exactly 0 at params 0: 0/0 and x/0
    flat = obs + [(np.zeros(3), np.array([320.0, 240.0])),
                  (np.array([1.0, -0.5, 0.0]), np.array([400.0, 200.0]))]
    # the squared errors at this focal length overflow once the simplex turns the camera
    huge = CameraIntrinsics(1e153, 320.0, 240.0)
    cases = [(obs, intr, true), (flat, intr, CameraPose(intrinsics=intr)),
             (obs, huge, CameraPose(true.position, true.orientation, huge))]
    seen = {"behind": 0, "depth 0": 0, "inf": 0}
    for observations, k, guess in cases:
        worlds = np.array([w for w, _ in observations])
        pixels = np.array([px for _, px in observations])
        objective = captured_objective(monkeypatch, observations, k, guess)
        rows = [np.zeros(6)] + [rng.normal(0.0, s, 6) for s in (0.0, 0.01, 0.3, 3.0) for _ in range(15)]
        for params in rows:
            with np.errstate(all="ignore"):  # the scope calibrate_extrinsics runs it in
                want = oracle_objective(worlds, pixels, k, guess, params)
                got = objective(params)
            assert np.float64(got).tobytes() == np.float64(want).tobytes(), params
            seen["behind"] += want >= 1e6 / len(observations)
            seen["inf"] += math.isinf(want)
        seen["depth 0"] += observations is flat
    assert all(seen.values()), seen  # every branch was compared


def test_calibration_is_the_oracle_bit_for_bit():
    # perfbench's calibration sets: 30 points 2-6 m in front of a camera near the origin
    rng = np.random.default_rng(2023)
    intr = CameraIntrinsics(500.0, 320.0, 240.0)
    for k in range(8):
        true = CameraPose(rng.uniform(-0.2, 0.2, 3),
                          Quaternion.from_rotvec(rng.uniform(-0.1, 0.1, 3)), intr)
        z = rng.uniform(2.0, 6.0, 30)
        cam = np.column_stack([rng.uniform(-0.5, 0.5, 30) * z, rng.uniform(-0.4, 0.4, 30) * z, z])
        obs = [(true.orientation.rotate(c) + true.position, None) for c in cam]
        obs = [(w, project(w, true) + rng.normal(0.0, 0.3, 2)) for w, _ in obs]
        guess = CameraPose(intrinsics=intr) if k % 2 else CameraPose(
            rng.uniform(-0.3, 0.3, 3), Quaternion.from_rotvec(rng.uniform(-0.2, 0.2, 3)), intr)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            result = calibrate_extrinsics(obs, intr, guess)
        position, rotation, rms, iterations, converged = oracle_calibration(obs, intr, guess)
        q = result.pose.orientation
        assert result.pose.position.tobytes() == position.tobytes()
        assert (q.w, q.x, q.y, q.z) == (rotation.w, rotation.x, rotation.y, rotation.z)
        assert (result.rms_residual, result.iterations, result.converged) == (
            rms, iterations, converged)
