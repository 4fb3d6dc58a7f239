"""The numba path and the pure-Python fallback must agree bit-for-bit."""

import numpy as np
import pytest

from gaitlab import _kernels
from gaitlab._accel import NUMBA_ENABLED
from gaitlab.cpg import CpgParams
from gaitlab.feedback import FeedbackGains, FilterParams
from gaitlab.heatmap import _label_unionfind, connected_components
from gaitlab.plant import DT, PlantParams, default_effectiveness
from gaitlab.pose import LegGeometry

needs_numba = pytest.mark.skipif(not NUMBA_ENABLED, reason="numba disabled or missing")


def closed_loop_args(n=600, seed=4):
    rng = np.random.default_rng(seed)
    cmds = np.tile([0.6, 0.1, -0.2], (n, 1))
    noise = rng.normal(0, 0.06, (n, 2))
    dist_steps = np.array([250], dtype=np.int64)
    dist_kicks = np.array([[0.6, -0.2]])
    geom = LegGeometry()
    floats = _kernels.float_tuple
    return (
        cmds,
        noise,
        dist_steps,
        dist_kicks,
        floats(CpgParams().to_array()),
        floats(FeedbackGains().to_array()),
        floats(FilterParams().to_array()),
        floats(PlantParams(seed=seed).to_array()),
        floats(default_effectiveness()),
        (geom.thigh, geom.shank, 0.1),
        DT,
        0.0,
        np.zeros(4),
    )


@needs_numba
def test_closed_loop_kernel_matches_python_bitwise():
    args = closed_loop_args()
    compiled = _kernels.run_closed_loop(*args)
    interpreted = _kernels.run_closed_loop.py_func(*args)
    for got, want in zip(compiled, interpreted):
        if isinstance(got, np.ndarray):
            assert np.array_equal(got, want)
        else:
            assert got == want


@needs_numba
def test_scalar_kernels_match_python_bitwise():
    rng = np.random.default_rng(1)
    for _ in range(200):
        a = rng.uniform(-20, 20)
        assert _kernels.wrap_pi(a) == _kernels.wrap_pi.py_func(a)
    for _ in range(100):
        x, y = rng.uniform(-0.2, 0.2, 2)
        z = -rng.uniform(0.2, 0.55)
        got = _kernels.foot_ik_core(x, y, z, 0.3, 0.3)
        want = _kernels.foot_ik_core.py_func(x, y, z, 0.3, 0.3)
        assert got == want


@needs_numba
def test_label_kernels_agree():
    rng = np.random.default_rng(2)
    for _ in range(200):
        shape = (rng.integers(1, 48), rng.integers(1, 48))
        mask = (rng.random(shape) < rng.uniform(0.1, 0.8)).astype(np.uint8)
        compiled = _label_unionfind(mask)
        interpreted = _label_unionfind.py_func(mask)
        assert compiled.dtype == interpreted.dtype
        assert np.array_equal(compiled, interpreted)


def test_connected_components_same_under_either_path():
    # components come out in scan order of their first pixel
    rng = np.random.default_rng(3)
    mask = (rng.random((30, 30)) < 0.4).astype(np.uint8)
    comps = connected_components(mask)
    flat_order = [c[0, 0] * 30 + c[0, 1] for c in comps]
    assert flat_order == sorted(flat_order)
