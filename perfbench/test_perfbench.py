"""Tests of the benchmark itself: tiny runs emit every metric, planted faults fail.

    python -m pytest perfbench
"""

import json
import math
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.import_package()

import pace  # noqa: E402
import tracer  # noqa: E402
import workloads as W  # noqa: E402
from gaitlab import _kernels, bayesopt, heatmap  # noqa: E402
from gaitlab.bayesopt import AugmentedPoint, CompositeKernel  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def run_tiny(capsys, workload, trace):
    code = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.2",
                     "--trace", str(trace), "--size", "tiny"])
    assert code == 0
    return json.loads(capsys.readouterr().out.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_run_emits_every_metric_with_its_unit(capsys, workload, trace):
    result = run_tiny(capsys, workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer" if trace else "end_to_end"]
    assert {m["name"]: m["unit"] for m in expected} == {
        name: m["unit"] for name, m in result["metrics"].items()
    }
    for name, m in result["metrics"].items():
        assert isinstance(m["value"], (int, float)) and math.isfinite(m["value"]), name
        if not trace:
            assert m["value"] > 0, name


def test_tracer_restores_every_patched_name():
    names = ("cpg_pose", "wrap_pi", "foot_ik_core", "run_closed_loop")
    before = [getattr(_kernels, n) for n in names]
    select, detect, chol = bayesopt.select_next, heatmap.detect_blobs, np.linalg.cholesky
    tr = tracer.Tracer()
    tr.install()
    assert bayesopt.select_next is not select
    tr.uninstall()
    assert [getattr(_kernels, n) for n in names] == before
    assert (bayesopt.select_next, heatmap.detect_blobs, np.linalg.cholesky) == (select, detect, chol)


def test_self_time_excludes_traced_children():
    tr = tracer.Tracer()
    inner = tr.span("inner", lambda: sum(range(20000)))
    outer = tr.span("outer", lambda: inner() + inner())
    outer()
    calls, total, self_time = tr.stats["outer"]
    assert calls == 1 and tr.stats["inner"][0] == 2
    assert math.isclose(self_time, total - tr.edges[("outer", "inner")][1])
    assert 0 <= self_time < total


def test_pace_scales_by_the_probes_near_a_call():
    p = pace.Pace()
    nominal = pace.NOMINAL_S["py"]
    for k, t in enumerate((0.0, 0.05, 0.10, 5.0)):
        p.times.append(t)
        p.probes["py"].append(nominal * (2.0 if k < 3 else 1.0))
    assert math.isclose(p.speed("py", 0.04, 0.06), 0.5)
    assert math.isclose(p.speed("py", 5.0, 5.01), 1.0)
    assert p.speed("py", 2.0, 2.1) == 1.0  # no probe in the window: unscaled


def test_probe_time_inside_a_call_is_left_out():
    p = pace.Pace()
    rec = W.Recorder(p)

    def call_with_probe():
        p.probe()
        return 1

    rec.call("main", call_with_probe)
    (t0, t1), = rec.spans["main"]
    assert 0 < rec.samples["main"][0] < (t1 - t0) - 0.9 * p.spent


def test_shifted_centroid_fails():
    wl = W.Perception(3, "tiny")
    frame, truth = wl.frames[0]
    dets = heatmap.detect_blobs(frame, W.THRESHOLD)
    rec = W.Recorder()
    W.Perception.check_frame(rec, frame, dets, truth)
    assert rec.failed == 0
    dets[0].cx += 1.0
    W.Perception.check_frame(rec, frame, dets, truth)
    assert rec.failed == 1


def test_missing_component_fails_the_oracle_check():
    wl = W.Perception(3, "tiny")
    mask = wl.noise[0]
    dets = heatmap.detect_blobs(mask, W.THRESHOLD)
    rec = W.Recorder()
    W.check_against_oracle(rec, mask, dets, "noise")
    assert rec.failed == 0
    W.check_against_oracle(rec, mask, dets[1:], "noise")
    assert rec.failed == 1


def test_truncated_history_fails():
    wl = W.Tune(3, "tiny")
    result = bayesopt.optimize(wl.problem, wl.budget, seed=5)
    rec = W.Recorder()
    W.check_history(rec, result, wl.budget, wl.problem.bounds, "optimize")
    assert rec.failed == 0
    result.history = result.history[:-1]
    W.check_history(rec, result, wl.budget, wl.problem.bounds, "optimize")
    assert rec.failed == 1


def test_tune_repeat_detects_a_changed_history():
    wl = W.Tune(3, "tiny")
    rec = W.Recorder()
    wl.cycle(0, rec)
    wl.finish(rec)
    assert rec.failed == 0
    seed, history = wl.first
    history[0].cost = (history[0].cost[0] + 1e-9, history[0].cost[1])
    wl.finish(rec)
    assert rec.failed == 1


def test_real_proposal_with_spent_budget_fails():
    bounds = np.array([[0.0, 6.0], [0.0, 4.0]])
    rec = W.Recorder()
    cases = [([1.0, 1.0], "real", False, 0), ([1.0, 1.0], "sim", True, 0),
             ([1.0, 1.0], "real", True, 1), ([7.0, 1.0], "sim", False, 1)]
    for x, delta, exhausted, fails in cases:
        rec.untimed()
        before = rec.failed
        W.Propose.check_proposal(rec, AugmentedPoint(x, delta), bounds, exhausted)
        assert rec.failed - before == fails, (x, delta, exhausted)


def test_spent_budget_histories_get_sim_proposals():
    wl = W.Propose(3, "tiny")
    for records, budget, exhausted in wl.histories:
        point = bayesopt.select_next(records, CompositeKernel(), wl.bounds, budget, seed=1)
        assert point.delta == "sim" or not exhausted


def test_calibration_off_pose_fails():
    rng = np.random.default_rng(0)
    intr, true, obs = W.make_calibration(rng)
    result = heatmap.calibrate_extrinsics(obs, intr, heatmap.CameraPose(intrinsics=intr))
    rec = W.Recorder()
    W.Propose.check_calibration(rec, result, true)
    assert rec.failed == 0
    result.pose.position = result.pose.position + [0.05, 0.0, 0.0]
    W.Propose.check_calibration(rec, result, true)
    assert rec.failed == 1


def test_non_finite_trace_and_changed_repeat_fail(tmp_path):
    wl = W.Sweep(3, "tiny", str(tmp_path))
    rec = W.Recorder()
    wl.cycle(0, rec)
    wl.finish(rec)
    assert rec.failed == 0
    spec, data = wl.first_trace
    wl.first_trace = (spec, data.replace(b"\n0,", b"\n1e-300,", 1))
    wl.finish(rec)
    assert rec.failed == 1
    out = tmp_path / "bad"
    out.mkdir()
    (out / "trace.csv").write_text("t,mu,pitch,roll,pitch_rate,roll_rate,d_theta,d_phi,fall\n"
                                   "0,0,nan,0,0,0,0,0,0\n")
    rec.untimed()
    wl.check_run(rec, spec, wl.argv(spec, str(out)), (0, ""), str(out))
    assert rec.failed == 2


def test_without_sources_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "tune", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert out.returncode != 0
    assert '"metrics"' not in out.stdout
