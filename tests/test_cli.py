import csv
import hashlib
import json
import math
import re
import time
import warnings

import numpy as np
import pytest

from gaitlab import _kernels, config
from gaitlab.cli import main
from gaitlab.heatmap import write_pgm
from gaitlab.plant import run_sequence, standard_test_sequence

KT, OFFSET = 3.8511, -0.0821


def run_cli(*args):
    return main([str(a) for a in args])


def test_gear_prints_pitch_diameter(capsys):
    assert run_cli("gear", "--teeth", 30, "--module", 1.5, "--helix-deg", 41.4096) == 0
    out = capsys.readouterr().out
    value = float(out.split("=")[1].split()[0])
    assert abs(value - 60.0) < 1e-3


def test_gear_rejects_bad_spec(capsys):
    assert run_cli("gear", "--teeth", 2, "--module", 1.5) == 1
    assert "error" in capsys.readouterr().err


@pytest.mark.parametrize("module", ["nan", "inf"])
def test_gear_rejects_non_finite_module(capsys, module):
    assert run_cli("gear", "--teeth", 30, "--module", module) == 1
    assert "module must be finite" in capsys.readouterr().err


def test_calib_torque_from_generated_csv(tmp_path, capsys):
    rng = np.random.default_rng(0)
    currents = np.linspace(0.1, 3.0, 60)
    torques = KT * currents + OFFSET
    path = tmp_path / "torque.csv"
    lines = ["current_A,torque_Nm"] + [f"{i},{t}" for i, t in zip(currents, torques)]
    path.write_text("\n".join(lines))
    assert run_cli("calib", "torque", "--input", path) == 0
    out = capsys.readouterr().out
    kt = float(out.splitlines()[0].split("=")[1].split()[0])
    off = float(out.splitlines()[1].split("=")[1].split()[0])
    assert abs(kt - KT) < 1e-6
    assert abs(off - OFFSET) < 1e-6


def test_calib_torque_names_bad_line(tmp_path, capsys):
    path = tmp_path / "torque.csv"
    path.write_text("current_A,torque_Nm\n0.1,0.3\nbogus,line\n")
    assert run_cli("calib", "torque", "--input", path) == 1
    assert "line 3" in capsys.readouterr().err


def test_gait_run_writes_outputs(tmp_path, capsys):
    code = run_cli(
        "gait", "run", "--seq", "standard", "--seed", 7, "--out", tmp_path,
        "--disturb", "9.51@5s:front",
    )
    assert code == 0
    assert "retraction saturations: 0 steps" in capsys.readouterr().out.splitlines()
    trace = (tmp_path / "trace.csv").read_text().splitlines()
    assert trace[0] == "t,mu,pitch,roll,pitch_rate,roll_rate,d_theta,d_phi,fall"
    assert len(trace) == 2001
    phase = (tmp_path / "phase.csv").read_text().splitlines()
    assert phase[0] == "fused_pitch,fused_pitch_rate"
    assert len(phase) == 2001


def test_gait_run_reports_retraction_saturations(tmp_path, capsys):
    # a lift pulse this large drives the swing-leg retraction past 1
    cfg = tmp_path / "lift.cfg"
    cfg.write_text("cpg.lift_amplitude = 1.5\n")
    code = run_cli("gait", "run", "--gains", cfg, "--seq", "in-place", "--out", tmp_path)
    lines = capsys.readouterr().out.splitlines()
    assert code == 0
    counts = [line for line in lines if line.startswith("retraction saturations: ")]
    assert len(counts) == 1
    n = int(counts[0].split()[2])
    assert counts[0] == f"retraction saturations: {n} steps"
    assert 0 < n < 2000


def test_gait_run_missing_config_is_usage_error(tmp_path, capsys):
    assert run_cli("gait", "run", "--gains", tmp_path / "nope.cfg") == 1
    assert "error" in capsys.readouterr().err


def test_gait_run_bad_disturb_spec(capsys):
    assert run_cli("gait", "run", "--disturb", "hard@now") == 1
    assert "disturb" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["1.2.3@5s:front", "e@5s:front", "5@--s:back"])
def test_gait_run_malformed_disturb_number_is_a_usage_error(tmp_path, capsys, spec):
    assert run_cli("gait", "run", "--disturb", spec, "--out", tmp_path) == 1
    assert capsys.readouterr().err.startswith(f"error: bad --disturb {spec!r}")
    assert not (tmp_path / "trace.csv").exists()


@pytest.mark.parametrize(
    "spec, field",
    [("1e999@5s:front", "impulse"), ("5@1e999s:front", "time"), ("5@-3s:front", "time")],
)
def test_gait_run_rejects_bad_push(tmp_path, capsys, spec, field):
    assert run_cli("gait", "run", "--seq", "forward", "--disturb", spec, "--out", tmp_path) == 1
    assert f"disturbance {field} must be finite" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_gait_run_push_past_any_int64_step_never_lands(tmp_path, capsys):
    # 1e300 s / DT does not fit an int64; like any push after the run, it is dropped
    late, without = tmp_path / "late", tmp_path / "without"
    assert run_cli("gait", "run", "--seq", "forward", "--disturb", "1@1e300s:front",
                   "--out", late) == 0
    assert "Traceback" not in capsys.readouterr().err
    assert run_cli("gait", "run", "--seq", "forward", "--out", without) == 0
    for name in ("trace.csv", "phase.csv"):
        assert (late / name).read_bytes() == (without / name).read_bytes()


def test_gait_run_non_finite_state_is_an_error(tmp_path, capsys):
    # passes parameter validation, but wn^2 overflows and the state turns NaN
    cfg = tmp_path / "stiff.cfg"
    cfg.write_text("plant.natural_freq_pitch = 1e200\n")
    assert run_cli("gait", "run", "--seq", "forward", "--gains", cfg, "--out", tmp_path) == 1
    assert "not finite from t=0.01 s" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_gait_run_falls_with_exit_2(tmp_path, capsys):
    code = run_cli(
        "gait", "run", "--seq", "in-place", "--out", tmp_path,
        "--disturb", "80@2s:back",
    )
    # default gains catch a lot; 80 kg*m/s does not leave doubt
    out = capsys.readouterr().out
    assert code == 2
    assert "FELL" in out


# sha256 of trace.csv, phase.csv and stdout, written into "out" under the working directory
GAIT_RUN_GOLDEN = [
    (["--seed", 0, "--disturb", "9.51@5s:front"], 0,
     "9d79c33f9b6ce4310b9641662d8a6e1324d4628201352d06ed4ea3a02d889c21",
     "c5f9f087eb4eebe132a0b77d32fe0f3b5a3b17ad709a6b596f457f4862cfb5aa",
     "69d247af5fc3ee6e08b135fa921fa2cfc0de526fc558d4392b9724d26c5359ca"),
    (["--seed", 3, "--disturb", "66@4s:left"], 2,  # 414 samples, falls at 4.13 s
     "ae46e6027927ba5320876a2681f4fa0000b4da5e2311629c4115cda13ea47ad8",
     "af72e544cacec8accdae65efa3058308df8439a2b4232ac96ab4e53fa86dd15c",
     "05b2358483c095d2e74443d66d7152b45fb001ac04476ef003aee570f9555507"),
]


@pytest.mark.parametrize("flags, exit_code, trace_sha, phase_sha, stdout_sha", GAIT_RUN_GOLDEN)
def test_gait_run_writes_the_golden_bytes(tmp_path, monkeypatch, capsys, flags, exit_code,
                                          trace_sha, phase_sha, stdout_sha):
    monkeypatch.chdir(tmp_path)
    assert run_cli("gait", "run", "--seq", "standard", *flags, "--out", "out") == exit_code
    out = capsys.readouterr().out
    assert hashlib.sha256((tmp_path / "out" / "trace.csv").read_bytes()).hexdigest() == trace_sha
    assert hashlib.sha256((tmp_path / "out" / "phase.csv").read_bytes()).hexdigest() == phase_sha
    assert hashlib.sha256(out.encode()).hexdigest() == stdout_sha


@pytest.mark.parametrize("key", ["gains.com_shift_x.ki", "gains.com_shift_y.ki"])
def test_gait_run_overflowing_com_shift_warns_nothing(tmp_path, capsys, key):
    # the CoM shift overflows the knee's cosine argument in the pose readout
    cfg_path = tmp_path / "huge.cfg"
    cfg_path.write_text(f"{key} = 1e300\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("gait", "run", "--gains", cfg_path, "--seq", "standard", "--out", tmp_path)
        cfg = config.load_config(cfg_path)
        trace = run_sequence(config.gains_from_config(cfg), config.cpg_from_config(cfg),
                             standard_test_sequence(), config.plant_from_config(cfg, seed=0),
                             filter_params=config.filter_from_config(cfg))
        assert trace.pose.shape == (len(trace), _kernels.POSE_SIZE)
    assert code == 2
    cpg, geom = trace.pose_params
    window, ref = _kernels.swing_window(cpg), _kernels.com_shift_reference((*geom, cpg[0]))
    want = sum(
        _kernels.apply_actions_flat(_kernels.cpg_pose(m, *cmd, cpg, window), tuple(act),
                                    -1.0 if m > 0.0 else 1.0, ref)[1]
        for m, cmd, act in zip(trace.mu.tolist(), trace.cmds.tolist(), trace.activations.tolist())
    )
    assert f"retraction saturations: {want} steps" in capsys.readouterr().out.splitlines()


def test_gait_run_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("gains.arm_angle_y.kq = 1.0\n")
    assert run_cli("gait", "run", "--gains", cfg) == 1
    assert "arm_angle_y.kq" in capsys.readouterr().err


def test_gait_run_duplicate_config_key_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "twice.cfg"
    cfg.write_text("gains.arm_angle_y.kp = 1\ngains.arm_angle_y.kp = 2\n")
    assert run_cli("gait", "run", "--gains", cfg, "--out", tmp_path) == 1
    err = capsys.readouterr().err
    assert "line 2: key 'gains.arm_angle_y.kp' is already set on line 1" in err
    assert "Traceback" not in err
    assert not (tmp_path / "trace.csv").exists()


def test_gait_run_nan_gain_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "nan.cfg"
    cfg.write_text("gains.arm_angle_y.kp = nan\n")
    assert run_cli("gait", "run", "--gains", cfg, "--out", tmp_path) == 1
    assert "kp must be finite" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_gait_run_negative_fall_threshold_is_config_error(tmp_path, capsys):
    cfg = tmp_path / "neg.cfg"
    cfg.write_text("plant.fall_threshold = -0.5\n")
    assert run_cli("gait", "run", "--gains", cfg, "--out", tmp_path) == 1
    assert "fall_threshold" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_optimize_zero_real_budget(tmp_path, capsys):
    code = run_cli(
        "gait", "optimize", "--max-real", 0, "--max-total", 6, "--out", tmp_path, "--seed", 3,
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "real evaluations: 0" in out
    assert (tmp_path / "history.csv").exists()
    assert (tmp_path / "best_gains.cfg").exists()
    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["real_evaluations"] == 0
    assert set(summary["best_gains"]) == {"arm_angle_y.kp", "arm_angle_y.kd"}


@pytest.mark.parametrize("flags", [
    ("--max-real", 3, "--max-total", 8),
    ("--max-real", 0, "--max-total", 6),
    ("--baseline", "random", "--max-real", 4),
], ids=["gp", "sim-only", "random"])
def test_optimize_summary_reports_the_lowest_j_alpha(tmp_path, capsys, flags):
    # compared through history.csv's %.12g, not a digest: the GP's BLAS calls
    # may round their last bits differently on other CPUs
    assert run_cli("gait", "optimize", "--seed", 0, *flags, "--out", tmp_path) == 0
    out = capsys.readouterr().out
    summary = json.loads((tmp_path / "summary.json").read_text())
    with open(tmp_path / "history.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    real = [r for r in rows if r["delta"] == "real"]
    best = min(real or rows, key=lambda r: float(r["J_alpha"]))
    assert float("%.12g" % summary["best_cost"]) == float(best["J_alpha"])
    assert summary["best_delta"] == best["delta"]
    assert summary["plane"] == "alpha"
    assert (summary["real_evaluations"], summary["sim_evaluations"]) == (
        len(real), len(rows) - len(real))
    assert "best J_alpha = %.6f at " % summary["best_cost"] in out


def test_optimize_rejects_nan_sim_bias(tmp_path, capsys):
    assert run_cli("gait", "optimize", "--sim-bias", "nan", "--out", tmp_path) == 1
    assert "sim_bias_weight" in capsys.readouterr().err


def test_optimize_history_is_byte_identical_for_same_seed(tmp_path):
    for sub in ("a", "b"):
        code = run_cli(
            "gait", "optimize", "--max-real", 2, "--max-total", 6,
            "--out", tmp_path / sub, "--seed", 11,
        )
        assert code == 0
    a = (tmp_path / "a" / "history.csv").read_bytes()
    b = (tmp_path / "b" / "history.csv").read_bytes()
    assert a == b


def test_blob_empty_heatmap(tmp_path, capsys):
    path = tmp_path / "empty.pgm"
    write_pgm(np.zeros((16, 16)), path)
    out_csv = tmp_path / "det.csv"
    assert run_cli("blob", "--input", path, "--out", out_csv) == 0
    assert out_csv.read_text().splitlines() == ["channel,cx,cy,mass,pixels"]


def test_blob_zero_mass_component_is_an_error(tmp_path, capsys):
    path = tmp_path / "zero.pgm"
    write_pgm(np.zeros((16, 16)), path)
    assert run_cli("blob", "--input", path, "--threshold", 0, "--out", tmp_path / "det.csv") == 1
    err = capsys.readouterr().err
    assert "zero total mass" in err and "Traceback" not in err


def test_blob_finds_gaussian(tmp_path):
    yy, xx = np.mgrid[0:32, 0:32]
    h = np.exp(-((xx - 20.2) ** 2 + (yy - 11.6) ** 2) / (2 * 2.0**2))
    pgm = tmp_path / "blob.pgm"
    write_pgm(h, pgm)
    csv_in = tmp_path / "blob.csv"
    np.savetxt(csv_in, h, delimiter=",")
    out_csv = tmp_path / "det.csv"
    assert run_cli("blob", "--input", pgm, "--input", csv_in, "--out", out_csv) == 0
    lines = out_csv.read_text().splitlines()
    assert len(lines) == 3
    for line, channel in zip(lines[1:], (0, 1)):
        parts = line.split(",")
        assert int(parts[0]) == channel
        assert abs(float(parts[1]) - 20.2) < 0.25
        assert abs(float(parts[2]) - 11.6) < 0.25


def test_calib_camera_end_to_end(tmp_path, capsys):
    from gaitlab.heatmap import CameraIntrinsics, CameraPose, project
    from gaitlab.orientation import Quaternion

    rng = np.random.default_rng(2)
    intr = CameraIntrinsics(450.0, 320.0, 240.0)
    true = CameraPose(np.array([0.05, -0.1, 0.15]),
                      Quaternion.from_rotvec([0.08, -0.02, 0.05]), intr)
    world = rng.uniform(-1, 1, (15, 3))
    world[:, 2] += 4.0
    rows = ["X,Y,Z,u,v"]
    for w in world:
        u, v = project(w, true)
        rows.append(f"{w[0]},{w[1]},{w[2]},{u},{v}")
    path = tmp_path / "obs.csv"
    path.write_text("\n".join(rows))
    code = run_cli(
        "calib", "camera", "--input", path,
        "--focal", 450.0, "--cx", 320.0, "--cy", 240.0,
        "--guess-pos", 0.0, 0.0, 0.1, "--guess-rot", 0.05, 0.0, 0.0,
    )
    assert code == 0
    out = capsys.readouterr().out
    pos = [float(v) for v in out.splitlines()[0].split("=")[1].split()[:3]]
    assert np.linalg.norm(np.array(pos) - true.position) < 1e-3
    residual = float(out.splitlines()[2].split("=")[1].split()[0])
    assert residual < 1e-3


def _golden_observation_rows():
    """30 seeded observations of a known pose with 0.5 px pixel noise, projected
    without gaitlab so that the file does not move with the code under test."""
    rng = np.random.default_rng(30)
    a, b, c = 0.06, -0.04, 0.09
    rx = np.array([[1, 0, 0], [0, math.cos(a), -math.sin(a)], [0, math.sin(a), math.cos(a)]])
    ry = np.array([[math.cos(b), 0, math.sin(b)], [0, 1, 0], [-math.sin(b), 0, math.cos(b)]])
    rz = np.array([[math.cos(c), -math.sin(c), 0], [math.sin(c), math.cos(c), 0], [0, 0, 1]])
    world = rng.uniform(-1.0, 1.0, (30, 3)) + [0.0, 0.0, 4.0]
    p_cam = (world - [0.1, -0.05, 0.2]) @ (rx @ ry @ rz)
    pixels = 480.0 * p_cam[:, :2] / p_cam[:, 2:] + [320.0, 240.0] + rng.normal(0.0, 0.5, (30, 2))
    return ["X,Y,Z,u,v"] + [",".join(map(repr, r)) for r in np.hstack([world, pixels]).tolist()]


def test_calib_camera_prints_the_same_pose_to_the_printed_digits(tmp_path, capsys):
    path = tmp_path / "obs.csv"
    path.write_text("\n".join(_golden_observation_rows()) + "\n")
    code = run_cli("calib", "camera", "--input", path, "--focal", 480, "--cx", 320, "--cy", 240,
                   "--guess-pos", 0, 0, 0.1, "--guess-rot", 0.02, 0, 0.05)
    assert code == 0
    assert capsys.readouterr().out.splitlines() == [
        "position = 0.100379 -0.051155 0.198687 m",
        "orientation_wxyz = 0.99838783 0.02876976 -0.02154087 0.04393215",
        "rms_residual = 0.690919 px",
    ]


@pytest.mark.parametrize("flag, values, cause", [
    ("--guess-rot", ("inf", 0, 0), "--guess-rot must be a rotation vector"),
    ("--guess-rot", (1e300, 1e300, 0), "--guess-rot must be a rotation vector"),
    ("--guess-rot", ("nan", 0, 0), "--guess-rot must be a rotation vector"),
    ("--guess-pos", ("nan", 0, 0), "--guess-pos must be finite"),
], ids=["rot-inf", "rot-angle-overflow", "rot-nan", "pos-nan"])
def test_calib_camera_names_a_bad_guess_flag(tmp_path, capsys, flag, values, cause):
    path = tmp_path / "obs.csv"
    path.write_text("\n".join(_golden_observation_rows()) + "\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("calib", "camera", "--input", path, "--focal", 480, "--cx", 320,
                       "--cy", 240, flag, *values)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith(f"error: {cause}") and "Traceback" not in err


def _front_points(n, scale=1.0):
    rng = np.random.default_rng(5)
    world = rng.uniform(-1, 1, (n, 3))
    world[:, 2] += 4.0
    return world * scale


@pytest.mark.parametrize("world, cause", [
    ([(0.1, -0.2, 4.0)] * 6, "need at least 4 distinct world points to fix a camera pose, got 1"),
    ([(0.1 * k, 0.05 * k, 3.0 + 0.2 * k) for k in range(8)],
     "the world points are collinear; the rotation about their line is undetermined"),
    # the squared depth of such a point behind the camera overflows
    (_front_points(30, 1e200), "m from the guess position; calibration takes points within 1e+09 m"),
], ids=["identical", "collinear", "huge_coordinates"])
def test_calib_camera_refuses_points_that_cannot_fix_a_pose(tmp_path, capsys, world, cause):
    rows = ["X,Y,Z,u,v"] + [f"{x!r},{y!r},{z!r},{300 + 7 * i},{250 - 3 * i}"
                            for i, (x, y, z) in enumerate(np.asarray(world).tolist())]
    path = tmp_path / "obs.csv"
    path.write_text("\n".join(rows))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        code = run_cli("calib", "camera", "--input", path, "--focal", 500, "--cx", 320, "--cy", 240)
    out, err = capsys.readouterr()
    assert code == 1 and out == ""
    assert err.startswith("error: ") and cause in err and "Traceback" not in err


def test_calib_camera_names_a_focal_length_that_overflows_the_error(tmp_path, capsys):
    rows = ["X,Y,Z,u,v"] + [f"{x!r},{y!r},{z!r},{300 + 7 * i},{250 - 3 * i}"
                            for i, (x, y, z) in enumerate(_front_points(30).tolist())]
    path = tmp_path / "obs.csv"
    path.write_text("\n".join(rows))
    assert run_cli("calib", "camera", "--input", path, "--focal", 1e160, "--cx", 320, "--cy", 240) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.startswith("error: mean squared reprojection error at the guess is inf px^2 with "
                          "focal length 1e+160 px")


@pytest.mark.parametrize("data, cause", [
    (b"a,b\n1,x\n", "could not convert"),
    (b"0.1,0.2\n0.3\n", "number of columns changed"),
    (b"\xff\xfe0.1,0.2\n", "can't decode"),
])
def test_blob_malformed_csv_is_an_input_error(tmp_path, capsys, data, cause):
    path = tmp_path / "bad.csv"
    path.write_bytes(data)
    assert run_cli("blob", "--input", path, "--out", tmp_path / "det.csv") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: malformed heatmap CSV") and str(path) in err and cause in err
    assert not (tmp_path / "det.csv").exists()


@pytest.mark.parametrize("data", [b"", b"\n\n\n"])
def test_blob_csv_without_values_is_an_input_error_naming_the_file(tmp_path, capsys, data):
    path = tmp_path / "empty.csv"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("blob", "--input", path, "--out", tmp_path / "det.csv") == 1
    out, err = capsys.readouterr()
    assert out == "" and err == f"error: heatmap CSV {path} holds no values\n"
    assert not (tmp_path / "det.csv").exists()

def test_blob_truncated_pgm_header_is_an_input_error(tmp_path, capsys):
    path = tmp_path / "cut.pgm"
    path.write_bytes(b"P5\n4 3" + b"\n" * 100_000)
    assert run_cli("blob", "--input", path, "--out", tmp_path / "det.csv") == 1
    assert capsys.readouterr().err.startswith(f"error: malformed PGM header in {path}")
    assert not (tmp_path / "det.csv").exists()


@pytest.mark.parametrize("command", [["calib", "torque"],
                                     ["calib", "camera", "--focal", 500, "--cx", 0, "--cy", 0]])
def test_calib_non_utf8_input_is_an_input_error(tmp_path, capsys, command):
    path = tmp_path / "binary.csv"
    path.write_bytes(b"\xff\xfe1,2\n")
    assert run_cli(*command, "--input", path) == 1
    assert "cannot read" in capsys.readouterr().err


@pytest.mark.parametrize("max_real, max_total, field", [(0, 0, "max_total"), (-1, 5, "max_real")])
def test_optimize_rejects_empty_budget(tmp_path, capsys, max_real, max_total, field):
    code = run_cli("gait", "optimize", "--max-real", max_real, "--max-total", max_total,
                   "--out", tmp_path)
    assert code == 1
    assert field in capsys.readouterr().err
    assert not (tmp_path / "history.csv").exists()


@pytest.mark.parametrize("flags, values", [
    (("--max-real", 7, "--max-total", 3, "--sim-average", 1), ("7", "3")),
    (("--sim-average", 0), ("0",)),
])
def test_optimize_budget_errors_give_the_values(tmp_path, capsys, flags, values):
    assert run_cli("gait", "optimize", *flags, "--out", tmp_path) == 1
    errors = [line for line in capsys.readouterr().err.splitlines() if line.startswith("error:")]
    assert len(errors) == 1
    assert all(re.search(rf"\b{v}\b", errors[0]) for v in values)
    assert not (tmp_path / "history.csv").exists()


def test_optimize_random_baseline_rejects_zero_real_budget(tmp_path, capsys):
    code = run_cli("gait", "optimize", "--baseline", "random", "--max-real", 0,
                   "--max-total", 5, "--out", tmp_path)
    assert code == 1
    assert "max_real >= 1" in capsys.readouterr().err


def test_gait_run_rejects_halt_arm_retraction_above_one(tmp_path, capsys):
    cfg = tmp_path / "arms.cfg"
    cfg.write_text("cpg.halt_arm_eta = 1.5\n")
    assert run_cli("gait", "run", "--gains", cfg, "--out", tmp_path) == 1
    assert "cpg: halt arm retraction must be in [0, 1]" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_gait_run_overflow_to_inf_is_an_error_not_a_fall(tmp_path, capsys):
    # the fall threshold lets the state grow until one step takes it to -inf
    cfg = tmp_path / "overflow.cfg"
    cfg.write_text("gains.arm_angle_y.kp = 1e300\nplant.fall_threshold = 1e300\n")
    assert run_cli("gait", "run", "--gains", cfg, "--out", tmp_path) == 1
    assert "not finite from t=0.51 s (sample 51)" in capsys.readouterr().err
    assert not (tmp_path / "trace.csv").exists()


def test_optimize_best_gains_config_loads_back(tmp_path):
    from gaitlab.config import load_config

    # this budget's best point has more digits than 12 significant ones
    assert run_cli("gait", "optimize", "--max-real", 2, "--max-total", 6, "--out", tmp_path) == 0
    best = load_config(tmp_path / "best_gains.cfg")
    summary = json.loads((tmp_path / "summary.json").read_text())
    for name, value in summary["best_gains"].items():
        assert best[f"gains.{name}"] == value


def test_optimize_best_gains_config_holds_best_x_exactly(tmp_path, monkeypatch):
    from gaitlab import cli
    from gaitlab.config import load_config

    results = []
    optimize = cli.optimize

    def recorded(*args, **kwargs):
        results.append(optimize(*args, **kwargs))
        return results[-1]

    monkeypatch.setattr(cli, "optimize", recorded)
    # this budget's best point has more digits than 12 significant ones
    assert run_cli("gait", "optimize", "--max-real", 2, "--max-total", 6, "--out", tmp_path) == 0
    best = load_config(tmp_path / "best_gains.cfg")
    x = np.array([best["gains.arm_angle_y.kp"], best["gains.arm_angle_y.kd"]])
    assert x.tobytes() == results[0].best_x.tobytes()


@pytest.mark.parametrize(
    "argv, flag",
    [
        (["gait", "run", "--seed", "-1"], "--seed"),
        (["gait", "optimize", "--seed", "-3"], "--seed"),
        (["blob", "--input", "h.pgm", "--min-pixels", "-5"], "--min-pixels"),
    ],
)
def test_negative_count_flag_is_a_usage_error(tmp_path, capsys, monkeypatch, argv, flag):
    monkeypatch.chdir(tmp_path)
    write_pgm(np.zeros((8, 8)), tmp_path / "h.pgm")
    assert run_cli(*argv, "--out", tmp_path / "out") == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and flag in err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("argv", [
    ["gait", "run", "--seed", "abc"],
    ["gait", "run", "--no-such-flag"],
    ["gear", "--teeth", "3.5", "--module", "1.5"],
    ["calib", "torque"],
    [],
])
def test_argument_errors_exit_1_not_the_fall_code(capsys, argv):
    with pytest.raises(SystemExit) as exit_info:
        main(argv)
    assert exit_info.value.code == 1
    err = capsys.readouterr().err
    assert err.startswith("usage: gaitlab") and "error: " in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exit_info:
        main(["gait", "run", "--help"])
    assert exit_info.value.code == 0
    assert capsys.readouterr().out.startswith("usage: gaitlab gait run")


@pytest.mark.parametrize("command, rows, bad", [
    (["calib", "torque"], ["current_A,torque_Nm", "0.1,0.3", "0.2,inf", "0.3,0.9"], 3),
    (["calib", "torque"], ["0.1,0.3", "-inf,0.6", "0.3,0.9"], 2),
    (["calib", "camera", "--focal", 500, "--cx", 320, "--cy", 240],
     ["X,Y,Z,u,v", "0,0,4,320,240", "1,0,4,nan,240", "0,1,4,320,365"], 3),
])
def test_calib_non_finite_cell_is_an_input_error(tmp_path, capsys, command, rows, bad):
    path = tmp_path / "data.csv"
    path.write_text("\n".join(rows) + "\n")
    assert run_cli(*command, "--input", path) == 1
    assert capsys.readouterr().err == f"error: {path}: line {bad}: not finite: {rows[bad - 1]!r}\n"


@pytest.mark.parametrize("reg", ["nan", "-0.5"])
def test_optimize_rejects_bad_regularization_before_any_run(tmp_path, capsys, monkeypatch, reg):
    from gaitlab import bayesopt

    def no_run(*args, **kwargs):
        raise AssertionError("ran the closed loop")

    monkeypatch.setattr(bayesopt, "run_sequence", no_run)
    monkeypatch.setattr(bayesopt, "_run_ep_integrals", no_run)
    assert run_cli("gait", "optimize", "--reg", reg, "--out", tmp_path) == 1
    assert "regularization must be finite and >= 0" in capsys.readouterr().err
    assert not (tmp_path / "history.csv").exists()


def seeded_blob_frame(seed, shape):
    """Gaussian blobs on a zero background, quantized to 1/255 steps."""
    rng = np.random.default_rng(seed)
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    frame = np.zeros(shape)
    for _ in range(int(rng.integers(10, 15))):
        cx, cy = rng.uniform(20, shape[1] - 20), rng.uniform(20, shape[0] - 20)
        sigma = rng.uniform(2.5, 6.0)
        frame += rng.uniform(0.6, 0.92) * np.exp(-((xx - cx) ** 2 + (yy - cy) ** 2) / (2 * sigma**2))
    return np.round(np.clip(frame, 0.0, 1.0) * 255.0).astype(np.uint8)


def test_blob_detections_csv_is_pinned(tmp_path, capsys):
    pgm = tmp_path / "frame.pgm"
    write_pgm(seeded_blob_frame(19, (480, 640)) / 255.0, pgm)
    csv_in = tmp_path / "frame.csv"
    np.savetxt(csv_in, seeded_blob_frame(20, (120, 160)) / 255.0, fmt="%.6f", delimiter=",")
    out_csv = tmp_path / "det.csv"
    assert run_cli("blob", "--input", pgm, "--input", csv_in, "--threshold", 0.3, "--out", out_csv) == 0
    digest = hashlib.sha256(out_csv.read_bytes()).hexdigest()
    assert digest == "7475c04f4a4db7a242b8d61060f06f489e5ca1960b215bb4e703dc9766dc6028"


def test_blob_reads_a_pgm_suffix_in_any_case(tmp_path):
    frame = seeded_blob_frame(19, (120, 160)) / 255.0
    for name in ("lower.pgm", "upper.PGM"):
        write_pgm(frame, tmp_path / name)
        assert run_cli("blob", "--input", tmp_path / name, "--out", tmp_path / f"{name}.csv") == 0
    detections = (tmp_path / "lower.pgm.csv").read_bytes()
    assert len(detections.splitlines()) > 1
    assert (tmp_path / "upper.PGM.csv").read_bytes() == detections


EXTREMES = ("0", "1e-300", "-1", "1e12", "1e300", "nan", "inf")
INT_EXTREMES = ("7", "1000000000000")  # an int flag's parser rejects 1e12 and 1e300 as text
_CAMERA = ["calib", "camera", "--input", "obs.csv", "--focal", "480", "--cx", "320", "--cy", "240"]
_OPTIMIZE = ["gait", "optimize", "--max-real", "1", "--max-total", "3", "--sim-average", "1"]
# each numeric flag: the argv with V where each swept value goes, and the words
# an exit-1 line may name it by: the flag, or the quantity the library checks it as
SWEPT_FLAGS = {
    "blob --threshold": (["blob", "--input", "frame.pgm", "--threshold", "V"], "threshold"),
    "blob --min-pixels": (["blob", "--input", "frame.pgm", "--min-pixels", "V"], "--min-pixels"),
    "gear --teeth": (["gear", "--teeth", "V", "--module", "1.5"], "--teeth|tooth count"),
    "gear --module": (["gear", "--teeth", "30", "--module", "V"], "module"),
    "gear --helix-deg": (["gear", "--teeth", "30", "--module", "1.5", "--helix-deg", "V"],
                         "--helix-deg|helix angle"),
    "calib camera --focal": (_CAMERA[:5] + ["V"] + _CAMERA[6:], "focal length"),
    "calib camera --cx": (_CAMERA[:7] + ["V"] + _CAMERA[8:], "principal point"),
    "calib camera --cy": (_CAMERA[:9] + ["V"], "principal point"),
    "calib camera --guess-pos": (_CAMERA + ["--guess-pos", "V", "V", "V"], "--guess-pos|guess position"),
    "calib camera --guess-rot": (_CAMERA + ["--guess-rot", "V", "V", "V"], "--guess-rot"),
    # calib torque takes no numeric flag: its numbers are the cells of --input
    "calib torque current": (["calib", "torque", "--input", "torque.csv"], "torque|line fit"),
    "calib torque torque": (["calib", "torque", "--input", "torque.csv"], "torque|line fit"),
    "gait run --disturb impulse": (["gait", "run", "--seq", "in-place", "--disturb=V@5s:front"],
                                   "--disturb|disturbance impulse"),
    "gait run --disturb time": (["gait", "run", "--seq", "in-place", "--disturb=9.51@Vs:front"],
                                "--disturb|disturbance time"),
    "gait run --seed": (["gait", "run", "--seq", "in-place", "--seed", "V"], "--seed"),
    "gait optimize --seed": (_OPTIMIZE + ["--seed", "V"], "--seed"),
    "gait optimize --max-real": (_OPTIMIZE[:3] + ["V"] + _OPTIMIZE[4:], "--max-real|max_real"),
    "gait optimize --max-total": (_OPTIMIZE[:5] + ["V"] + _OPTIMIZE[6:], "--max-total|max_total"),
    "gait optimize --sim-average": (_OPTIMIZE[:7] + ["V"], "--sim-average|sim_average_n"),
    "gait optimize --sim-bias": (_OPTIMIZE + ["--sim-bias", "V"], "--sim-bias|sim_bias_weight"),
    "gait optimize --reg": (_OPTIMIZE + ["--reg", "V"], "--reg|regularization"),
}
_INT_FLAGS = {"blob --min-pixels", "gear --teeth", "gait run --seed", "gait optimize --seed",
              "gait optimize --max-real", "gait optimize --max-total", "gait optimize --sim-average"}
_CALL_SECONDS = 5.0  # the costliest call, a calibration at its 2 x 4000 step limit, takes about 0.5 s


def _numbers(text):
    """Every token of a printed or CSV text that reads as a float."""
    for token in text.replace(",", " ").split():
        try:
            yield float(token)
        except ValueError:
            pass


@pytest.mark.parametrize("name", list(SWEPT_FLAGS))
def test_numeric_flags_at_extreme_values_exit_cleanly(tmp_path, capsys, monkeypatch, name):
    monkeypatch.chdir(tmp_path)
    write_pgm(seeded_blob_frame(19, (60, 80)) / 255.0, "frame.pgm")
    (tmp_path / "obs.csv").write_text("\n".join(_golden_observation_rows()) + "\n")
    argv, names = SWEPT_FLAGS[name]
    outputs = {"blob": ["detections.csv"], "run": ["trace.csv", "phase.csv"],
               "optimize": ["history.csv"]}.get(argv[1] if argv[0] == "gait" else argv[0], [])
    for value in EXTREMES + (INT_EXTREMES if name in _INT_FLAGS else ()):
        if argv[1] == "torque":
            rows = [[repr(i), repr(KT * i + OFFSET)] for i in np.linspace(0.1, 3.0, 12).tolist()]
            rows[3][name.endswith(" torque")] = value
            (tmp_path / "torque.csv").write_text(
                "current_A,torque_Nm\n" + "\n".join(map(",".join, rows)) + "\n")
        for path in outputs:
            (tmp_path / path).unlink(missing_ok=True)
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            try:
                code = main([arg.replace("V", value) for arg in argv])
            except SystemExit as exc:  # argparse's usage errors
                code = exc.code
        seconds = time.perf_counter() - start
        out, err = capsys.readouterr()
        case = f"{name} = {value}: exit {code}, stderr {err!r}"
        assert code in (0, 1, 2), case
        assert seconds < _CALL_SECONDS, f"{case}, {seconds:.2f} s"
        assert all(map(math.isfinite, _numbers(out))), f"{case}, stdout {out!r}"
        if code == 1:
            errors = [line for line in err.splitlines() if "error: " in line]
            assert len(errors) == 1 and re.search(names, errors[0]), case
            continue
        assert err == "", case
        for path in outputs:
            text = (tmp_path / path).read_text()
            assert all(map(math.isfinite, _numbers(text))), f"{case}, {path}"


def test_the_reused_parser_keeps_nothing_between_calls(tmp_path, capsys):
    from gaitlab.cli import build_parser

    assert build_parser() is build_parser()  # built once per process
    parse = build_parser().parse_args
    assert parse(["gait", "run", "--disturb", "9@1s:front", "--disturb", "3@2s:left"]).disturb == [
        "9@1s:front", "3@2s:left"]
    assert parse(["gait", "run"]).disturb == []
    assert parse(["blob", "--input", "a.pgm", "--input", "b.csv"]).input == ["a.pgm", "b.csv"]
    assert parse(["blob", "--input", "c.pgm"]).input == ["c.pgm"]

    def gait_run(out, *disturb):
        code = run_cli("gait", "run", "--seq", "in-place", "--out", tmp_path / out,
                       *(arg for spec in disturb for arg in ("--disturb", spec)))
        return code, (tmp_path / out / "trace.csv").read_bytes(), capsys.readouterr().out

    pushed = gait_run("pushed", "66@4s:left")
    calm = gait_run("calm")
    with pytest.raises(SystemExit) as usage:
        run_cli("gait", "run", "--seq", "in-place", "--disturb")
    assert usage.value.code == 1 and "--disturb" in capsys.readouterr().err
    assert pushed[0] == 2 and calm[0] == 0 and pushed[1] != calm[1]
    assert gait_run("calm-again") == (calm[0], calm[1], calm[2].replace("calm", "calm-again"))
    assert gait_run("pushed-again", "66@4s:left") == (
        pushed[0], pushed[1], pushed[2].replace("pushed", "pushed-again"))


# every config key, through the two commands that read a config file
CONFIG_COMMANDS = {
    "gait run": (["gait", "run", "--seq", "standard"], ["trace.csv", "phase.csv"]),
    "gait optimize": (["gait", "optimize", "--max-real", "1", "--max-total", "3",
                       "--sim-average", "1"], ["history.csv"]),
}


@pytest.mark.parametrize("command", list(CONFIG_COMMANDS))
@pytest.mark.parametrize("key", list(config.default_config()))
def test_config_keys_at_extreme_values_exit_cleanly(tmp_path, capsys, monkeypatch, key, command):
    monkeypatch.chdir(tmp_path)
    argv, outputs = CONFIG_COMMANDS[command]
    prefix, field = key.rsplit(".", 1)
    # an exit-1 line names the key: its field after the prefix config.rebuild
    # puts first, or the run-time cause the value led to
    names = rf"^error: {re.escape(prefix)}: .*\b{field}\b|^error: plant state is not finite"
    for value in EXTREMES:
        (tmp_path / "sweep.cfg").write_text(f"{key} = {value}\n")
        for path in outputs:
            (tmp_path / path).unlink(missing_ok=True)
        start = time.perf_counter()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(argv + ["--gains", "sweep.cfg"])
        seconds = time.perf_counter() - start
        out, err = capsys.readouterr()
        case = f"{command} with {key} = {value}: exit {code}, stderr {err!r}"
        assert code in (0, 1, 2), case
        assert seconds < _CALL_SECONDS, f"{case}, {seconds:.2f} s"
        assert all(map(math.isfinite, _numbers(out))), f"{case}, stdout {out!r}"
        if code == 1:
            errors = [line for line in err.splitlines() if "error: " in line]
            assert len(errors) == 1 and re.search(names, errors[0]), case
            continue
        assert err == "", case
        for path in outputs:
            text = (tmp_path / path).read_text()
            assert all(map(math.isfinite, _numbers(text))), f"{case}, {path}"
