import numpy as np
import pytest

from gaitlab.cli import main
from gaitlab.heatmap import write_pgm

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
    import json

    summary = json.loads((tmp_path / "summary.json").read_text())
    assert summary["real_evaluations"] == 0
    assert set(summary["best_gains"]) == {"arm_angle_y.kp", "arm_angle_y.kd"}


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
    import json

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
