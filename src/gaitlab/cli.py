"""Command-line front end.

Subcommands::

    gaitlab gait run       closed-loop run, writes trace.csv and phase.csv
    gaitlab gait optimize  sim/real gain optimization, writes history.csv
    gaitlab calib torque   torque-constant regression from a current/torque CSV
    gaitlab calib camera   extrinsic calibration from an observation CSV
    gaitlab blob           heatmap post-processing to a detections CSV
    gaitlab gear           helical gear pitch diameter

Exit codes: 0 success, 1 usage/config error, 2 domain outcome (robot fell).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import re
import sys

import numpy as np

from . import config as cfgmod
from .actuators import GearSpec, fit_torque_model, gear_pitch_diameter
from .bayesopt import GainProblem, OptBudget, history_to_csv, optimize, random_search
from .errors import GaitlabError
from .heatmap import (
    CameraIntrinsics,
    CameraPose,
    calibrate_extrinsics,
    detect_blobs,
    detections_to_csv,
    read_heatmap_csv,
    read_pgm,
)
from .cpg import GaitCommand
from .orientation import Quaternion
from .plant import (
    Disturbance,
    make_real_plant,
    phase_plot_to_csv,
    run_sequence,
    standard_test_sequence,
    trace_to_csv,
)

_NUMBER = r"[+-]?(?:[0-9]+\.?[0-9]*|\.[0-9]+)(?:[eE][+-]?[0-9]+)?"  # a decimal float() reads
_DISTURB_RE = re.compile(rf"^({_NUMBER})@({_NUMBER})s?:(front|back|left|right)$")


def _parse_disturb(spec: str) -> Disturbance:
    m = _DISTURB_RE.match(spec)
    if m is None:
        raise GaitlabError(
            f"bad --disturb {spec!r}; expected IMPULSE@TIMEs:DIRECTION, e.g. 9.51@5s:front"
        )
    return Disturbance(time=float(m.group(2)), impulse=float(m.group(1)), direction=m.group(3))


def _sequence_by_name(name: str):
    if name == "standard":
        return standard_test_sequence()
    if name == "forward":
        return [(GaitCommand(vx=0.7), 10.0)]
    if name == "in-place":
        return [(GaitCommand(), 10.0)]
    raise GaitlabError(f"unknown sequence {name!r} (standard, forward, in-place)")


def _check_nonnegative_flag(flag: str, value: int) -> None:
    if value < 0:
        raise GaitlabError(f"{flag} must be >= 0, got {value}")


def _load_config(path: str | None) -> dict[str, float]:
    return cfgmod.load_config(path) if path else cfgmod.default_config()


def cmd_gait_run(args) -> int:
    _check_nonnegative_flag("--seed", args.seed)
    cfg = _load_config(args.gains)
    seq = _sequence_by_name(args.seq)
    disturbances = [_parse_disturb(s) for s in args.disturb]
    trace = run_sequence(
        cfgmod.gains_from_config(cfg),
        cfgmod.cpg_from_config(cfg),
        seq,
        cfgmod.plant_from_config(cfg, seed=args.seed),
        disturbances=disturbances,
        filter_params=cfgmod.filter_from_config(cfg),
    )
    os.makedirs(args.out, exist_ok=True)
    trace_path = os.path.join(args.out, "trace.csv")
    phase_path = os.path.join(args.out, "phase.csv")
    trace_to_csv(trace, trace_path)
    phase_plot_to_csv(trace, phase_path)
    print(f"wrote {trace_path} and {phase_path} ({len(trace)} samples at dt={trace.dt} s)")
    print("integral |e_P|: alpha=%.6f beta=%.6f" % trace.ep_integrals())
    print(f"retraction saturations: {trace.saturations} steps")
    if trace.fall:
        print(f"robot FELL at t={trace.t[-1]:.2f} s")
        return 2
    return 0


def cmd_gait_optimize(args) -> int:
    _check_nonnegative_flag("--seed", args.seed)
    cfg = _load_config(args.gains)
    budget = OptBudget(
        max_real=args.max_real,
        max_total=args.max_total,
        sim_average_n=args.sim_average,
        sim_bias_weight=args.sim_bias,
    )
    sim_plant = cfgmod.plant_from_config(cfg, seed=0)
    problem = GainProblem(
        sim_plant=sim_plant,
        real_plant=make_real_plant(sim_plant),
        base_gains=cfgmod.gains_from_config(cfg),
        cpg=cfgmod.cpg_from_config(cfg),
        filter_params=cfgmod.filter_from_config(cfg),
        regularization=args.reg,
    )
    if args.baseline == "random":
        result = random_search(problem, budget, seed=args.seed)
    else:
        result = optimize(problem, budget, seed=args.seed)
    os.makedirs(args.out, exist_ok=True)
    history_path = os.path.join(args.out, "history.csv")
    history_to_csv(result, problem.param_names, history_path)
    best_cfg = {**cfg, **cfgmod.flatten(problem.gains_with(result.best_x), "gains.")}
    best_path = os.path.join(args.out, "best_gains.cfg")
    cfgmod.write_config(best_cfg, best_path)
    summary_path = os.path.join(args.out, "summary.json")
    with open(summary_path, "w") as fh:
        json.dump(
            {
                "best_gains": {
                    name: float(v) for name, v in zip(problem.param_names, result.best_x)
                },
                "best_cost": result.best_cost,
                "best_delta": result.best_delta,
                "plane": "alpha",
                "real_evaluations": result.real_count,
                "sim_evaluations": result.sim_count,
                "seed": args.seed,
            },
            fh,
            indent=2,
            sort_keys=True,
        )
        fh.write("\n")
    print(f"real evaluations: {result.real_count}")
    print(f"sim evaluations: {result.sim_count}")
    print(
        "best J_alpha = %.6f at %s (%s)"
        % (
            result.best_cost,
            ", ".join("%s=%.4f" % nv for nv in zip(problem.param_names, result.best_x)),
            result.best_delta,
        )
    )
    print(f"wrote {history_path}, {best_path}, and {summary_path}")
    return 0


def _read_csv_rows(path, n_cols: int):
    rows = []
    try:
        with open(path, encoding="utf-8") as fh:
            lines = fh.read().splitlines()
    except (OSError, UnicodeDecodeError) as exc:
        raise GaitlabError(f"cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = [p.strip() for p in line.split(",")]
        try:
            rows.append([float(p) for p in parts])
        except ValueError:
            if lineno == 1:
                continue  # header
            raise GaitlabError(f"{path}: line {lineno}: not numeric: {raw!r}") from None
        if len(parts) != n_cols:
            raise GaitlabError(
                f"{path}: line {lineno}: expected {n_cols} columns, got {len(parts)}"
            )
        if not all(map(math.isfinite, rows[-1])):
            raise GaitlabError(f"{path}: line {lineno}: not finite: {raw!r}")
    if not rows:
        raise GaitlabError(f"{path}: no data rows")
    return np.array(rows)


def cmd_calib_torque(args) -> int:
    data = _read_csv_rows(args.input, 2)
    model = fit_torque_model(list(zip(data[:, 0], data[:, 1])))
    print(f"K_T = {model.k_t:.6f} Nm/A")
    print(f"offset = {model.offset:.6f} Nm")
    return 0


def cmd_calib_camera(args) -> int:
    if not all(map(math.isfinite, args.guess_pos)):
        raise GaitlabError(f"--guess-pos must be finite, got {args.guess_pos}")
    rot = np.array(args.guess_rot)
    with np.errstate(over="ignore"):
        angle_sq = rot.dot(rot)  # from_rotvec takes its root
    if not math.isfinite(angle_sq):
        raise GaitlabError(
            "--guess-rot must be a rotation vector whose squared angle is finite, "
            f"got {args.guess_rot}"
        )
    data = _read_csv_rows(args.input, 5)
    intr = CameraIntrinsics(focal=args.focal, cx=args.cx, cy=args.cy)
    guess = CameraPose(np.array(args.guess_pos), Quaternion.from_rotvec(rot), intr)
    result = calibrate_extrinsics([(row[:3], row[3:5]) for row in data], intr, guess)
    px, py, pz = result.pose.position
    q = result.pose.orientation
    print(f"position = {px:.6f} {py:.6f} {pz:.6f} m")
    print(f"orientation_wxyz = {q.w:.8f} {q.x:.8f} {q.y:.8f} {q.z:.8f}")
    print(f"rms_residual = {result.rms_residual:.6f} px")
    if not result.converged:
        print("warning: did not converge (iteration limit, a point behind the camera, "
              "or a non-finite residual)")
    return 0


def cmd_blob(args) -> int:
    _check_nonnegative_flag("--min-pixels", args.min_pixels)
    detections = {}
    for channel, path in enumerate(args.input):
        if path.lower().endswith(".pgm"):
            h = read_pgm(path)
        else:
            h = read_heatmap_csv(path)
        detections[channel] = detect_blobs(h, t=args.threshold, min_pixels=args.min_pixels)
    detections_to_csv(detections, args.out)
    total = sum(len(d) for d in detections.values())
    print(f"wrote {args.out} ({total} detections from {len(args.input)} channel(s))")
    return 0


def cmd_gear(args) -> int:
    spec = GearSpec(teeth=args.teeth, module=args.module, helix_angle=math.radians(args.helix_deg))
    print(f"pitch diameter = {gear_pitch_diameter(spec):.6f} mm")
    return 0


class _Parser(argparse.ArgumentParser):
    """Exits 1 on a usage error; argparse's own code, 2, means "robot fell" here."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(1, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="gaitlab", description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)

    gait = sub.add_parser("gait", help="closed-loop gait experiments")
    gait_sub = gait.add_subparsers(dest="gait_command", required=True)

    run = gait_sub.add_parser("run", help="run a command sequence, write trace/phase CSVs")
    run.add_argument("--seq", default="standard", help="standard, forward, or in-place")
    run.add_argument("--gains", default=None, help="config file (defaults used if omitted)")
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--out", default=".", help="output directory")
    run.add_argument(
        "--disturb",
        action="append",
        default=[],
        metavar="I@Ts:DIR",
        help="impulse schedule, e.g. 9.51@5s:front (repeatable)",
    )
    run.set_defaults(func=cmd_gait_run)

    opt = gait_sub.add_parser("optimize", help="optimize feedback gains on the sim/real pair")
    opt.add_argument("--gains", default=None, help="config file with the starting gains")
    opt.add_argument("--seed", type=int, default=0)
    opt.add_argument("--out", default=".")
    opt.add_argument("--max-real", type=int, default=15)
    opt.add_argument("--max-total", type=int, default=40)
    opt.add_argument("--sim-average", type=int, default=4)
    opt.add_argument("--sim-bias", type=float, default=1.15)
    opt.add_argument("--reg", type=float, default=0.02, help="gain regularization weight")
    opt.add_argument("--baseline", choices=["gp", "random"], default="gp")
    opt.set_defaults(func=cmd_gait_optimize)

    calib = sub.add_parser("calib", help="calibration fits")
    calib_sub = calib.add_subparsers(dest="calib_command", required=True)

    torque = calib_sub.add_parser("torque", help="fit K_T and offset from current_A,torque_Nm CSV")
    torque.add_argument("--input", required=True)
    torque.set_defaults(func=cmd_calib_torque)

    camera = calib_sub.add_parser("camera", help="fit extrinsics from X,Y,Z,u,v CSV")
    camera.add_argument("--input", required=True)
    camera.add_argument("--focal", type=float, required=True, help="focal length, px")
    camera.add_argument("--cx", type=float, required=True)
    camera.add_argument("--cy", type=float, required=True)
    camera.add_argument("--guess-pos", type=float, nargs=3, default=[0.0, 0.0, 0.0])
    camera.add_argument("--guess-rot", type=float, nargs=3, default=[0.0, 0.0, 0.0])
    camera.set_defaults(func=cmd_calib_camera)

    blob = sub.add_parser("blob", help="heatmap (PGM/CSV) to detections CSV")
    blob.add_argument("--input", action="append", required=True, help="repeatable, one per channel")
    blob.add_argument("--threshold", type=float, default=0.2)
    blob.add_argument("--min-pixels", type=int, default=1)
    blob.add_argument("--out", default="detections.csv")
    blob.set_defaults(func=cmd_blob)

    gear = sub.add_parser("gear", help="helical gear pitch diameter")
    gear.add_argument("--teeth", type=int, required=True)
    gear.add_argument("--module", type=float, required=True, help="gear module, mm")
    gear.add_argument("--helix-deg", type=float, default=0.0)
    gear.set_defaults(func=cmd_gear)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        return args.func(args)
    except (GaitlabError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
