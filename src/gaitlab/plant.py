"""Seeded surrogate of the torso attitude dynamics, and the closed-loop runner.

The plant is NOT a physics claim.  It is a deliberately simple pair of
decoupled damped-pendulum planes (fused pitch and fused roll) driven by a
phase-locked gait excitation, the corrective-action activations, impulse
disturbances, and seeded noise.  It exists so the feedback and optimizer
layers have a deterministic closed loop with the right interfaces and
qualitative signs; no quantitative match with any robot is attempted.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from . import _kernels
from .cpg import CpgParams, GaitCommand
from .errors import InvalidInputError, NonFiniteStateError, check_count, check_nonnegative
from .feedback import Activations, FeedbackGains, FilterParams
from .pose import LegGeometry

DT = 0.01  # closed-loop step, 100 Hz servo rate
FALL_THRESHOLD = 0.7  # rad
# the most steps one sequence segment may take (10^4 s at DT); a longer segment
# is rejected before any array is built, so a huge duration cannot exhaust memory
MAX_SEGMENT_STEPS = 1_000_000


def default_effectiveness() -> np.ndarray:
    """Per-plane acceleration per unit activation, shape (2, 6).

    Row 0 is the pitch plane (arm Y and CoM-shift X act there), row 1 the
    roll plane.  Signs are restoring: a positive activation produced by a
    positive deviation accelerates the torso back toward upright.
    """
    eff = np.zeros((2, 6))
    eff[0, 1] = -3.0  # arm angle Y, rad/s^2 per rad
    eff[0, 4] = -18.0  # CoM shift X, rad/s^2 per m
    eff[1, 0] = -2.0  # arm angle X
    eff[1, 2] = -2.5  # support foot angle X
    eff[1, 3] = -1.5  # continuous foot angle X
    eff[1, 5] = -18.0  # CoM shift Y
    return eff


@dataclass
class TorsoState:
    """Fused pitch/roll and their rates; frozen once the fall flag latches."""

    fused_pitch: float = 0.0
    fused_roll: float = 0.0
    pitch_rate: float = 0.0
    roll_rate: float = 0.0
    fallen: bool = False


@dataclass
class PlantParams:
    """Surrogate torso dynamics.

    The pitch plane is a slow pendulum (kick recovery and noise wander are
    what the sagittal feedback fights); the roll plane is faster and sits
    near the sway excitation frequency, so the lateral feedback mostly damps
    a resonance.
    """

    natural_freq_pitch: float = 1.2  # rad/s
    natural_freq_roll: float = 4.0  # rad/s
    damping: float = 0.4  # 1/s
    gait_coupling: float = 0.35  # rad/s^2 excitation amplitude
    action_effectiveness: np.ndarray = field(default_factory=default_effectiveness)
    noise_std: float = 0.06  # rad/s^2
    effective_inertia: float = 12.0  # kg*m, maps impulse to a rate kick
    fall_threshold: float = FALL_THRESHOLD
    seed: int = 0  # of the noise stream, an integer >= 0

    def __post_init__(self):
        self.action_effectiveness = np.asarray(self.action_effectiveness, dtype=float)
        if self.action_effectiveness.shape != (2, 6):
            raise InvalidInputError("action_effectiveness must have shape (2, 6)")
        if not np.all(np.isfinite(self.action_effectiveness)):
            raise InvalidInputError("action_effectiveness must be finite")
        check_nonnegative("natural_freq_pitch", self.natural_freq_pitch, positive=True)
        check_nonnegative("natural_freq_roll", self.natural_freq_roll, positive=True)
        check_nonnegative("damping", self.damping)
        check_nonnegative("gait_coupling", self.gait_coupling)
        check_nonnegative("noise_std", self.noise_std)
        check_nonnegative("effective_inertia", self.effective_inertia, positive=True)
        check_nonnegative("fall_threshold", self.fall_threshold, positive=True)
        check_count("seed", self.seed)


@dataclass
class Disturbance:
    """An impulse hitting the torso at a given time.

    A push timed after the end of a run never lands.
    """

    time: float  # s
    impulse: float  # kg*m/s
    direction: str  # front, back, left, right

    def __post_init__(self):
        check_nonnegative("disturbance time", self.time)
        check_nonnegative("disturbance impulse", self.impulse)
        if self.direction not in ("front", "back", "left", "right"):
            raise InvalidInputError(f"unknown disturbance direction {self.direction!r}")

    def rate_kick(self, effective_inertia: float) -> tuple[float, float]:
        """(pitch, roll) rate change.  A push from the front tips backward."""
        k = self.impulse / effective_inertia
        return {
            "front": (-k, 0.0),
            "back": (k, 0.0),
            "left": (0.0, -k),
            "right": (0.0, k),
        }[self.direction]


# the fixed sim-to-real gap: scales of the real plant's parameters over the sim's
REAL_NATURAL_FREQ_SCALE = 1.12
REAL_EFFECTIVENESS_SCALE = 0.85
REAL_COUPLING_SCALE = 1.2
REAL_NOISE_SCALE = 1.3
REAL_SEED_OFFSET = 10007


def make_real_plant(p: PlantParams) -> PlantParams:
    """The 'real' plant of the sim plant ``p``: ``p`` across the fixed gap above."""
    return replace(
        p,
        natural_freq_pitch=p.natural_freq_pitch * REAL_NATURAL_FREQ_SCALE,
        natural_freq_roll=p.natural_freq_roll * REAL_NATURAL_FREQ_SCALE,
        action_effectiveness=p.action_effectiveness * REAL_EFFECTIVENESS_SCALE,
        gait_coupling=p.gait_coupling * REAL_COUPLING_SCALE,
        noise_std=p.noise_std * REAL_NOISE_SCALE,
        seed=p.seed + REAL_SEED_OFFSET,
    )


def step_plant(
    s: TorsoState,
    excitation: tuple[float, float],
    activations: Activations,
    disturbance: Disturbance | None,
    p: PlantParams,
    dt: float,
    noise: tuple[float, float] = (0.0, 0.0),
) -> TorsoState:
    """Advance the torso one step with semi-implicit Euler.

    Fallen states are frozen.  ``noise`` is the per-plane acceleration noise
    sample for this step; run_sequence supplies the seeded stream.
    """
    if not 0.0 < dt <= 0.02:
        raise InvalidInputError("dt must be in (0, 0.02]")
    if s.fallen:
        return replace(s)

    pitch_rate = s.pitch_rate
    roll_rate = s.roll_rate
    if disturbance is not None:
        kp, kr = disturbance.rate_kick(p.effective_inertia)
        pitch_rate += kp
        roll_rate += kr

    floats = _kernels.float_tuple
    state, fallen = _kernels.plant_step(
        s.fused_pitch, s.fused_roll, pitch_rate, roll_rate, *map(float, excitation),
        floats(activations), floats(p), tuple(p.action_effectiveness.ravel().tolist()),
        *map(float, noise), dt,
    )
    return TorsoState(*state, fallen)


@dataclass
class RunTrace:
    """Closed-loop time series at uniform spacing dt.

    All arrays share the first dimension.  If the torso fell, the trace is
    truncated at the fall sample and ``fall`` is True.  The deviations fed
    back (``d_theta``, ``d_phi``) are the fused pitch and roll themselves.

    ``pose`` and ``saturations`` do not feed back into the run, so each is
    read out of ``mu``, ``cmds`` and ``activations`` the first time it is
    read, and kept: ``pose`` by ``_kernels.pose_readout``, the gait and
    action kernels mapped over the rows, and ``saturations`` from the
    NumPy retraction columns of ``_kernels.leg_retractions``, which never
    builds the pose.  A cost that reads neither never pays for them.
    """

    dt: float
    t: np.ndarray
    mu: np.ndarray
    pitch: np.ndarray
    roll: np.ndarray
    pitch_rate: np.ndarray
    roll_rate: np.ndarray
    e_p_alpha: np.ndarray
    e_p_beta: np.ndarray
    activations: np.ndarray
    cmds: np.ndarray  # (vx, vy, wz) commanded at each sample
    fall: bool
    pose_params: tuple  # (cpg, (thigh, shank)) float tuples that _kernels.pose_readout takes

    @cached_property
    def pose(self) -> np.ndarray:
        """(n, 18) abstract pose commanded at each sample."""
        return _kernels.pose_readout(self.mu, self.cmds, self.activations, *self.pose_params)

    @cached_property
    def saturations(self) -> int:
        """Number of samples whose retraction was clamped into [0, 1]."""
        saturated = _kernels.leg_retractions(self.mu, self.activations, *self.pose_params)[2]
        return int(np.count_nonzero(saturated))

    @cached_property
    def _csv_text(self) -> dict[str, list[str]]:
        """``%.12g`` text of each distinct trace.csv column, in that file's
        order, formatted once for both CSV writers: one ``%`` per column,
        parted by ``split`` since no value's text has whitespace."""
        return {
            name: (("%.12g\n" * len(self)) % tuple(getattr(self, name).tolist())).split()
            for name in ("t", "mu", "pitch", "roll", "pitch_rate", "roll_rate")
        }

    def __len__(self) -> int:
        return self.t.shape[0]

    @property
    def d_theta(self) -> np.ndarray:
        return self.pitch

    @property
    def d_phi(self) -> np.ndarray:
        return self.roll

    @property
    def fall_time(self) -> float | None:
        return float(self.t[-1]) if self.fall else None

    def ep_integrals(self) -> tuple[float, float]:
        """Trapezoidal integral of |e_P| over the run, (alpha, beta) plane."""
        return _ep_integrals(self.e_p_alpha, self.e_p_beta, self.dt)


def _ep_integrals(e_p_alpha, e_p_beta, dt: float) -> tuple[float, float]:
    return tuple(float(np.trapezoid(np.abs(e), dx=dt)) for e in (e_p_alpha, e_p_beta))


def standard_test_sequence() -> list[tuple[GaitCommand, float]]:
    """The fixed command sequence used for cost evaluation.

    Forward walk, omni-directional turns left and right, sideways walk, a
    turn in place, and a backward walk.
    """
    return [
        (GaitCommand(vx=0.7), 4.0),
        (GaitCommand(vx=0.4, wz=0.5), 3.0),
        (GaitCommand(vx=0.4, wz=-0.5), 3.0),
        (GaitCommand(vy=0.6), 3.0),
        (GaitCommand(wz=0.7), 3.0),
        (GaitCommand(vx=-0.5), 4.0),
    ]


def _segment_commands(seq, dt: float) -> np.ndarray:
    total = sum(d for _, d in seq)
    if total <= 0:
        raise InvalidInputError("total sequence duration must be > 0")
    steps = []
    for i, (_, duration) in enumerate(seq):
        check_nonnegative(f"segment {i} duration", duration, positive=True)
        n = int(round(duration / dt))
        if n == 0:
            raise InvalidInputError(f"segment {i} duration {duration} s rounds to 0 steps of {dt} s")
        if n > MAX_SEGMENT_STEPS:
            raise InvalidInputError(
                f"segment {i} duration {duration} s exceeds {MAX_SEGMENT_STEPS} steps of {dt} s"
            )
        steps.append(n)
    return np.concatenate(
        [np.tile([cmd.vx, cmd.vy, cmd.wz], (n, 1)) for (cmd, _), n in zip(seq, steps)], axis=0
    )


def _loop_args(gains, cpg, seq, p, disturbances, filter_params) -> tuple:
    """``run_closed_loop``'s arguments for one run.

    The commands, the seeded noise, the pushes as ``(step, kick)`` pairs and
    the parameters as float tuples.
    """
    filter_params = filter_params or FilterParams()
    cmds = _segment_commands(seq, DT)
    n = cmds.shape[0]

    rng = np.random.default_rng(p.seed)
    noise = rng.normal(0.0, p.noise_std, size=(n, 2)) if p.noise_std > 0 else np.zeros((n, 2))

    pushes = [(round(d.time / DT), d.rate_kick(p.effective_inertia)) for d in disturbances]

    floats = _kernels.float_tuple
    return (cmds, noise, pushes, floats(cpg), floats(gains), floats(filter_params), floats(p),
            tuple(p.action_effectiveness.ravel().tolist()), DT)


def run_sequence(
    gains: FeedbackGains,
    cpg: CpgParams,
    seq: list[tuple[GaitCommand, float]],
    p: PlantParams,
    disturbances: list[Disturbance] = (),
    filter_params: FilterParams | None = None,
) -> RunTrace:
    """Run the closed loop (CPG + corrective actions + plant) at dt = 0.01 s.

    Deterministic: identical arguments and seed give bit-identical traces.
    A segment may last at most MAX_SEGMENT_STEPS steps.
    Raises NonFiniteStateError if the plant state turns NaN or infinite,
    which parameters that pass validation can still cause.
    """
    args = _loop_args(gains, cpg, seq, p, disturbances, filter_params)
    cmds, cpg_floats = args[0], args[3]
    n = cmds.shape[0]
    mu_out, state, _, ep, act, _, fall_idx, _, end_state = _kernels.run_closed_loop(*args)

    fell = fall_idx >= 0
    end = fall_idx + 1 if fell else n
    # the state after the last step too: an overflow to inf in one step reads as a fall
    finite = np.isfinite(np.vstack([state[:end], end_state])).all(axis=1)
    if not finite.all():
        bad = int(np.argmin(finite))
        raise NonFiniteStateError(
            f"plant state is not finite from t={bad * DT:.2f} s (sample {bad}); "
            "check the plant and gain parameters"
        )
    t = np.arange(end) * DT
    return RunTrace(
        dt=DT,
        t=t,
        mu=mu_out[:end],
        pitch=state[:end, 0],
        roll=state[:end, 1],
        pitch_rate=state[:end, 2],
        roll_rate=state[:end, 3],
        e_p_alpha=ep[:end, 0],
        e_p_beta=ep[:end, 1],
        activations=act[:end],
        cmds=cmds[:end],
        fall=fell,
        pose_params=(cpg_floats, _kernels.float_tuple(LegGeometry())),
    )


def _run_ep_integrals(
    gains: FeedbackGains,
    cpg: CpgParams,
    seq: list[tuple[GaitCommand, float]],
    p: PlantParams,
    disturbances: list[Disturbance] = (),
    filter_params: FilterParams | None = None,
) -> tuple[tuple[float, float], bool]:
    """``run_sequence(...).ep_integrals()`` and ``.fall``, recording only e_P.

    The cost path of the optimizer's runs: the loop skips the phase, state
    and activation rows.  A NaN state stays NaN and an infinite angle ends
    the run as a fall on the step it appears, so a non-finite state anywhere
    leaves a non-finite end state; then ``run_sequence`` runs the same loop
    with recording and raises its NonFiniteStateError, naming the first bad
    sample.
    """
    args = _loop_args(gains, cpg, seq, p, disturbances, filter_params)
    out = _kernels.run_closed_loop(*args, record=False)
    ep, fall_idx, end_state = out[3], out[6], out[8]
    if not all(map(math.isfinite, end_state)):
        # raises: its finiteness check includes this same end state
        run_sequence(gains, cpg, seq, p, disturbances, filter_params)
    fell = fall_idx >= 0
    end = fall_idx + 1 if fell else ep.shape[0]
    return _ep_integrals(ep[:end, 0], ep[:end, 1], DT), fell


def phase_plot_series(trace: RunTrace) -> np.ndarray:
    """(fused pitch, fused pitch rate) pairs straight from the plant state."""
    if len(trace) == 0:
        raise InvalidInputError("trace is empty")
    return np.column_stack([trace.pitch, trace.pitch_rate])


def trace_to_csv(trace: RunTrace, path) -> None:
    """Write the trace in the documented CSV schema, each value as ``%.12g``.

    ``d_theta`` and ``d_phi`` are the fused pitch and roll, so they reuse
    that text; the bytes are those of ``np.savetxt(path, data, fmt="%.12g",
    delimiter=",", header=header, comments="")``.
    """
    text = trace._csv_text  # t, mu, pitch, roll, pitch_rate, roll_rate in this order
    fall = ["0"] * len(trace)
    if trace.fall:
        fall[-1] = "1"
    rows = map(",".join, zip(*text.values(), text["pitch"], text["roll"], fall))
    header = "t,mu,pitch,roll,pitch_rate,roll_rate,d_theta,d_phi,fall"
    with open(path, "w") as fh:
        fh.write("\n".join([header, *rows]) + "\n")


def phase_plot_to_csv(trace: RunTrace, path) -> None:
    """Write ``phase_plot_series`` as CSV, in the text of trace.csv's
    ``pitch`` and ``pitch_rate`` columns."""
    phase_plot_series(trace)  # raises on an empty trace
    text = trace._csv_text
    rows = map(",".join, zip(text["pitch"], text["pitch_rate"]))
    with open(path, "w") as fh:
        fh.write("\n".join(["fused_pitch,fused_pitch_rate", *rows]) + "\n")
