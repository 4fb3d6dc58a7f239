import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gaitlab import _kernels, config
from gaitlab.bayesopt import GainProblem, default_disturbance_schedule
from gaitlab.cpg import CpgParams, GaitCommand, evaluate_cpg, step_phase
from gaitlab.errors import GaitlabError, InvalidInputError, NonFiniteStateError
from gaitlab.feedback import (
    Activations,
    DeviationFilters,
    FeedbackGains,
    FilterParams,
    IGain,
    PdGains,
    apply_actions,
    compute_activations,
    zero_gains,
)
from gaitlab.plant import (
    DT,
    MAX_SEGMENT_STEPS,
    REAL_NATURAL_FREQ_SCALE,
    Disturbance,
    PlantParams,
    RunTrace,
    TorsoState,
    make_real_plant,
    phase_plot_series,
    phase_plot_to_csv,
    run_sequence,
    standard_test_sequence,
    step_plant,
    trace_to_csv,
    _loop_args,
    _segment_commands,
)
from gaitlab.pose import LegGeometry


def quiet_plant(**kwargs):
    defaults = dict(noise_std=0.0, gait_coupling=0.0, seed=0)
    defaults.update(kwargs)
    return PlantParams(**defaults)


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(natural_freq_pitch=0.0),
        dict(natural_freq_roll=-4.0),
        dict(natural_freq_pitch=math.nan),
        dict(natural_freq_roll=math.inf),
        dict(fall_threshold=-0.5),
        dict(fall_threshold=0.0),
        dict(fall_threshold=math.inf),
        dict(gait_coupling=-0.1),
        dict(gait_coupling=math.nan),
        dict(damping=math.nan),
        dict(noise_std=math.inf),
        dict(effective_inertia=math.nan),
        dict(action_effectiveness=np.full((2, 6), math.nan)),
    ],
)
def test_plant_params_reject_out_of_range(kwargs):
    with pytest.raises(InvalidInputError):
        PlantParams(**kwargs)


@pytest.mark.parametrize(
    "duration", [-1.0, 0.0, math.nan, math.inf, 0.004, 1e300, (MAX_SEGMENT_STEPS + 1) * DT]
)
def test_bad_segment_duration_rejected(duration):
    seq = [(GaitCommand(vx=0.5), 2.0), (GaitCommand(), duration)]
    with pytest.raises(InvalidInputError, match="segment 1 duration"):
        run_sequence(zero_gains(), CpgParams(), seq, quiet_plant())


def test_segment_at_the_step_bound_is_accepted():
    cmds = _segment_commands([(GaitCommand(vx=0.5), MAX_SEGMENT_STEPS * DT)], DT)
    assert cmds.shape == (MAX_SEGMENT_STEPS, 3)


@pytest.mark.parametrize(
    "time, impulse, field",
    [
        (5.0, math.inf, "impulse"),
        (5.0, math.nan, "impulse"),
        (5.0, -1.0, "impulse"),
        (math.inf, 5.0, "time"),
        (math.nan, 5.0, "time"),
        (-3.0, 5.0, "time"),
    ],
)
def test_disturbance_rejects_bad_push(time, impulse, field):
    with pytest.raises(InvalidInputError, match=f"disturbance {field} must be finite"):
        Disturbance(time, impulse, "front")


def test_push_after_the_run_ends_never_lands():
    seq = [(GaitCommand(vx=0.5), 2.0)]
    landing = Disturbance(1.0, 9.0, "left")
    without = run_sequence(FeedbackGains(), CpgParams(), seq, PlantParams(seed=2), [landing])
    # 1.996 s is step 200, the first past a 2 s run; 1e300 s / DT does not fit an int64
    for late_time in (1.996, 60.0, 1e300):
        late = run_sequence(FeedbackGains(), CpgParams(), seq, PlantParams(seed=2),
                            [Disturbance(late_time, 9.0, "front"), landing])
        assert len(late) == 200 and late.fall == without.fall
        for name in ("t", "mu", "pitch", "roll", "pitch_rate", "roll_rate", "e_p_alpha",
                     "e_p_beta", "activations", "cmds", "pose"):
            assert np.array_equal(getattr(late, name), getattr(without, name)), (late_time, name)


def test_non_finite_state_is_an_error_naming_the_sample_time():
    # passes validation, but wn^2 overflows and the first step turns NaN
    p = PlantParams(natural_freq_pitch=1e200)
    with pytest.raises(NonFiniteStateError, match=r"not finite from t=0\.01 s") as info:
        run_sequence(FeedbackGains(), CpgParams(), [(GaitCommand(vx=0.7), 10.0)], p)
    assert isinstance(info.value, GaitlabError)


def test_deviation_columns_are_the_fused_angles():
    trace = run_sequence(FeedbackGains(), CpgParams(), standard_test_sequence(),
                         PlantParams(seed=2), [Disturbance(4.0, 9.0, "left")])
    assert np.array_equal(trace.d_theta, trace.pitch)
    assert np.array_equal(trace.d_phi, trace.roll)
    with pytest.raises(AttributeError):
        trace.d_theta = trace.roll


def test_upright_equilibrium_is_exact():
    p = quiet_plant()
    s = TorsoState()
    for _ in range(500):
        s = step_plant(s, (0.0, 0.0), Activations(), None, p, 0.01)
    assert s.fused_pitch == 0.0 and s.fused_roll == 0.0
    assert not s.fallen


def test_dt_precondition():
    with pytest.raises(InvalidInputError):
        step_plant(TorsoState(), (0, 0), Activations(), None, quiet_plant(), 0.05)


def test_large_impulse_fells_unstabilized_plant_within_two_seconds():
    seq = [(GaitCommand(), 4.0)]
    # threshold impulse is found by running the seeded plant, not asserted a priori
    felling = None
    for impulse in (10.0, 20.0, 30.0, 40.0, 60.0):
        trace = run_sequence(
            zero_gains(), CpgParams(), seq, PlantParams(seed=0),
            [Disturbance(1.0, impulse, "front")],
        )
        if trace.fall:
            felling = impulse
            break
    assert felling is not None
    trace = run_sequence(
        zero_gains(), CpgParams(), seq, PlantParams(seed=0),
        [Disturbance(1.0, felling, "front")],
    )
    assert trace.fall and trace.t[-1] <= 1.0 + 2.0


def test_identical_seeds_give_bit_identical_traces():
    args = (FeedbackGains(), CpgParams(), standard_test_sequence(), PlantParams(seed=77))
    a = run_sequence(*args, [Disturbance(5.0, 9.51, "front")])
    b = run_sequence(*args, [Disturbance(5.0, 9.51, "front")])
    for field in ("mu", "pitch", "roll", "pitch_rate", "roll_rate", "e_p_alpha", "activations", "pose"):
        assert np.array_equal(getattr(a, field), getattr(b, field))


def test_pendulum_energy_dissipates_after_kick():
    p = quiet_plant(damping=0.4)
    s = TorsoState()
    s = step_plant(s, (0.0, 0.0), Activations(), Disturbance(0.0, 6.0, "back"), p, 0.01)
    wn_p, wn_r = p.natural_freq_pitch, p.natural_freq_roll

    def energy(st):
        return (
            0.5 * st.pitch_rate**2
            + wn_p**2 * (1 - math.cos(st.fused_pitch))
            + 0.5 * st.roll_rate**2
            + wn_r**2 * (1 - math.cos(st.fused_roll))
        )

    prev = energy(s)
    for i in range(2000):
        s = step_plant(s, (0.0, 0.0), Activations(), None, p, 0.01)
        if i % 50 == 49:
            now = energy(s)
            assert now <= prev + 1e-12
            prev = now


def test_fall_latches_and_truncates():
    seq = [(GaitCommand(), 6.0)]
    trace = run_sequence(
        zero_gains(), CpgParams(), seq, PlantParams(seed=1),
        [Disturbance(1.0, 60.0, "back")],
    )
    assert trace.fall
    assert len(trace) < 600
    assert trace.fall_time == pytest.approx(trace.t[-1])
    # a fallen state passed to step_plant stays frozen
    s = TorsoState(0.8, 0.0, 1.0, 0.0, fallen=True)
    s2 = step_plant(s, (0.0, 0.0), Activations(), None, quiet_plant(), 0.01)
    assert (s2.fused_pitch, s2.fused_roll, s2.pitch_rate, s2.roll_rate) == (0.8, 0.0, 1.0, 0.0)
    assert s2.fallen


def test_sequence_duration_matches_segments():
    seq = standard_test_sequence()
    trace = run_sequence(zero_gains(), CpgParams(), seq, quiet_plant())
    total = sum(d for _, d in seq)
    assert abs(trace.t[-1] + trace.dt - total) <= trace.dt + 1e-12
    assert len(trace.e_p_alpha) == len(trace.e_p_beta) == len(trace)


def test_quiet_zero_gain_run_has_zero_feedback_floor():
    trace = run_sequence(zero_gains(), CpgParams(), [(GaitCommand(), 5.0)], quiet_plant())
    assert np.all(trace.e_p_alpha == 0.0)
    assert np.all(trace.e_p_beta == 0.0)
    assert not trace.fall


def test_default_gains_beat_zero_gains_on_standard_sequence():
    for seed in (0, 1, 2):
        dist = [Disturbance(10.0, 9.51, "front")]
        args = (CpgParams(), standard_test_sequence(), PlantParams(seed=seed))
        with_fb = run_sequence(FeedbackGains(), *args, dist)
        without = run_sequence(zero_gains(), *args, dist)
        int_with = np.trapezoid(np.abs(with_fb.e_p_alpha), dx=with_fb.dt)
        int_without = np.trapezoid(np.abs(without.e_p_alpha), dx=without.dt)
        assert int_with < int_without
        assert not with_fb.fall


def test_zero_gain_closed_loop_is_bit_identical_to_open_loop():
    cpg = CpgParams()
    trace = run_sequence(zero_gains(), cpg, standard_test_sequence(), PlantParams(seed=5))
    assert np.all(trace.activations[:, :6] == 0.0)
    assert np.all(trace.activations[:, 6] == 1.0)
    cmds = np.array([0.7, 0.0, 0.0])
    for i in (0, 100, 399):
        open_pose = evaluate_cpg(trace.mu[i], GaitCommand(*cmds), cpg).to_array()
        assert np.array_equal(trace.pose[i], open_pose)


def replay_with_public_helpers(gains, cpg, seq, p, pushes):
    """Run the closed loop with ``run_sequence`` and again by hand through the
    public step helpers; every recorded row must agree bit for bit."""
    trace = run_sequence(gains, cpg, seq, p, pushes)

    cmds = [cmd for cmd, duration in seq for _ in range(int(round(duration / DT)))]
    noise = np.random.default_rng(p.seed).normal(0.0, p.noise_std, (len(cmds), 2))
    push_at = {int(round(d.time / DT)): d for d in pushes}
    geom = LegGeometry()
    filters = DeviationFilters(FilterParams())
    mu, s = 0.0, TorsoState()
    mus, states, eps, acts, poses = [], [], [], [], []
    saturations = 0
    for i, cmd in enumerate(cmds):
        sign = -1 if mu > 0.0 else 1
        mus.append(mu)
        states.append((s.fused_pitch, s.fused_roll, s.pitch_rate, s.roll_rate))
        pitch_terms, roll_terms = filters.update(s.fused_pitch, s.fused_roll, DT)
        eps.append((pitch_terms.p, roll_terms.p))
        act = compute_activations(pitch_terms, roll_terms, gains, sign)
        acts.append(act.to_array())
        pose, saturated = apply_actions(evaluate_cpg(mu, cmd, cpg), act, sign, geom, cpg.halt_eta)
        poses.append(pose.to_array())
        saturations += saturated
        exc = _kernels.gait_excitation(mu, cmd.vx, cmd.vy, cmd.wz, p.gait_coupling)
        s = step_plant(s, exc, act, push_at.get(i), p, DT, tuple(noise[i]))
        if s.fallen:
            break
        mu = step_phase(mu, DT, cpg.frequency, act.timing_factor)

    assert s.fallen == trace.fall and len(mus) == len(trace)
    assert np.array_equal(trace.mu, mus)
    assert np.array_equal(
        np.column_stack([trace.pitch, trace.roll, trace.pitch_rate, trace.roll_rate]), states
    )
    assert np.array_equal(np.column_stack([trace.e_p_alpha, trace.e_p_beta]), eps)
    assert np.array_equal(trace.activations, acts)
    assert np.array_equal(trace.pose, poses)
    assert trace.saturations == saturations
    return trace


@pytest.mark.parametrize("cpg", [CpgParams(lift_amplitude=0.95),
                                 CpgParams(lift_amplitude=0.95, halt_eta=0.35)],
                         ids=["default-halt", "halt-0.35"])
def test_public_step_helpers_reproduce_run_sequence_bitwise(cpg):
    # nonzero CoM-shift I-gains run the IK branch, the lift pulse saturates the
    # swing-leg retraction, and the second push fells the torso; a halt
    # retraction off the default moves the CoM shift's halt reference too
    gains = FeedbackGains(com_shift_x=IGain(ki=0.3), com_shift_y=IGain(ki=0.2))
    pushes = [Disturbance(4.0, 9.0, "left"), Disturbance(11.0, 30.0, "back")]
    trace = replay_with_public_helpers(
        gains, cpg, standard_test_sequence(), PlantParams(seed=4), pushes
    )
    assert trace.fall and trace.saturations > 0 and np.any(trace.activations[:, 4:6] != 0.0)


@pytest.mark.parametrize("seed, falls", [(0, False), (1, False), (5, True), (6, True)])
def test_public_step_helpers_reproduce_run_sequence_on_random_gains(seed, falls):
    # every gain scaled by its own factor in [0, 3), and one push of random size
    rng = np.random.default_rng(seed)
    defaults = FeedbackGains()
    scaled = {key: value * rng.uniform(0.0, 3.0) for key, value in config.flatten(defaults).items()}
    gains = config.rebuild(defaults, scaled)
    push = Disturbance(rng.uniform(1.0, 18.0), rng.uniform(0.0, 30.0), "back")
    trace = replay_with_public_helpers(
        gains, CpgParams(), standard_test_sequence(), PlantParams(seed=seed), [push]
    )
    assert trace.fall == falls


def test_public_step_helpers_reproduce_run_sequence_on_random_commands():
    # the loop takes each row's excitation amplitudes from the commands in
    # NumPy before its first step; gait_excitation computes them per step
    rng = np.random.default_rng(8)
    seq = [(GaitCommand(*rng.uniform(-1.0, 1.0, 3)), 0.25) for _ in range(40)]
    replay_with_public_helpers(FeedbackGains(), CpgParams(), seq, PlantParams(seed=8), [])


@pytest.mark.parametrize(
    "x, push_at_start",
    [(None, False), ((0.0, 0.0), False), ((6.0, 4.0), False), (None, True)],
    ids=["default", "low-corner", "high-corner", "push-at-t0"],
)
def test_public_step_helpers_reproduce_the_optimizers_real_runs(x, push_at_start):
    # the runs GainProblem evaluates: its real plant and push schedule, at the
    # default gains and both corners of the tuned arm_angle_y range
    sim = PlantParams(seed=0)
    problem = GainProblem(sim_plant=sim, real_plant=make_real_plant(sim))
    pushes = default_disturbance_schedule() + ([Disturbance(0.0, 6.0, "right")] if push_at_start else [])
    trace = replay_with_public_helpers(
        problem.gains_with(problem.default_x() if x is None else x), problem.cpg,
        problem.sequence, replace(problem.real_plant, seed=7), pushes,
    )
    assert not push_at_start or trace.roll_rate[1] > 0.0


def test_pose_readout_matches_the_public_helpers_on_any_sample():
    # phases on the wrap boundaries, and CoM shifts far larger than a run's
    # that take the IK branch to its rounding edges and clamp retractions
    rng = np.random.default_rng(3)
    n = 400
    mu = rng.uniform(-math.pi, math.pi, n)
    mu[:4] = [math.pi, 0.0, -0.0, 0.5 * math.pi]
    cmds = rng.uniform(-1.0, 1.0, (n, 3))  # GaitCommand clamps to [-1, 1]
    act = rng.normal(0.0, 0.1, (n, 7))
    act[:, 6] = 1.0  # the timing factor: the pose does not read it
    cpg = CpgParams(lift_amplitude=0.95, halt_eta=0.2, halt_arm_eta=0.3)
    geom = LegGeometry()
    params = (_kernels.float_tuple(cpg), _kernels.float_tuple(geom))
    pose = _kernels.pose_readout(mu, cmds, act, *params)
    saturations = np.count_nonzero(_kernels.leg_retractions(mu, act, *params)[2])
    want, want_saturations = [], 0
    for m, cmd, a in zip(mu, cmds, act):
        out, saturated = apply_actions(evaluate_cpg(m, GaitCommand(*cmd), cpg), Activations(*a),
                                       -1 if m > 0.0 else 1, geom, cpg.halt_eta)
        want.append(out.to_array())
        want_saturations += saturated
    assert np.array_equal(pose, want) and saturations == want_saturations > 0


_GEOM = LegGeometry()


def _ik_edge(halt_eta):
    """The CoM-shift radius at which the knee's cosine argument reaches 1."""
    dist = _kernels.com_shift_reference((_GEOM.thigh, _GEOM.shank, halt_eta))[2]
    return math.sqrt(max((_GEOM.thigh + _GEOM.shank) ** 2 - dist * dist, 0.0))


_IK_EDGE = {halt_eta: _ik_edge(halt_eta) for halt_eta in (0.0, 0.1, 0.5, 1.0)}
_SWING_START, _SWING_LEN = _kernels.swing_window(_kernels.float_tuple(CpgParams()))


@st.composite
def retraction_sample(draw, halt_eta):
    """(mu, com_x, com_y): phases on the wrap and swing-window edges, and CoM
    shifts of zero, of any size, and around the IK clamp edge."""
    mu = draw(st.sampled_from([math.pi, -math.pi, 0.0, -0.0, _SWING_START,
                               _SWING_START + _SWING_LEN, _SWING_START - math.pi])
              | st.floats(-math.pi, math.pi))
    edge = _IK_EDGE[halt_eta]
    radius = draw(st.sampled_from([0.0, edge])
                  | st.integers(-8, 8).map(lambda k: edge * (1.0 + k * 2.0 ** -52))
                  | st.floats(0.0, 2.0 * (_GEOM.thigh + _GEOM.shank)))
    angle = draw(st.sampled_from([0.0, 0.5 * math.pi, math.pi, -0.5 * math.pi])
                 | st.floats(-math.pi, math.pi))
    return mu, radius * math.cos(angle), radius * math.sin(angle)


@st.composite
def retraction_case(draw):
    halt_eta = draw(st.sampled_from(sorted(_IK_EDGE)))
    lift = draw(st.sampled_from([0.0, 0.08, 0.95]) | st.floats(0.0, 2.0))
    return halt_eta, lift, draw(st.lists(retraction_sample(halt_eta), min_size=1, max_size=30))


@settings(derandomize=True, max_examples=200, deadline=None)
@given(retraction_case())
def test_leg_retractions_match_apply_actions_on_any_sample(case):
    halt_eta, lift, samples = case
    cpg = CpgParams(lift_amplitude=lift, halt_eta=halt_eta)
    mu = np.array([m for m, _, _ in samples])
    act = np.zeros((len(samples), _kernels.ACT_SIZE))
    act[:, 4:6] = [(com_x, com_y) for _, com_x, com_y in samples]
    act[:, 6] = 1.0
    eta_l, eta_r, saturated = _kernels.leg_retractions(
        mu, act, _kernels.float_tuple(cpg), _kernels.float_tuple(_GEOM),
    )
    want_l, want_r, want_saturated = [], [], []
    for m, a in zip(mu.tolist(), act):
        pose, flag = apply_actions(evaluate_cpg(m, GaitCommand(), cpg), Activations(*a),
                                   -1 if m > 0.0 else 1, _GEOM, halt_eta)
        want_l.append(pose.left_leg.eta)
        want_r.append(pose.right_leg.eta)
        want_saturated.append(flag)
    assert eta_l.tobytes() == np.array(want_l).tobytes()
    assert eta_r.tobytes() == np.array(want_r).tobytes()
    assert saturated.tolist() == want_saturated


def test_saturations_never_build_the_pose(monkeypatch):
    # default gains shift the CoM on nearly every row, and the lift saturates
    trace = run_sequence(FeedbackGains(), CpgParams(lift_amplitude=0.95), standard_test_sequence(),
                         PlantParams(seed=4), [Disturbance(4.0, 9.0, "left")])

    def fail(*args):
        raise AssertionError("reading the saturation count built the pose")

    monkeypatch.setattr(_kernels, "pose_readout", fail)
    monkeypatch.setattr(_kernels, "foot_ik_core", fail)
    saturations = trace.saturations
    monkeypatch.undo()
    assert np.count_nonzero(trace.activations[:, 4:6]) > 0
    geom, cpg = LegGeometry(), CpgParams(lift_amplitude=0.95)
    want = sum(apply_actions(evaluate_cpg(m, GaitCommand(*cmd), cpg), Activations(*a),
                             -1 if m > 0.0 else 1, geom, cpg.halt_eta)[1]
               for m, cmd, a in zip(trace.mu.tolist(), trace.cmds.tolist(), trace.activations))
    assert saturations == want > 0


def test_phase_plot_series():
    trace = run_sequence(zero_gains(), CpgParams(), [(GaitCommand(), 2.0)], quiet_plant())
    series = phase_plot_series(trace)
    assert series.shape == (len(trace), 2)
    assert np.all(series == 0.0)  # stationary upright trace sits at the origin
    with pytest.raises(InvalidInputError):
        phase_plot_series(replace(trace, t=np.empty(0)))


def test_phase_plot_of_sinusoid_is_an_ellipse():
    t = np.arange(0, 4.0, 0.01)
    amp, omega = 0.2, 3.0
    trace = run_sequence(zero_gains(), CpgParams(), [(GaitCommand(), 4.0)], quiet_plant())
    synthetic = replace(
        trace,
        pitch=amp * np.sin(omega * t),
        pitch_rate=amp * omega * np.cos(omega * t),
    )
    series = phase_plot_series(synthetic)
    assert series[:, 0].max() == pytest.approx(amp, rel=1e-2)
    assert series[:, 1].max() == pytest.approx(amp * omega, rel=1e-2)


def test_make_real_plant_gap():
    base = PlantParams(seed=3)
    real = make_real_plant(base)
    real2 = make_real_plant(base)
    assert _kernels.float_tuple(real) == _kernels.float_tuple(real2)  # deterministic perturbation
    assert real.natural_freq_pitch == base.natural_freq_pitch * REAL_NATURAL_FREQ_SCALE
    assert real.natural_freq_roll == base.natural_freq_roll * REAL_NATURAL_FREQ_SCALE

    seq = standard_test_sequence()
    cost_sim = np.trapezoid(
        np.abs(run_sequence(FeedbackGains(), CpgParams(), seq, base).e_p_alpha), dx=0.01
    )
    cost_real = np.trapezoid(
        np.abs(run_sequence(FeedbackGains(), CpgParams(), seq, real).e_p_alpha), dx=0.01
    )
    assert cost_sim != cost_real


def test_disturbance_directions():
    p = quiet_plant()
    for direction, plane, sign in (
        ("front", "pitch_rate", -1),
        ("back", "pitch_rate", 1),
        ("left", "roll_rate", -1),
        ("right", "roll_rate", 1),
    ):
        s = step_plant(TorsoState(), (0, 0), Activations(), Disturbance(0.0, 6.0, direction), p, 0.01)
        assert sign * getattr(s, plane) > 0
    with pytest.raises(InvalidInputError):
        Disturbance(0.0, 1.0, "up")


def test_trace_csv_schema(tmp_path):
    trace = run_sequence(zero_gains(), CpgParams(), [(GaitCommand(), 1.0)], quiet_plant())
    path = tmp_path / "trace.csv"
    trace_to_csv(trace, path)
    header = path.read_text().splitlines()[0]
    assert header == "t,mu,pitch,roll,pitch_rate,roll_rate,d_theta,d_phi,fall"
    data = np.loadtxt(path, delimiter=",", skiprows=1)
    assert data.shape == (100, 9)


AWKWARD = (-0.0, 5e-324, 1e-300, 1e16, 0.1 + 0.2, 123456789012.5)


def hand_built_trace(columns, fall):
    """A RunTrace whose t, mu, pitch, roll, pitch_rate and roll_rate are ``columns``."""
    n = len(columns[0])
    return RunTrace(DT, *map(np.array, columns), np.zeros(n), np.zeros(n),
                    np.zeros((n, _kernels.ACT_SIZE)), np.zeros((n, 3)), fall, ())


@pytest.mark.parametrize("columns, fall", [
    # each column a different rotation of the awkward values, negated in every other one
    ([np.roll(AWKWARD, k) * (-1.0) ** k for k in range(6)], False),
    ([np.roll(AWKWARD, k) * (-1.0) ** k for k in range(6)], True),
    ([[4.13], [-3.0], [0.61], [1e-300], [-5e-324], [123456789012.5]], True),
], ids=["awkward", "awkward-fallen", "one-row-fallen"])
def test_csv_writers_write_the_bytes_of_savetxt(tmp_path, columns, fall):
    trace = hand_built_trace(columns, fall)
    fall_col = np.zeros(len(trace))
    fall_col[-1] = fall
    for writer, header, data in [
        (trace_to_csv, "t,mu,pitch,roll,pitch_rate,roll_rate,d_theta,d_phi,fall",
         np.column_stack([*columns, trace.d_theta, trace.d_phi, fall_col])),
        (phase_plot_to_csv, "fused_pitch,fused_pitch_rate", phase_plot_series(trace)),
    ]:
        writer(trace, tmp_path / "got.csv")
        np.savetxt(tmp_path / "want.csv", data, fmt="%.12g", delimiter=",", header=header,
                   comments="")
        assert (tmp_path / "got.csv").read_bytes() == (tmp_path / "want.csv").read_bytes()


def test_phase_csv_of_an_empty_trace_is_an_error(tmp_path):
    with pytest.raises(InvalidInputError):
        phase_plot_to_csv(hand_built_trace([[]] * 6, False), tmp_path / "phase.csv")
    assert not (tmp_path / "phase.csv").exists()


def test_one_step_overflow_to_inf_is_an_error_not_a_fall(monkeypatch):
    gains = FeedbackGains(arm_angle_y=PdGains(kp=1e300))
    seq = [(GaitCommand(vx=0.7), 2.0)]
    # a huge but finite state still counts as a fall at the usual threshold
    trace = run_sequence(gains, CpgParams(), seq, PlantParams())
    assert trace.fall and np.isfinite(trace.pitch).all()
    # out of the threshold's reach the state grows until one step takes it to
    # inf; the loop ends that step as a fall with every recorded row finite
    runs = []
    loop = _kernels.run_closed_loop
    monkeypatch.setattr(_kernels, "run_closed_loop", lambda *a: runs.append(loop(*a)) or runs[-1])
    with pytest.raises(NonFiniteStateError, match=r"t=0\.49 s \(sample 49\)"):
        run_sequence(gains, CpgParams(), seq, PlantParams(fall_threshold=1e300))
    state, fall_idx, end = runs[0][1], runs[0][6], runs[0][8]
    assert fall_idx == 48 and np.isfinite(state[:49]).all() and math.isinf(end[0])


# the kernels perfbench/tracer.py wraps: Tracer.install fails on a missing one
TRACED_KERNELS = ("cpg_pose", "filters_step", "activations_from", "apply_actions_flat",
                  "plant_accels", "gait_excitation", "wrap_pi", "foot_ik_core", "run_closed_loop")


@pytest.mark.parametrize("pushes", [[], [Disturbance(11.0, 30.0, "back")]], ids=["upright", "falls"])
def test_loop_result_keeps_the_slots_the_benchmark_tracer_reads(monkeypatch, pushes):
    # the tracer counts steps from the cmds of the first argument and reads the
    # result by position: fall_idx from slot 6, the saturation slot 7
    assert all(callable(getattr(_kernels, name)) for name in TRACED_KERNELS)
    runs = []
    loop = _kernels.run_closed_loop
    monkeypatch.setattr(
        _kernels, "run_closed_loop", lambda *a: runs.append((a, loop(*a))) or runs[-1][1]
    )

    p = PlantParams(seed=4)
    trace = run_sequence(FeedbackGains(), CpgParams(), standard_test_sequence(), p, pushes)
    (args, out), = runs
    steps = len(trace)
    assert args[0].shape == (2000, 3) and len(out) == 9 and out[7] == 0
    assert out[6] == (steps - 1 if trace.fall else -1) and trace.fall == bool(pushes)
    end = out[8]
    assert len(end) == 4 and (max(abs(end[0]), abs(end[1])) > p.fall_threshold) == trace.fall


@pytest.mark.parametrize("gains, p, pushes, fall_idx", [
    (FeedbackGains(), PlantParams(seed=4), [], -1),
    (FeedbackGains(), PlantParams(seed=4), [Disturbance(11.0, 30.0, "back")], 1137),
    (FeedbackGains(), PlantParams(seed=4, noise_std=0.0),
     [Disturbance(4.0, 9.0, "left"), Disturbance(4.0, 3.0, "front")], -1),
    # the end state is -inf: the step that overflows ends the run as a fall
    (FeedbackGains(arm_angle_y=PdGains(kp=1e300)), PlantParams(fall_threshold=1e300), [], 48),
], ids=["upright", "falls", "two_pushes_one_step", "overflow_to_inf"])
def test_loop_without_recording_keeps_ep_fall_and_end_state(gains, p, pushes, fall_idx):
    args = _loop_args(gains, CpgParams(), standard_test_sequence(), p, pushes, None)
    recorded = _kernels.run_closed_loop(*args)
    cost_only = _kernels.run_closed_loop(*args, record=False)
    assert len(cost_only) == 9
    assert cost_only[3].tobytes() == recorded[3].tobytes() and len(recorded[3]) > 0
    assert cost_only[6] == recorded[6] == fall_idx
    assert np.array(cost_only[8]).tobytes() == np.array(recorded[8]).tobytes()
    mu, state, dev, act = (cost_only[k] for k in (0, 1, 2, 4))
    assert mu.shape == (0,) and state.shape == (0, 4) and dev.shape == (0, 2)
    assert act.shape == (0, _kernels.ACT_SIZE)
    assert len(recorded[1]) == len(recorded[3])


def test_pose_is_read_out_once_and_replace_reads_it_anew(monkeypatch):
    calls = []
    readout = _kernels.pose_readout
    monkeypatch.setattr(_kernels, "pose_readout", lambda *a: calls.append(1) or readout(*a))
    cpg = CpgParams(lift_amplitude=0.95)
    trace = run_sequence(FeedbackGains(), cpg, standard_test_sequence(), PlantParams(seed=4),
                         [Disturbance(4.0, 9.0, "left")])
    assert calls == []
    pose, saturations = trace.pose, trace.saturations
    assert trace.pose is pose and trace.saturations == saturations > 0 and len(calls) == 1

    same = replace(trace, fall=trace.fall)
    assert np.array_equal(same.pose, pose) and same.saturations == saturations
    assert len(calls) == 2
    # a copy with other activations gets its own pose: zero activations leave the CPG pose
    open_loop = replace(trace, activations=np.zeros_like(trace.activations))
    i = 700
    want = evaluate_cpg(trace.mu[i], GaitCommand(*trace.cmds[i]), cpg).to_array()
    assert np.array_equal(open_loop.pose[i], want) and not np.array_equal(pose[i], want)


def test_push_order_in_the_list_does_not_matter():
    pushes = [Disturbance(11.0, 9.0, "back"), Disturbance(4.0, 9.0, "left"),
              Disturbance(4.0, 3.0, "front"), Disturbance(0.0, 2.0, "right")]
    args = (FeedbackGains(), CpgParams(), standard_test_sequence(), PlantParams(seed=6))
    a = run_sequence(*args, pushes)
    b = run_sequence(*args, sorted(pushes, key=lambda d: d.time))
    for field in ("pitch", "roll", "pitch_rate", "roll_rate", "activations", "pose"):
        assert np.array_equal(getattr(a, field), getattr(b, field))
    assert a.roll_rate[1] > 0.0  # the push at t=0 lands in the first step
