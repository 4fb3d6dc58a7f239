"""Hot numeric kernels shared by the gait, feedback, and plant modules.

The step kernels operate on Python floats and tuples of them; the public
modules wrap them with dataclass interfaces.

The closed loop is split in two.  ``run_closed_loop`` is the one per-step
dynamics loop: filters, activations, gait excitation, plant step and the
phase update.  The pose does not drive the plant, so the loop does not
compute it; it is read out afterwards from the recorded phase, commands and
activations (the support leg follows from the phase).  ``pose_readout``
maps ``cpg_pose`` and ``apply_actions_flat`` over the recorded rows, and
``leg_retractions`` gives only the leg retractions and the samples whose
retraction was clamped, which is all a saturation count reads.  A run
whose cost reads only the feedback errors and the fall, as every run of
the optimizer does, pays for neither.  The loop's result keeps two slots
where the pose and the saturation count used to be, now an empty (0, 18)
array and 0: the benchmark's tracer (``perfbench/tracer.py``) reads the
result by position, ``fall_idx`` at index 6 and the saturation count at
index 7, and ``run_sequence`` takes the end state from index 8.  They go
once the tracer reads the ``RunTrace`` instead.  A run whose cost reads
only the feedback errors also skips recording the phase, state and
activations (``record=False``).

The cost of a step is the interpreter's, so the kernels take their
parameters as tuples of Python floats, keep state in scalars and return
tuples: indexing a float64 array and doing arithmetic on the resulting
NumPy scalars costs several times as much as the same work on Python
floats.  For the same reason the loop reads its input arrays once through
``tolist()``, records its rows in flat lists and turns each into an array
once at the end with ``np.fromiter``, which reads a list of floats faster
than ``np.array`` and gives the same bits.  Each parameter tuple is
``float_tuple`` of its dataclass: the float fields in declaration order,
a nested dataclass's fields in its place (``float_fields``, the walk that
also names the config keys).  Callers build the tuples once per run, and
the loop and the readouts derive everything that is fixed for a run once
before their first step:

    swing_window(cpg)          -> (swing_start, swing_len) of cpg_pose
    filter_coeffs(filt, dt)    -> (alpha, deadband, decay, gain_i) of filters_step
    com_shift_reference(leg)   -> halt-pose leg reference of apply_actions_flat

A Python call costs as much as several lines of float arithmetic, so the
loop is one flat body per sample: it writes out ``filters_step``,
``activations_from``, ``gait_excitation``, ``plant_step`` and the phase's
``wrap_pi`` and unpacks its parameter tuples into locals once per run.
``leg_retractions`` runs on every ``gait run`` and is a map over samples,
not a recurrence, so it writes out the retraction formulas of ``cpg_pose``
and ``apply_actions_flat`` as NumPy columns, which round as the scalar code
does; only the knee's ``math.acos`` runs per row, on the rows with a
nonzero CoM shift, because ``np.arccos`` does not match it.  Every
written-out expression keeps its kernel's order of operations, because a
regrouped sum rounds differently.  The step kernels stay the one
definition of each formula: ``pose_readout`` and the public step helpers
(``evaluate_cpg``, ``DeviationFilters.update``, ``compute_activations``,
``apply_actions``, ``step_plant``) call them with the same derived
constants, and the replay tests in ``tests/test_plant.py`` step those
helpers by hand and hold the loop and the retractions to them bit for bit.

Tuples, each ``float_tuple`` of its dataclass unless stated:
    pose  (18)  ``AbstractPose``: left leg, right leg (lx, ly, lz, fx, fy,
                eta each), left arm, right arm (lx, ly, eta each)
    act   (7)   ``Activations``: armX, armY, suppX, contX, comX, comY,
                timing factor
    cpg   (8)   ``CpgParams``: halt_eta, halt_arm_eta, lift_amplitude,
                swing_amplitude, lateral_sway_amplitude,
                arm_swing_amplitude, double_support_fraction, frequency
    gains (12)  ``FeedbackGains``, each action's terms in place: the P/D
                actions armX kp, kd | armY kp, kd | suppX kp, kd, the I
                actions contX ki | comX ki | comY ki, then speed_up,
                slow_down, min_timing_factor
    filt  (3)   ``FilterParams``: smoothing tau, deadband, leak rate
    plant (7)   ``PlantParams``: pitch natural freq, roll natural freq,
                damping, gait coupling, noise std, effective inertia,
                fall threshold
    eff   (12)  ``PlantParams.action_effectiveness`` row-major (2, 6):
                pitch row then roll row, columns
                (armX, armY, suppX, contX, comX, comY)
    geom  (2)   ``LegGeometry``: thigh length, shank length;
                com_shift_reference's leg (3) is (thigh, shank, halt eta)

Divisors in a step are the step dt, the swing-window length and the leg
link product; ``FilterParams``, ``CpgParams`` and ``LegGeometry`` keep the
parameters they come from positive, so Python floats never divide by zero.
"""

import math
from dataclasses import fields, is_dataclass

import numpy as np

POSE_SIZE = 18
ACT_SIZE = 7  # armX, armY, suppX, contX, comX, comY, timing_factor
FILTER_STATE_SIZE = 6  # smoothed, d-estimate, integral -- pitch then roll plane


def is_float_field(f) -> bool:
    """Whether the dataclass field ``f`` is annotated ``float``, evaluated or not."""
    return f.type in (float, "float")


def float_fields(obj, prefix=""):
    """(dotted name, value) of each float field of the dataclass ``obj``.

    In declaration order; a nested dataclass's fields stand in its place,
    named ``<field>.<name>``.  Fields of other types are skipped.
    """
    for f in fields(obj):
        value = getattr(obj, f.name)
        if is_float_field(f):
            yield prefix + f.name, value
        elif is_dataclass(value):
            yield from float_fields(value, f"{prefix}{f.name}.")


def float_tuple(obj):
    """The values of ``float_fields(obj)`` as Python floats, the parameter
    form the kernels take."""
    return tuple(float(value) for _, value in float_fields(obj))


def wrap_pi(a):
    x = (a + math.pi) % (2.0 * math.pi)  # in [0, 2*pi); 0 only for a = pi + 2*pi*k
    if x == 0.0:
        x = 2.0 * math.pi
    return x - math.pi


def foot_ik_core(x, y, z, thigh, shank):
    """Two-link leg IK: hip pitch, hip roll, knee pitch for an ankle target.

    The cosine argument is clamped, so callers must reject unreachable
    targets beforehand if they need an error instead of a boundary pose.
    """
    hip_roll = math.atan2(y, -z)
    rho = math.sqrt(y * y + z * z)
    d2 = x * x + rho * rho
    c = (d2 - thigh * thigh - shank * shank) / (2.0 * thigh * shank)
    if c > 1.0:
        c = 1.0
    elif c < -1.0:
        c = -1.0
    knee = math.acos(c)
    gamma = math.atan2(x, rho)
    hip_pitch = gamma - math.atan2(shank * math.sin(knee), thigh + shank * math.cos(knee))
    return hip_pitch, hip_roll, knee


def foot_fk_core(hip_pitch, hip_roll, knee, thigh, shank):
    """Forward kinematics matching foot_ik_core's chain."""
    x = thigh * math.sin(hip_pitch) + shank * math.sin(hip_pitch + knee)
    z0 = -(thigh * math.cos(hip_pitch) + shank * math.cos(hip_pitch + knee))
    y = -z0 * math.sin(hip_roll)
    z = z0 * math.cos(hip_roll)
    return x, y, z


def swing_window(cpg):
    """(swing_start, swing_len): the phase window of each leg's lift pulse."""
    swing_len = math.pi * (1.0 - 2.0 * cpg[6])
    return 0.5 * math.pi - 0.5 * swing_len, swing_len


def cpg_pose(mu, vx, vy, wz, cpg, window):
    """The open-loop gait pose at phase mu as an 18-tuple.

    ``window`` is ``swing_window(cpg)``.  The left leg keys off mu, the
    right leg off mu + pi.
    """
    swing_start, swing_len = window
    halt_eta, halt_arm_eta, lift, swing, sway, arm_swing = cpg[:6]

    sway_term = -sway * math.sin(mu)
    lat = swing * vy
    sag = swing * vx
    yaw = swing * wz
    arm = arm_swing * vx

    mu_l = wrap_pi(mu)
    mu_r = wrap_pi(mu + math.pi)
    cos_l = math.cos(mu_l)
    cos_r = math.cos(mu_r)
    u_l = (mu_l - swing_start) / swing_len
    u_r = (mu_r - swing_start) / swing_len
    pulse_l = math.sin(math.pi * u_l) if (u_l > 0.0 and u_l < 1.0) else 0.0
    pulse_r = math.sin(math.pi * u_r) if (u_r > 0.0 and u_r < 1.0) else 0.0

    return (
        lat + sway_term,
        -sag * cos_l,
        yaw * math.sin(mu_l),
        0.0,
        0.0,
        halt_eta + lift * pulse_l,
        lat + sway_term,
        -sag * cos_r,
        yaw * math.sin(mu_r),
        0.0,
        0.0,
        halt_eta + lift * pulse_r,
        0.0,
        arm * cos_l,
        halt_arm_eta,
        0.0,
        arm * cos_r,
        halt_arm_eta,
    )


def filter_coeffs(filt, dt):
    """(alpha, deadband, decay, gain_i) of filters_step at sample period dt."""
    tau = filt[0]
    leak = filt[2]
    alpha = 1.0 - math.exp(-dt / tau)
    decay = math.exp(-leak * dt)
    gain_i = (1.0 - decay) / leak
    return alpha, filt[1], decay, gain_i


def _filter_plane(y_old, dv_old, i_old, d, dt, coeffs):
    alpha, deadband, decay, gain_i = coeffs
    y = y_old + (d - y_old) * alpha
    raw_d = (y - y_old) / dt
    dv = dv_old + (raw_d - dv_old) * alpha
    if y > deadband:
        p = y - deadband
    elif y < -deadband:
        p = y + deadband
    else:
        p = 0.0
    return y, p, dv, i_old * decay + p * gain_i


def filters_step(fs, d_theta, d_phi, dt, coeffs):
    """Advance both deviation filters by one sample.

    ``fs`` is the 6-tuple state (smoothed, d-estimate, integral) of the
    pitch then the roll plane and ``coeffs`` is ``filter_coeffs(filt, dt)``.
    Returns the new state and the 6-tuple (P, D, I) of each plane.

    Smoothing is a first-order low-pass, the derivative is the additionally
    smoothed finite difference of the smoothed signal, and the integral is
    the exact one-step solution of di/dt = -leak*i + P, which keeps
    |I| <= sup|P|/leak for all time.
    """
    y_t, p_t, dv_t, i_t = _filter_plane(fs[0], fs[1], fs[2], d_theta, dt, coeffs)
    y_p, p_p, dv_p, i_p = _filter_plane(fs[3], fs[4], fs[5], d_phi, dt, coeffs)
    return (y_t, dv_t, i_t, y_p, dv_p, i_p), (p_t, dv_t, i_t, p_p, dv_p, i_p)


def activations_from(pdi, gains, support_sign):
    """Corrective-action activations (7-tuple) from (P, D, I) per plane."""
    p_t, d_t, i_t, p_p, d_p, i_p = pdi
    (arm_x_kp, arm_x_kd, arm_y_kp, arm_y_kd, supp_x_kp, supp_x_kd,
     cont_x_ki, com_x_ki, com_y_ki, speed_up, slow_down, min_tf) = gains

    # tilting toward the support leg is outward, away from it inward
    tilt = p_p * support_sign
    outward = tilt if tilt > 0.0 else 0.0
    inward = -tilt if tilt < 0.0 else 0.0
    tf = 1.0 + speed_up * inward - slow_down * outward
    if tf < min_tf:
        tf = min_tf

    return (
        arm_x_kp * p_p + arm_x_kd * d_p,
        arm_y_kp * p_t + arm_y_kd * d_t,
        supp_x_kp * p_p + supp_x_kd * d_p,
        cont_x_ki * i_p,
        com_x_ki * i_t,
        com_y_ki * i_p,
        tf,
    )


def _halt_distance(thigh, shank, halt_eta):
    """Hip-ankle distance of the leg at the halt retraction halt_eta."""
    knee0 = 2.0 * math.acos(1.0 - halt_eta)
    return math.sqrt(thigh * thigh + shank * shank + 2.0 * thigh * shank * math.cos(knee0))


def com_shift_reference(leg):
    """Halt-pose leg reference of the CoM shift: a 6-tuple of floats.

    (thigh, shank, dist, ly0, lx0, eta_c0) with dist the hip-ankle distance
    at the halt retraction and ly0, lx0, eta_c0 = qh + qk/2, qr and
    cos(qk/2) of the leg IK for the ankle straight below the hip.
    """
    thigh = leg[0]
    shank = leg[1]
    dist = _halt_distance(thigh, shank, leg[2])
    qh0, qr0, qk0 = foot_ik_core(0.0, 0.0, -dist, thigh, shank)
    return thigh, shank, dist, qh0 + 0.5 * qk0, qr0, math.cos(0.5 * qk0)


def _clamp_retraction(eta):
    if eta < 0.0:
        return 0.0, 1
    if eta > 1.0:
        return 1.0, 1
    return eta, 0


def apply_actions_flat(pose, act, support_sign, ref):
    """Superimpose activations onto an abstract pose (18-tuple).

    ``ref`` is ``com_shift_reference(leg)``.  Returns the new pose and 1
    if any retraction had to be clamped into [0, 1], else 0.
    """
    arm_x, arm_y, supp_x, cont_x, com_x, com_y, _ = act

    l_lx = pose[0]
    l_ly = pose[1]
    l_fx = pose[3] + cont_x
    l_eta = pose[5]
    r_lx = pose[6]
    r_ly = pose[7]
    r_fx = pose[9] + cont_x
    r_eta = pose[11]
    if support_sign > 0.0:
        l_fx += supp_x
    else:
        r_fx += supp_x

    if com_x != 0.0 or com_y != 0.0:
        thigh, shank, dist, ly0, lx0, eta_c0 = ref
        qh1, qr1, qk1 = foot_ik_core(-com_x, -com_y, -dist, thigh, shank)
        d_ly = (qh1 + 0.5 * qk1) - ly0
        d_lx = qr1 - lx0
        d_eta = eta_c0 - math.cos(0.5 * qk1)
        l_lx += d_lx
        r_lx += d_lx
        l_ly += d_ly
        r_ly += d_ly
        l_eta += d_eta
        r_eta += d_eta

    l_eta, s0 = _clamp_retraction(l_eta)
    r_eta, s1 = _clamp_retraction(r_eta)
    la_eta, s2 = _clamp_retraction(pose[14])
    ra_eta, s3 = _clamp_retraction(pose[17])
    out = (
        l_lx, l_ly, pose[2], l_fx, pose[4], l_eta,
        r_lx, r_ly, pose[8], r_fx, pose[10], r_eta,
        pose[12] + arm_x, pose[13] + arm_y, la_eta,
        pose[15] + arm_x, pose[16] + arm_y, ra_eta,
    )
    return out, s0 | s1 | s2 | s3


def plant_accels(pitch, roll, pitch_rate, roll_rate, exc_p, exc_r, act, plant, eff):
    """Per-plane angular accelerations of the surrogate torso."""
    wn_p = plant[0]
    wn_r = plant[1]
    damping = plant[2]
    # activation terms are added left to right in column order: regrouping
    # the sum would change its rounding
    acc_p = -wn_p * wn_p * math.sin(pitch) - damping * pitch_rate + exc_p
    acc_p = (acc_p + eff[0] * act[0] + eff[1] * act[1] + eff[2] * act[2]
             + eff[3] * act[3] + eff[4] * act[4] + eff[5] * act[5])
    acc_r = -wn_r * wn_r * math.sin(roll) - damping * roll_rate + exc_r
    acc_r = (acc_r + eff[6] * act[0] + eff[7] * act[1] + eff[8] * act[2]
             + eff[9] * act[3] + eff[10] * act[4] + eff[11] * act[5])
    return acc_p, acc_r


def gait_excitation(mu, vx, vy, wz, coupling):
    """Phase-locked excitation the stepping gait applies to the torso."""
    exc_p = coupling * (0.5 + abs(vx)) * (0.3 * math.sin(mu) + 0.7 * math.sin(2.0 * mu))
    exc_r = coupling * (0.5 + 0.5 * abs(vy) + 0.3 * abs(wz)) * math.sin(mu)
    return exc_p, exc_r


def plant_step(pitch, roll, pitch_rate, roll_rate, exc_p, exc_r, act, plant, eff,
               noise_p, noise_r, dt):
    """One semi-implicit Euler step of the torso, the rates already kicked.

    Returns the new (pitch, roll, pitch_rate, roll_rate) and whether either
    angle exceeds the fall threshold.
    """
    acc_p, acc_r = plant_accels(
        pitch, roll, pitch_rate, roll_rate, exc_p, exc_r, act, plant, eff
    )
    pitch_rate += dt * (acc_p + noise_p)
    pitch += dt * pitch_rate
    roll_rate += dt * (acc_r + noise_r)
    roll += dt * roll_rate
    fell = abs(pitch) > plant[6] or abs(roll) > plant[6]
    return (pitch, roll, pitch_rate, roll_rate), fell


def run_closed_loop(cmds, noise, pushes, cpg, gains, filt, plant, eff, dt, record=True):
    """Run the closed-loop dynamics: filters -> activations -> plant -> phase.

    ``cmds`` (n, 3) and ``noise`` (n, 2) are arrays, ``pushes`` is a sequence
    of ``(step, (pitch kick, roll kick))`` pairs and the parameters are float
    tuples.  The run starts upright at phase 0.  Returns (mu, state, dev, ep,
    act, pose, fall_idx, saturations, end) where the time-series arrays have
    one row per executed step; ``fall_idx`` is the index of the last recorded
    sample if the torso fell, else -1, and ``end`` is the unrecorded state
    the last step produced (the one that fell, if any).  Sample i holds the
    state at t = i*dt and the control computed from it.  The deviations fed
    back are the fused angles, so ``dev`` is a view of the first two columns
    of ``state``.

    ``pose`` is an empty (0, 18) array and ``saturations`` is 0: the pose
    is ``pose_readout``'s, and the two slots only hold the positions of
    ``fall_idx`` and ``end`` (see the module docstring).

    With ``record=False`` only ``ep`` is recorded: ``mu``, ``state``,
    ``dev`` and ``act`` are empty (0,), (0, 4), (0, 2) and (0, 7) arrays,
    and ``ep``, ``fall_idx`` and ``end`` are those of the recording run,
    bit for bit.  A cost that reads only the feedback errors and the fall
    runs this way.

    A push lands at the start of its step; pushes at the same step land in
    the order given, and a push outside [0, n) never lands.

    The body is the step kernels written out (see the module docstring).
    """
    kicks = {}
    for step, kick in pushes:
        kicks.setdefault(step, []).append(kick)

    alpha, deadband, decay, gain_i = filter_coeffs(filt, dt)
    (arm_x_kp, arm_x_kd, arm_y_kp, arm_y_kd, supp_x_kp, supp_x_kd,
     cont_x_ki, com_x_ki, com_y_ki, speed_up, slow_down, min_tf) = gains
    wn_p, wn_r, damping, coupling, _, _, fall_threshold = plant
    e0, e1, e2, e3, e4, e5, e6, e7, e8, e9, e10, e11 = eff
    # -wn * wn * sin(x) is (-wn * wn) * sin(x): the product is exact to hoist
    nwp2 = -wn_p * wn_p
    nwr2 = -wn_r * wn_r
    phase_rate = 2.0 * math.pi * cpg[7]
    pi = math.pi
    two_pi = 2.0 * math.pi

    # filter state (smoothed, d-estimate, integral) of the pitch and roll plane
    y_t = dv_t = i_t = y_p = dv_p = i_p = 0.0
    mu = 0.0
    pitch = roll = pitch_rate = roll_rate = 0.0
    # the rows are recorded flat: a list of floats holds no per-row tuple for
    # the cyclic garbage collector to count and scan
    mu_rows, state_rows, ep_rows, act_rows = [], [], [], []
    fall_idx = -1

    # the excitation amplitudes depend only on the commands; NumPy rounds the
    # elementwise abs, + and * as Python floats do
    abs_vx, abs_vy, abs_wz = np.abs(cmds.T)
    amps_p = (coupling * (0.5 + abs_vx)).tolist()
    amps_r = (coupling * (0.5 + 0.5 * abs_vy + 0.3 * abs_wz)).tolist()
    for i, (amp_p, amp_r, noise_p, noise_r) in enumerate(zip(amps_p, amps_r, *noise.T.tolist())):
        # filters_step: the deviations fed back are the fused angles themselves
        y_old = y_t
        y_t = y_old + (pitch - y_old) * alpha
        dv_t = dv_t + ((y_t - y_old) / dt - dv_t) * alpha
        if y_t > deadband:
            p_t = y_t - deadband
        elif y_t < -deadband:
            p_t = y_t + deadband
        else:
            p_t = 0.0
        i_t = i_t * decay + p_t * gain_i
        y_old = y_p
        y_p = y_old + (roll - y_old) * alpha
        dv_p = dv_p + ((y_p - y_old) / dt - dv_p) * alpha
        if y_p > deadband:
            p_p = y_p - deadband
        elif y_p < -deadband:
            p_p = y_p + deadband
        else:
            p_p = 0.0
        i_p = i_p * decay + p_p * gain_i
        ep_rows += p_t, p_p

        # activations_from; tilting toward the support leg is outward
        tilt = p_p * (-1.0 if mu > 0.0 else 1.0)
        outward = tilt if tilt > 0.0 else 0.0
        inward = -tilt if tilt < 0.0 else 0.0
        tf = 1.0 + speed_up * inward - slow_down * outward
        if tf < min_tf:
            tf = min_tf
        a0 = arm_x_kp * p_p + arm_x_kd * dv_p
        a1 = arm_y_kp * p_t + arm_y_kd * dv_t
        a2 = supp_x_kp * p_p + supp_x_kd * dv_p
        a3 = cont_x_ki * i_p
        a4 = com_x_ki * i_t
        a5 = com_y_ki * i_p
        if record:
            # nothing has moved mu or the state since the top of the step
            mu_rows.append(mu)
            state_rows += pitch, roll, pitch_rate, roll_rate
            act_rows += a0, a1, a2, a3, a4, a5, tf

        if i in kicks:
            for kick_p, kick_r in kicks[i]:
                pitch_rate += kick_p
                roll_rate += kick_r

        # gait_excitation and plant_step; the activation terms are added left
        # to right in column order, as in plant_accels
        sin_mu = math.sin(mu)
        exc_p = amp_p * (0.3 * sin_mu + 0.7 * math.sin(2.0 * mu))
        exc_r = amp_r * sin_mu
        acc_p = nwp2 * math.sin(pitch) - damping * pitch_rate + exc_p
        acc_p = acc_p + e0 * a0 + e1 * a1 + e2 * a2 + e3 * a3 + e4 * a4 + e5 * a5
        acc_r = nwr2 * math.sin(roll) - damping * roll_rate + exc_r
        acc_r = acc_r + e6 * a0 + e7 * a1 + e8 * a2 + e9 * a3 + e10 * a4 + e11 * a5
        pitch_rate += dt * (acc_p + noise_p)
        pitch += dt * pitch_rate
        roll_rate += dt * (acc_r + noise_r)
        roll += dt * roll_rate
        if abs(pitch) > fall_threshold or abs(roll) > fall_threshold:
            fall_idx = i
            break

        # wrap_pi of the advanced phase
        x = (mu + phase_rate * tf * dt + pi) % two_pi
        if x == 0.0:
            x = two_pi
        mu = x - pi

    def column(rows):
        return np.fromiter(rows, float, len(rows))

    state_out = column(state_rows).reshape(-1, 4)
    return (column(mu_rows), state_out, state_out[:, :2], column(ep_rows).reshape(-1, 2),
            column(act_rows).reshape(-1, ACT_SIZE), np.empty((0, POSE_SIZE)), fall_idx, 0,
            (pitch, roll, pitch_rate, roll_rate))


@np.errstate(over="ignore", invalid="ignore")
def leg_retractions(mu, act, cpg, geom):
    """Each leg's clamped retraction per sample, and its saturated flag.

    ``mu`` (n,) and ``act`` (n, 7) are rows that ``run_closed_loop``
    recorded; ``cpg`` and ``geom`` are as for ``pose_readout``.  Returns the
    columns (eta_l, eta_r, saturated): the leg retractions of
    ``apply_actions_flat`` on the ``cpg_pose`` of each sample, and whether
    the sample had a retraction clamped into [0, 1].

    Every column is NumPy arithmetic in the kernels' order of operations, and
    rounds as they do: ``np.remainder`` is Python's float ``%``,
    ``np.sqrt`` rounds correctly and ``np.sin`` and ``np.cos`` match
    ``math``'s.  Only the knee's ``math.acos`` runs per row, on the rows with
    a nonzero CoM shift, because ``np.arccos`` does not match it.  The knee
    is ``foot_ik_core``'s, whose hip angles a retraction does not need; the
    halt pose's knee (``com_shift_reference``) is that of the target (0, 0).
    A CoM shift large enough to overflow goes to inf or NaN without a
    warning, as the kernels' Python floats do.
    """
    swing_start, swing_len = swing_window(cpg)
    thigh, shank = geom
    halt_eta, _, lift = cpg[:3]
    dist = _halt_distance(thigh, shank, halt_eta)
    pi = math.pi
    two_pi = 2.0 * math.pi

    # the leg phases of cpg_pose: wrap_pi of mu and of mu + pi
    x = mu + pi
    x_r = np.remainder(x + pi, two_pi)
    x = np.remainder(x, two_pi)
    x[x == 0.0] = two_pi
    x_r[x_r == 0.0] = two_pi
    mu_l = x - pi
    mu_r = x_r - pi
    u_l = (mu_l - swing_start) / swing_len
    u_r = (mu_r - swing_start) / swing_len
    eta_l = halt_eta + lift * np.where((u_l > 0.0) & (u_l < 1.0), np.sin(pi * u_l), 0.0)
    eta_r = halt_eta + lift * np.where((u_r > 0.0) & (u_r < 1.0), np.sin(pi * u_r), 0.0)

    rows = np.flatnonzero((act[:, 4] != 0.0) | (act[:, 5] != 0.0))
    if rows.size:
        # foot_ik_core's knee for the targets (-com_x, -com_y, -dist), the halt
        # pose's (0, 0) first; (-a) * (-a) is a * a exactly
        com_x = np.concatenate(([0.0], act[rows, 4]))
        com_y = np.concatenate(([0.0], act[rows, 5]))
        rho = np.sqrt(com_y * com_y + dist * dist)
        c = (com_x * com_x + rho * rho - thigh * thigh - shank * shank) / (2.0 * thigh * shank)
        knee = np.fromiter(map(math.acos, np.clip(c, -1.0, 1.0).tolist()), float, c.size)
        half_cos = np.cos(0.5 * knee)
        d_eta = half_cos[0] - half_cos[1:]
        eta_l[rows] += d_eta
        eta_r[rows] += d_eta

    # Nothing moves an arm's retraction off the halt one, which CpgParams
    # range-checks to [0, 1]; apply_actions_flat keeps the arm clamps because
    # the public apply_actions takes any pose.
    saturated = (eta_l < 0.0) | (eta_l > 1.0) | (eta_r < 0.0) | (eta_r > 1.0)
    for eta in (eta_l, eta_r):
        eta[eta < 0.0] = 0.0
        eta[eta > 1.0] = 1.0
    return eta_l, eta_r, saturated


def pose_readout(mu, cmds, act, cpg, geom):
    """The abstract pose of each recorded sample.

    ``mu`` (n,), ``cmds`` (n, 3) and ``act`` (n, 7) are rows that
    ``run_closed_loop`` recorded, ``cpg`` is the loop's float tuple, whose
    ``cpg[0]`` is the halt retraction, and ``geom`` is (thigh, shank).
    Returns the (n, 18) poses, each ``cpg_pose`` at the sample's phase and
    command with the sample's activations superimposed by
    ``apply_actions_flat``.  The support leg follows from the phase, as it
    does for the activations in the loop.
    """
    window = swing_window(cpg)
    ref = com_shift_reference((*geom, cpg[0]))
    rows = [
        apply_actions_flat(cpg_pose(m, vx, vy, wz, cpg, window), a,
                           -1.0 if m > 0.0 else 1.0, ref)[0]
        for m, (vx, vy, wz), a in zip(mu.tolist(), cmds.tolist(), act.tolist())
    ]
    return np.array(rows, dtype=float).reshape(-1, POSE_SIZE)
