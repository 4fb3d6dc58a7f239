"""Hot numeric kernels shared by the gait, feedback, and plant modules.

The step kernels operate on Python floats and tuples of them; the public
modules wrap them with dataclass interfaces.

The closed loop is split in two.  ``run_closed_loop`` is the one per-step
dynamics loop: filters, activations, gait excitation, ``plant_step`` and the
phase update.  The pose does not drive the plant, so the loop does not
compute it; ``pose_readout`` recomputes it afterwards from the recorded
phase, commands and activations (the support leg follows from the phase)
and counts the clamped retractions.  A run whose cost reads only the
feedback errors and the fall, as every run of the optimizer does, never
pays for the pose.  The loop's result keeps two slots where the pose and
the saturation count used to be, now an empty (0, 18) array and 0, so that
``fall_idx`` stays at index 6 and the end state at index 8 for a caller
that reads the result by position (the benchmark's tracer,
``perfbench/tracer.py``, does); they go once it reads the ``RunTrace``.

The cost of a step is the interpreter's, so the step kernels take their
parameters as tuples of Python floats, keep state in scalars and return
tuples: indexing a float64 array and doing arithmetic on the resulting
NumPy scalars costs several times as much as the same work on Python
floats.  For the same reason the loop and the readout read their input
arrays once through ``tolist()``, record their rows in flat lists and turn
each into an array once at the end.  The dataclasses still pack their
parameters into float64 vectors (``to_array``); callers turn those into
float tuples once with ``float_tuple``, and the loop and the readout derive
everything that is fixed for a run once before their first step:

    swing_window(cpg)          -> (swing_start, swing_len) of cpg_pose
    filter_coeffs(filt, dt)    -> (alpha, deadband, decay, gain_i) of filters_step
    com_shift_reference(geom)  -> halt-pose leg reference of apply_actions_flat

The public step helpers (``evaluate_cpg``, ``DeviationFilters.update``,
``compute_activations``, ``apply_actions``, ``step_plant``) call the same
kernels with the same derived constants, so stepping them by hand
reproduces ``run_closed_loop`` and ``pose_readout`` bit for bit;
``plant_step`` is the one integration step both the loop and ``step_plant``
take.  The loop and the readout look their step kernels up as module
globals on every call, so wrappers installed on this module's attributes
see each call.

Flat abstract-pose layout (18 floats):
    [0:6]   left leg   (lx, ly, lz, fx, fy, eta)
    [6:12]  right leg  (lx, ly, lz, fx, fy, eta)
    [12:15] left arm   (lx, ly, eta)
    [15:18] right arm  (lx, ly, eta)

Activation layout (7 floats): armX, armY, suppX, contX, comX, comY,
timing factor.

Parameter tuples (the ``to_array`` layouts):
    cpg   (24)  halt pose[0:18], lift_amp, swing_amp, sway_amp,
                arm_swing_amp, double_support_fraction, frequency
    gains (12)  the fields of ``FeedbackGains`` in declaration order,
                each action's terms in place: the P/D actions
                armX kp, kd | armY kp, kd | suppX kp, kd, the I actions
                contX ki | comX ki | comY ki, then speed_up, slow_down,
                min_timing_factor
    filt  (3)   smoothing tau, deadband, leak rate
    plant (5)   pitch natural freq, roll natural freq, damping,
                gait coupling, fall threshold
    eff   (12)  per-plane acceleration per unit activation, row-major
                (2, 6): pitch row then roll row, columns
                (armX, armY, suppX, contX, comX, comY)
    geom  (3)   thigh length, shank length, halt eta

Divisors in a step are the step dt, the swing-window length and the leg
link product; ``FilterParams``, ``CpgParams`` and ``LegGeometry`` keep the
parameters they come from positive, so Python floats never divide by zero.
"""

import math

import numpy as np

POSE_SIZE = 18
ACT_SIZE = 7  # armX, armY, suppX, contX, comX, comY, timing_factor
FILTER_STATE_SIZE = 6  # smoothed, d-estimate, integral -- pitch then roll plane


def float_tuple(a):
    """A packed float vector (any shape) as a flat tuple of Python floats,
    the parameter form the kernels take."""
    return tuple(np.asarray(a, dtype=float).ravel().tolist())


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
    swing_len = math.pi * (1.0 - 2.0 * cpg[22])
    return 0.5 * math.pi - 0.5 * swing_len, swing_len


def cpg_pose(mu, vx, vy, wz, cpg, window):
    """The open-loop gait pose at phase mu as an 18-tuple.

    ``window`` is ``swing_window(cpg)``.  The left leg keys off mu, the
    right leg off mu + pi.
    """
    swing_start, swing_len = window
    lift = cpg[18]
    swing = cpg[19]
    arm_swing = cpg[21]

    sway_term = -cpg[20] * math.sin(mu)
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
        cpg[0] + lat + sway_term,
        cpg[1] - sag * cos_l,
        cpg[2] + yaw * math.sin(mu_l),
        cpg[3],
        cpg[4],
        cpg[5] + lift * pulse_l,
        cpg[6] + lat + sway_term,
        cpg[7] - sag * cos_r,
        cpg[8] + yaw * math.sin(mu_r),
        cpg[9],
        cpg[10],
        cpg[11] + lift * pulse_r,
        cpg[12],
        cpg[13] + arm * cos_l,
        cpg[14],
        cpg[15],
        cpg[16] + arm * cos_r,
        cpg[17],
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


def com_shift_reference(geom):
    """Halt-pose leg reference of the CoM shift: a 6-tuple of floats.

    (thigh, shank, dist, ly0, lx0, eta_c0) with dist the hip-ankle distance
    at the halt retraction and ly0, lx0, eta_c0 = qh + qk/2, qr and
    cos(qk/2) of the leg IK for the ankle straight below the hip.
    """
    thigh = geom[0]
    shank = geom[1]
    knee0 = 2.0 * math.acos(1.0 - geom[2])
    dist = math.sqrt(thigh * thigh + shank * shank + 2.0 * thigh * shank * math.cos(knee0))
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

    ``ref`` is ``com_shift_reference(geom)``.  Returns the new pose and 1
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
    fell = abs(pitch) > plant[4] or abs(roll) > plant[4]
    return (pitch, roll, pitch_rate, roll_rate), fell


def run_closed_loop(cmds, noise, pushes, cpg, gains, filt, plant, eff, dt):
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

    A push lands at the start of its step; pushes at the same step land in
    the order given, and a push outside [0, n) never lands.
    """
    kicks = {}
    for step, kick in pushes:
        kicks.setdefault(step, []).append(kick)

    coeffs = filter_coeffs(filt, dt)
    phase_rate = 2.0 * math.pi * cpg[23]
    coupling = plant[3]

    fs = (0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
    mu = 0.0
    state = (0.0, 0.0, 0.0, 0.0)
    # the rows are recorded flat: a list of floats holds no per-row tuple for
    # the cyclic garbage collector to count and scan
    mu_rows, state_rows, ep_rows, act_rows = [], [], [], []
    fall_idx = -1

    for i, (vx, vy, wz, noise_p, noise_r) in enumerate(zip(*cmds.T.tolist(), *noise.T.tolist())):
        support_sign = -1.0 if mu > 0.0 else 1.0

        mu_rows.append(mu)
        state_rows += state

        # the deviations fed back are the fused angles themselves
        fs, pdi = filters_step(fs, state[0], state[1], dt, coeffs)
        ep_rows += pdi[0], pdi[3]

        act = activations_from(pdi, gains, support_sign)
        act_rows += act

        pitch, roll, pitch_rate, roll_rate = state
        if i in kicks:
            for kick_p, kick_r in kicks[i]:
                pitch_rate += kick_p
                roll_rate += kick_r

        exc_p, exc_r = gait_excitation(mu, vx, vy, wz, coupling)
        state, fell = plant_step(
            pitch, roll, pitch_rate, roll_rate, exc_p, exc_r, act, plant, eff,
            noise_p, noise_r, dt,
        )
        if fell:
            fall_idx = i
            break

        mu = wrap_pi(mu + phase_rate * act[6] * dt)

    state_out = np.array(state_rows).reshape(-1, 4)
    return (np.array(mu_rows), state_out, state_out[:, :2], np.array(ep_rows).reshape(-1, 2),
            np.array(act_rows).reshape(-1, ACT_SIZE), np.empty((0, POSE_SIZE)), fall_idx, 0,
            state)


def pose_readout(mu, cmds, act, cpg, geom):
    """The abstract pose of each recorded sample and the saturation count.

    ``mu`` (n,), ``cmds`` (n, 3) and ``act`` (n, 7) are rows that
    ``run_closed_loop`` recorded, ``cpg`` is the loop's float tuple and
    ``geom`` is (thigh, shank, halt eta).  Returns the (n, 18) poses, each
    the CPG pose at the sample's phase and command with the sample's
    activations superimposed, and the number of samples whose retraction
    had to be clamped.  The support leg follows from the phase, as it does
    for the activations in the loop.
    """
    window = swing_window(cpg)
    ref = com_shift_reference(geom)
    poses = []
    saturations = 0
    for m, (vx, vy, wz), a in zip(mu.tolist(), cmds.tolist(), act.tolist()):
        support_sign = -1.0 if m > 0.0 else 1.0
        pose, saturated = apply_actions_flat(
            cpg_pose(m, vx, vy, wz, cpg, window), a, support_sign, ref
        )
        saturations += saturated
        poses += pose
    return np.array(poses).reshape(-1, POSE_SIZE), saturations
