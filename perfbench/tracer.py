"""Per-layer tracing, done from outside the package.

The tracer replaces module attributes of gaitlab with timing wrappers for the
length of a traced cycle and puts the originals back afterwards.  This works
on the CPython path because the package looks those names up at call time:
``run_closed_loop`` finds ``cpg_pose``, ``filters_step`` and the other step
kernels as globals of ``gaitlab._kernels``, ``optimize`` finds
``select_next`` in ``gaitlab.bayesopt``, ``detect_blobs`` finds
``connected_components`` in ``gaitlab.heatmap``, and so on.  Under numba
``run_closed_loop`` is compiled and calls its kernels directly, so the split
of the closed loop into kernels is unavailable; the output says so.

Spans are aggregated as they end rather than kept one by one, because the
closed loop alone makes about ten kernel calls per step: per span name the
tracer keeps calls, total time and self time (total minus the time of traced
children), and per (parent, child) pair the calls and total time.
"""

from __future__ import annotations

import time
from collections import defaultdict

import numpy as np

from gaitlab import _kernels, bayesopt, cli, heatmap
from gaitlab._accel import NUMBA_ENABLED
from gaitlab.orientation import Quaternion

# (kernel name in gaitlab._kernels, span name); timed inside run_closed_loop
KERNEL_SPANS = (
    ("cpg_pose", "cpg.pose"),
    ("filters_step", "feedback.filters"),
    ("activations_from", "feedback.activations"),
    ("apply_actions_flat", "feedback.apply_actions"),
    ("plant_accels", "plant.accels"),
    ("gait_excitation", "plant.excitation"),
)
# small kernels that are only counted: timing them would cost more than they do
KERNEL_COUNTS = (("wrap_pi", "cpg.wrap"), ("foot_ik_core", "pose.foot_ik"))

# per-layer metrics that need the kernel split of the closed loop
KERNEL_SPLIT = {
    "plant.loop_self_share",
    "plant.accels_us",
    "plant.excitation_us",
    "cpg.pose_us",
    "cpg.wrap_calls_per_step",
    "feedback.filters_us",
    "feedback.activations_us",
    "feedback.apply_actions_us",
    "pose.foot_ik_calls_per_step",
}


class Tracer:
    def __init__(self):
        self.stats = defaultdict(lambda: [0, 0.0, 0.0])  # name -> [calls, total s, self s]
        self.edges = defaultdict(lambda: [0, 0.0])  # (parent, child) -> [calls, total s]
        self.counts = defaultdict(int)
        self._stack: list[list] = []  # [name, seconds spent in traced children]
        self._saved: list[tuple] = []

    def span(self, name, fn, on_call=None):
        """Wrap ``fn`` so each call is a span; ``on_call(args, result)`` may add counts."""
        stack = self._stack
        stat = self.stats[name]
        edges = self.edges
        clock = time.perf_counter

        def traced(*args, **kwargs):
            frame = [name, 0.0]
            stack.append(frame)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                stack.pop()
                stat[0] += 1
                stat[1] += dt
                stat[2] += dt - frame[1]
                if stack:
                    parent = stack[-1]
                    parent[1] += dt
                    edge = edges[(parent[0], name)]
                    edge[0] += 1
                    edge[1] += dt
            if on_call is not None:
                on_call(args, result)
            return result

        return traced

    def counter(self, name, fn):
        stat = self.stats[name]

        def counted(*args):
            stat[0] += 1
            return fn(*args)

        return counted

    def _patch(self, owner, attr, wrapper):
        self._saved.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self):
        """Wrap every traced entry point; uninstall() restores the originals."""
        counts = self.counts
        span = self.span

        def loop_result(args, out):
            fall_idx, saturations = out[6], out[7]
            counts["plant.steps"] += fall_idx + 1 if fall_idx >= 0 else args[0].shape[0]
            counts["plant.falls"] += fall_idx >= 0
            counts["plant.saturations"] += int(saturations)

        def labeled(args, comps):
            counts["heatmap.pixels"] += np.asarray(args[0]).size
            counts["heatmap.components"] += len(comps)

        def simplex_result(args, result):
            counts["numopt.iterations"] += result.iterations

        k = _kernels
        if not NUMBA_ENABLED:
            for attr, name in KERNEL_SPANS:
                self._patch(k, attr, span(name, getattr(k, attr)))
            for attr, name in KERNEL_COUNTS:
                self._patch(k, attr, self.counter(name, getattr(k, attr)))
        self._patch(k, "run_closed_loop", span("plant.loop", k.run_closed_loop, loop_result))

        run_sequence = span("plant.run_sequence", bayesopt.run_sequence)
        self._patch(bayesopt, "run_sequence", run_sequence)
        self._patch(cli, "run_sequence", run_sequence)
        self._patch(cli, "trace_to_csv", span("plant.csv", cli.trace_to_csv))
        self._patch(cli, "phase_plot_to_csv", span("plant.csv", cli.phase_plot_to_csv))
        self._patch(cli, "main", span("cli.main", cli.main))

        b = bayesopt
        self._patch(b, "select_next", span("bayesopt.select_next", b.select_next))
        self._patch(b._GpFit, "__init__", span("bayesopt.gp_fit", b._GpFit.__init__))
        self._patch(b._GpFit, "predict", span("bayesopt.posterior", b._GpFit.predict))
        self._patch(b, "_chol_with_escalation", span("bayesopt.chol", b._chol_with_escalation))
        self._patch(np.linalg, "cholesky", self.counter("bayesopt.chol_attempt", np.linalg.cholesky))
        self._patch(b, "_mutual_information", span("bayesopt.mi", b._mutual_information))
        self._patch(b.GainProblem, "evaluate", span("bayesopt.evaluate", b.GainProblem.evaluate))
        self._patch(b, "_eval_sim_averaged", span("bayesopt.sim_batch", b._eval_sim_averaged))

        h = heatmap
        self._patch(h, "detect_blobs", span("heatmap.detect", h.detect_blobs))
        self._patch(h, "threshold", span("heatmap.threshold", h.threshold))
        self._patch(h, "erode", span("heatmap.morph", h.erode))
        self._patch(h, "dilate", span("heatmap.morph", h.dilate))
        self._patch(h, "connected_components", span("heatmap.label", h.connected_components, labeled))
        self._patch(h, "subpixel_centroid", span("heatmap.centroid", h.subpixel_centroid))
        self._patch(h, "calibrate_extrinsics", span("heatmap.calibrate", h.calibrate_extrinsics))
        simplex = span("numopt.simplex", h.nelder_mead, simplex_result)

        def nelder_mead(f, x0, cfg=None):
            return simplex(span("numopt.objective", f), x0, cfg)

        self._patch(h, "nelder_mead", nelder_mead)
        self._patch(
            Quaternion, "rotate_inverse", span("orientation.rotate_inverse", Quaternion.rotate_inverse)
        )

    def uninstall(self):
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)


def _ratio(a, b):
    return a / b if b else 0.0


def layer_metrics(tr: Tracer) -> dict[str, tuple[float | int | None, str]]:
    """Per-layer metrics as name -> (value, unit).

    Times are per call unless the name says otherwise; counts are totals over
    the traced cycles.  A layer the workload does not reach reads 0.
    """
    st, ed, ct = tr.stats, tr.edges, tr.counts

    def calls(name):
        return st[name][0] if name in st else 0

    def total(name):
        return st[name][1] if name in st else 0.0

    def self_time(name):
        return st[name][2] if name in st else 0.0

    def under(parent, child):
        return ed[(parent, child)][1] if (parent, child) in ed else 0.0

    steps = ct["plant.steps"]
    n_select = calls("bayesopt.select_next")
    n_frames = calls("heatmap.detect")
    n_eval = calls("bayesopt.evaluate")
    evals_sim = calls("bayesopt.sim_batch")
    evals_real = n_eval - (ed[("bayesopt.sim_batch", "bayesopt.evaluate")][0]
                           if ("bayesopt.sim_batch", "bayesopt.evaluate") in ed else 0)
    sel = "bayesopt.select_next"
    m = {
        "plant.run_ms": (1e3 * _ratio(total("plant.run_sequence"), calls("plant.run_sequence")), "ms"),
        "plant.steps_per_s": (_ratio(steps, total("plant.loop")), "1/s"),
        "plant.loop_self_share": (_ratio(self_time("plant.loop"), total("plant.loop")), "share"),
        "plant.accels_us": (1e6 * _ratio(self_time("plant.accels"), calls("plant.accels")), "us"),
        "plant.excitation_us": (
            1e6 * _ratio(self_time("plant.excitation"), calls("plant.excitation")), "us"),
        "plant.csv_ms": (1e3 * _ratio(total("plant.csv"), calls("cli.main")), "ms"),
        "plant.runs": (calls("plant.loop"), "count"),
        "plant.steps": (steps, "count"),
        "plant.falls": (ct["plant.falls"], "count"),
        "plant.saturations": (ct["plant.saturations"], "count"),
        "cpg.pose_us": (1e6 * _ratio(self_time("cpg.pose"), calls("cpg.pose")), "us"),
        "cpg.wrap_calls_per_step": (_ratio(calls("cpg.wrap"), steps), "calls/step"),
        "feedback.filters_us": (
            1e6 * _ratio(self_time("feedback.filters"), calls("feedback.filters")), "us"),
        "feedback.activations_us": (
            1e6 * _ratio(self_time("feedback.activations"), calls("feedback.activations")), "us"),
        "feedback.apply_actions_us": (
            1e6 * _ratio(self_time("feedback.apply_actions"), calls("feedback.apply_actions")), "us"),
        "pose.foot_ik_calls_per_step": (_ratio(calls("pose.foot_ik"), steps), "calls/step"),
        "bayesopt.select_next_ms": (1e3 * _ratio(total(sel), n_select), "ms"),
        "bayesopt.gp_fit_ms": (1e3 * _ratio(under(sel, "bayesopt.gp_fit"), n_select), "ms"),
        "bayesopt.posterior_ms": (1e3 * _ratio(under(sel, "bayesopt.posterior"), n_select), "ms"),
        "bayesopt.joint_chol_ms": (1e3 * _ratio(under(sel, "bayesopt.chol"), n_select), "ms"),
        "bayesopt.mi_ms": (1e3 * _ratio(under(sel, "bayesopt.mi"), n_select), "ms"),
        "bayesopt.select_self_ms": (1e3 * _ratio(self_time(sel), n_select), "ms"),
        "bayesopt.evaluate_ms": (1e3 * _ratio(total("bayesopt.evaluate"), n_eval), "ms"),
        "bayesopt.runs_per_batch": (_ratio(n_eval, evals_sim + evals_real), "runs/batch"),
        "bayesopt.chol_attempts_per_call": (
            _ratio(calls("bayesopt.chol_attempt"), calls("bayesopt.chol")), "attempts/call"),
        "bayesopt.evals_sim": (evals_sim, "count"),
        "bayesopt.evals_real": (evals_real, "count"),
        "heatmap.threshold_ms": (1e3 * _ratio(total("heatmap.threshold"), n_frames), "ms"),
        "heatmap.morph_ms": (1e3 * _ratio(total("heatmap.morph"), n_frames), "ms"),
        "heatmap.label_ms": (1e3 * _ratio(total("heatmap.label"), n_frames), "ms"),
        "heatmap.centroid_ms": (1e3 * _ratio(total("heatmap.centroid"), n_frames), "ms"),
        "heatmap.label_mpix_per_s": (1e-6 * _ratio(ct["heatmap.pixels"], total("heatmap.label")), "Mpix/s"),
        "heatmap.components": (ct["heatmap.components"], "count"),
        "numopt.objective_calls": (calls("numopt.objective"), "count"),
        "numopt.objective_us": (1e6 * _ratio(total("numopt.objective"), calls("numopt.objective")), "us"),
        "numopt.simplex_self_ms": (
            1e3 * _ratio(self_time("numopt.simplex"), calls("heatmap.calibrate")), "ms"),
        "numopt.iterations": (ct["numopt.iterations"], "count"),
        "orientation.rotate_inverse_calls": (calls("orientation.rotate_inverse"), "count"),
        "orientation.rotate_inverse_us": (
            1e6 * _ratio(total("orientation.rotate_inverse"), calls("orientation.rotate_inverse")), "us"),
        "cli.overhead_ms": (1e3 * _ratio(self_time("cli.main"), calls("cli.main")), "ms"),
    }
    if NUMBA_ENABLED:
        for name in KERNEL_SPLIT:
            m[name] = (None, m[name][1])
    return m
