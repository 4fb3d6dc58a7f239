#!/usr/bin/env python3
"""gaitlab benchmark: run one seeded workload and print its metrics as JSON.

    python3 perfbench/run.py --workload tune --seed 1 --seconds 20 --trace 0

Workloads: tune, sweep, propose, perception (see perfbench/README.md).
``--trace 0`` measures the end-to-end metrics untraced.  ``--trace 1`` is the
traced run: it alternates untraced and traced cycles of the same workload and
reports per-layer metrics plus the tracing overhead on the workload's main
call.  ``python3 perfbench/traced.py`` is the same as ``--trace 1``.

The package is imported from ``src/`` next to this directory, never from an
installed copy; without it the benchmark exits with code 2 and no result.
The last line of standard output is the JSON result; the lines before it
record the environment and the call counts.
"""

import os

# Pin BLAS before numpy loads: with 2 threads on a 2-CPU machine a 260x260
# Cholesky sometimes stalls for 0.28 s instead of taking 1 ms.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".perfbench_tmp"
WORKLOAD_NAMES = ("tune", "sweep", "propose", "perception")
SETUP_REPEATS = 5

# Times `import gaitlab` in a fresh interpreter; prints seconds.
IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); "
    "t = time.perf_counter(); import gaitlab; print(time.perf_counter() - t)"
)


def import_package():
    if not (SRC / "gaitlab" / "__init__.py").is_file():
        print(f"error: no gaitlab sources under {SRC}", file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import gaitlab

    if Path(gaitlab.__file__).resolve().parent != SRC / "gaitlab":
        print(f"error: imported gaitlab from {gaitlab.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)
    return gaitlab


def import_seconds() -> float:
    out = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, check=True, timeout=120, cwd=ROOT,
    )
    return float(out.stdout.split()[-1])


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(gaitlab) -> dict:
    import numpy
    import scipy

    return {
        "numba": gaitlab.NUMBA_ENABLED,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "commit": git_commit(),
    }


def run_cycles(wl, rec, seconds, tracer=None):
    """Run cycles until ``seconds`` have passed and at least min_cycles ran.

    With a tracer, odd cycles are traced and even ones are not, so both sides
    see the same inputs and the same machine conditions; two cycles suffice.
    """
    recs = (rec, rec.__class__()) if tracer else (rec,)
    min_cycles = 2 if tracer else wl.min_cycles
    t_end = time.perf_counter() + seconds
    i = 0
    while i < min_cycles or time.perf_counter() < t_end:
        traced = tracer is not None and i % 2 == 1
        if traced:
            tracer.install()
        try:
            wl.cycle(i, recs[i % len(recs)])
        finally:
            if traced:
                tracer.uninstall()
        i += 1
    return recs


def summarize(samples: list[float]) -> tuple[float, float]:
    """(median, p90) in ms; p90 interpolates between order statistics."""
    ms = sorted(1000.0 * s for s in samples)
    if len(ms) == 1:
        return ms[0], ms[0]
    return statistics.median(ms), statistics.quantiles(ms, n=10, method="inclusive")[8]


def set_up(args, workloads, pace, workdir):
    """(setup_s, workload): median import plus median input generation, paced."""
    imports = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        seconds = import_seconds()  # timed in the child, so no probe inside it
        imports.append(seconds * paced(pace, "py", t0, time.perf_counter()))
    rec = workloads.Recorder(pace)
    for _ in range(SETUP_REPEATS):
        probe_s0 = rec.probe_seconds()
        t0 = time.perf_counter()
        wl = workloads.build(args.workload, args.seed, args.size, str(workdir))
        rec.add("build", t0, time.perf_counter(), probe_s0)
    builds = [busy * paced(pace, "py", t0, t1)
              for busy, (t0, t1) in zip(rec.samples["build"], rec.spans["build"])]
    return statistics.median(imports) + statistics.median(builds), wl


def paced(pace, parts, t0, t1) -> float:
    """Mean speed over ``parts`` (one probe name or several) near [t0, t1]."""
    if pace is None:
        return 1.0
    parts = (parts,) if isinstance(parts, str) else parts
    return statistics.fmean(pace.speed(p, t0, t1) for p in parts)


def paced_samples(wl, rec, kind) -> list[float]:
    """Busy seconds of each call of ``kind`` scaled to the probe's nominal speed."""
    parts = wl.pace_parts[kind.split(":")[0]]
    return [busy * paced(rec.pace, parts, t0, t1)
            for busy, (t0, t1) in zip(rec.samples[kind], rec.spans[kind])]


def end_to_end(wl, rec, setup_s) -> dict:
    """The five end-to-end metrics; a figure with no successful call reads None."""
    main = paced_samples(wl, rec, "main")
    aux = [paced_samples(wl, rec, k) for k in sorted(rec.samples) if k.startswith("aux")]
    p50, p90 = summarize(main) if main else (None, None)
    aux_ms = statistics.fmean(summarize(a)[0] for a in aux) if aux and all(aux) else None
    return {
        "setup_s": (setup_s, "s"),
        "op_ms.p50": (p50, "ms"),
        "op_ms.p90": (p90, "ms"),
        "aux_ms": (aux_ms, "ms"),
        "quality_loss": (wl.quality() if wl.quality_values else None, "loss"),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny inputs, for the benchmark's own tests")
    args = parser.parse_args(argv)

    gaitlab = import_package()
    import pace as pacing
    import tracer as tracing
    import workloads

    # The traced run reports raw times: a probe inside a traced span would
    # count as that layer's time.
    pace = None if args.trace else pacing.Pace()
    workdir = SCRATCH / f"{args.workload}-{os.getpid()}"
    try:
        if pace is not None:
            pace.start()
        setup_s, wl = set_up(args, workloads, pace, workdir)
        rec = workloads.Recorder(pace)
        if args.trace:
            tr = tracing.Tracer()
            plain, traced = run_cycles(wl, rec, args.seconds, tr)
            metrics = tracing.layer_metrics(tr)
            overhead = None
            if plain.samples["main"] and traced.samples["main"]:
                overhead = (statistics.median(traced.samples["main"])
                            / statistics.median(plain.samples["main"]) - 1.0)
            metrics["trace.overhead_share"] = (overhead, "share")
            rec.attempted += traced.attempted
            rec.failed += traced.failed
            rec.errors += traced.errors
            counted = (plain, traced)
        else:
            run_cycles(wl, rec, args.seconds)
            pace.stop()
            metrics = end_to_end(wl, rec, setup_s)
            counted = (rec,)
        wl.finish(rec)
    finally:
        if pace is not None:
            pace.stop()
        shutil.rmtree(workdir, ignore_errors=True)
        if SCRATCH.is_dir() and not any(SCRATCH.iterdir()):
            SCRATCH.rmdir()

    print(f"gaitlab benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace} size={args.size}")
    print("environment: " + json.dumps(environment(gaitlab), sort_keys=True))
    for label, r in zip(("untraced", "traced"), counted):
        print(f"calls ({label}): " + ", ".join(f"{k}={len(v)}" for k, v in sorted(r.samples.items())))
    if pace is not None and pace.times:
        print("unpaced median ms: " + ", ".join(
            f"{k}={1000 * statistics.median(v):.4g}" for k, v in sorted(rec.samples.items()) if v))
        print(f"pace: {len(pace.times)} probes, median speed " + ", ".join(
            f"{p}={statistics.median(pacing.NOMINAL_S[p] / d for d in v):.3f}"
            for p, v in pace.probes.items()))
    if getattr(wl, "falls", None) is not None:
        print(f"falls (expected, not failures): {wl.falls}")
    if gaitlab.NUMBA_ENABLED and args.trace:
        print("note: numba compiles run_closed_loop, so the kernel split of the closed loop "
              "is unavailable: " + ", ".join(sorted(tracing.KERNEL_SPLIT)) + " read null")
    for err in rec.errors[:10]:
        print("failed: " + err)
    measured = args.trace == 1 or all(v is not None for v, _ in metrics.values())
    result = {
        "correct": rec.failed == 0 and measured,
        "attempted": rec.attempted,
        "failed": rec.failed,
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
