#!/usr/bin/env python3
"""Run the benchmark over several seeds and summarize each metric.

    python3 perfbench/spread.py --seeds 1-10 [--workloads tune,sweep] [--trace 0] --out FILE

For every workload and metric it records the values, the median, the
quartiles (``statistics.quantiles(values, n=4)``) and the spread, which is
the distance between the quartiles as a share of the median.  The output
JSON also holds the environment line of the first run and, per run, the
check counts and the wall time.
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text):
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_once(workload, seed, seconds, trace):
    t0 = time.perf_counter()
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True, text=True, timeout=600, cwd=HERE.parent,
    )
    if out.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {out.returncode}:\n{out.stderr}")
    lines = out.stdout.strip().splitlines()
    env = next(json.loads(line.split(": ", 1)[1]) for line in lines if line.startswith("environment: "))
    result = json.loads(lines[-1])
    result["wall_s"] = time.perf_counter() - t0
    return result, env


def describe(values):
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else None,
            "values": values}


def main():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    args = parser.parse_args()

    report = {"seconds": args.seconds, "trace": args.trace, "workloads": {}}
    for workload in args.workloads.split(","):
        values, checks = {}, []
        for seed in parse_seeds(args.seeds):
            result, env = run_once(workload, seed, args.seconds, args.trace)
            report.setdefault("environment", env)
            checks.append({k: result[k] for k in ("correct", "attempted", "failed", "wall_s")})
            for name, m in result["metrics"].items():
                values.setdefault(name, []).append(m["value"])
            print(workload, seed, json.dumps(result["metrics"]), flush=True)
        report["workloads"][workload] = {
            "runs": checks,
            "metrics": {name: describe(v) for name, v in values.items() if None not in v},
        }
        for name, s in report["workloads"][workload]["metrics"].items():
            print(f"{workload:10s} {name:32s} median={s['median']:.6g} spread={s['spread']}")
    Path(args.out).write_text(json.dumps(report, indent=1) + "\n")


if __name__ == "__main__":
    main()
