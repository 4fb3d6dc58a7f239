#!/usr/bin/env python3
"""Traced run of one workload: per-layer metrics and the tracing overhead.

    python3 perfbench/traced.py --workload sweep --seed 1 --seconds 20

Same as ``python3 perfbench/run.py ... --trace 1``.
"""

import sys

from run import main

if __name__ == "__main__":
    sys.exit(main(sys.argv[1:] + ["--trace", "1"]))
