"""``import gaitlab`` stays light: the benchmark's ``setup_s`` times exactly this import."""

import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"
# modules gaitlab loads only where a command needs them
DEFERRED = ("multiprocessing", "argparse", "json", "subprocess", "concurrent", "scipy")

PROBE = (
    "import sys; sys.path.insert(0, sys.argv[1]); before = set(sys.modules); import gaitlab; "
    "print(' '.join(sorted({m.split('.')[0] for m in set(sys.modules) - before})))"
)


def test_import_loads_no_deferred_module():
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC)], capture_output=True, text=True, check=True,
        timeout=120,
    )
    loaded = out.stdout.split()
    assert "gaitlab" in loaded
    assert [m for m in DEFERRED if m in loaded] == []
