"""The benchmark's per-layer tracer still finds every layer it wraps.

perfbench/layers.py patches functions and methods of the program by name; a
layer renamed or moved would read as a per-layer metric of 0. Installing the
tracer runs in a subprocess, so its patches never reach other tests.
"""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

INSTALL = """
import json, sys
sys.path[:0] = sys.argv[1:]
import layers
print(json.dumps(layers.install(layers.Tracer())))
"""


def test_tracer_finds_every_traced_layer():
    proc = subprocess.run(
        [sys.executable, "-c", INSTALL, str(ROOT / "src"), str(ROOT / "perfbench")],
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout.strip().splitlines()[-1]) == []
