"""The benchmark's tracer still finds every pal function it wraps."""

from __future__ import annotations

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_bench_tracer_installs():
    # Tracer.install reads each wrap target from its owner's namespace, so a
    # renamed or deleted pal function makes it raise
    code = ("import sys; sys.path[:0] = ['src', 'bench']; "
            "from tracer import Tracer; Tracer().install()")
    proc = subprocess.run([sys.executable, "-c", code], cwd=ROOT,
                          capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
