"""Smoke test of the benchmark's wiring: its self-check must pass.

perfbench/selfcheck.py runs every workload once at toy size, untraced and
traced, and fails if an output is wrong, a span misnests, or a layer
counter the workload should drive reads 0 (for example
stmodule.action.self_s on steinberg).  A refactor that renames or
rebinds a wrapped function shows up here.
"""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_perfbench_selfcheck_passes():
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "selfcheck.py")],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
