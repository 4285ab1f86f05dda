"""Every demo script runs to completion, with warnings as errors."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs_under_warnings_as_errors(demo):
    # a fresh interpreter, so a warning in any import or call ends the run
    proc = subprocess.run(
        [sys.executable, "-W", "error", str(ROOT / "demos" / demo)],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
