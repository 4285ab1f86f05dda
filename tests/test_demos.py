"""Every demo script and the README's Python example run to completion, with
warnings as errors, and `import lemnis` alone loads no verification code."""

from __future__ import annotations

import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _fresh(*args):
    return subprocess.run(
        [sys.executable, "-W", "error", *args],
        cwd=ROOT, env={**os.environ, "PYTHONPATH": str(ROOT / "src")},
        capture_output=True, text=True, timeout=120,
    )


@pytest.mark.parametrize("demo", sorted(p.name for p in (ROOT / "demos").glob("*.py")))
def test_demo_runs_under_warnings_as_errors(demo):
    # a fresh interpreter, so a warning in any import or call ends the run
    proc = _fresh(str(ROOT / "demos" / demo))
    assert proc.returncode == 0, proc.stderr


def test_readme_python_example_runs_under_warnings_as_errors():
    blocks = re.findall(r"^```python\n(.*?)^```$", (ROOT / "README.md").read_text(), re.M | re.S)
    assert len(blocks) == 1 and blocks[0].strip()
    proc = _fresh("-c", blocks[0])
    assert proc.returncode == 0, proc.stderr


def test_the_library_import_carries_no_verification_code():
    proc = _fresh("-c", "import sys, lemnis; print(sorted({'lemnis.verify', 'lemnis.cli', 'numpy'} & set(sys.modules)))")
    assert (proc.returncode, proc.stdout) == (0, "[]\n"), proc.stderr
