"""Every demo script, the README's Python example and a 100-sample verify
sweep of all suites run to completion, with warnings as errors; `import
lemnis` alone loads no verification code; and under the repository's pytest
settings a failing property test prints its example while the session goes on."""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import textwrap
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


def test_the_verify_sweep_of_all_suites_passes_under_warnings_as_errors():
    proc = _fresh("-m", "lemnis.cli", "verify", "--suite", "all", "--samples", "100", "--seed", "7")
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout)["pass"] is True


def test_a_failing_property_test_prints_its_example_and_the_session_goes_on(tmp_path):
    # pyproject.toml turns warnings into errors; hypothesis reports a failing
    # example through libcst, whose use of mypy_extensions.TypedDict warns,
    # and without the ignore entry that ends the session before the example
    shutil.copy(ROOT / "pyproject.toml", tmp_path)
    (tmp_path / "test_guard.py").write_text(textwrap.dedent("""\
        from hypothesis import given, strategies as st


        @given(st.integers())
        def test_fails(n):
            assert n < 10


        def test_runs_after():
            pass
    """))
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "test_guard.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "Falsifying example" in proc.stdout, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout + proc.stderr
