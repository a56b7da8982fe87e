"""The repository's pytest settings, run on a file of their own in a fresh
pytest session."""

import subprocess
import sys
from pathlib import Path

from conftest import fresh_env

PYPROJECT = Path(__file__).resolve().parent.parent / "pyproject.toml"

PROPERTY_TESTS = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x != 0


def test_passes():
    pass
'''


def test_a_failing_property_test_leaves_the_session_running(tmp_path):
    # every warning is an error; hypothesis's report of a failing example
    # imports libcst, which warns on import, and that error inside a hook
    # would end the session as an internal error (exit 3)
    (tmp_path / "test_property.py").write_text(PROPERTY_TESTS)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "--rootdir", str(tmp_path),
         "-p", "no:cacheprovider", "-q", "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, env=fresh_env())
    assert proc.returncode == 1, proc.stdout + proc.stderr
    assert "1 failed, 1 passed" in proc.stdout, proc.stdout
