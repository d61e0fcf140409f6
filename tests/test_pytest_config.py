"""The repository's pytest settings keep one failing property test from
ending the whole session.

Warnings are errors under pyproject.toml.  When a ``@given`` test fails,
hypothesis's pytest plugin imports libcst to print the failing example,
and libcst's use of ``mypy_extensions.TypedDict`` warns on import.  As an
error, that warning is an INTERNALERROR and the tests after the failing
one never run.  The probe below runs under the repository's settings in
a temporary directory, so the checkout stays clean.
"""

import subprocess
import sys
from pathlib import Path

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"

PROBE = """
from hypothesis import given, settings
from hypothesis import strategies as st


@settings(max_examples=5, derandomize=True, database=None)
@given(st.integers())
def test_fails(x):
    assert x != x


def test_passes():
    pass
"""


def test_a_failing_given_test_does_not_end_the_session(tmp_path):
    (tmp_path / "test_probe.py").write_text(PROBE)
    run = subprocess.run(
        [
            sys.executable, "-m", "pytest", "-c", str(PYPROJECT), "-p", "no:cacheprovider",
            "--rootdir", str(tmp_path), "test_probe.py",
        ],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert "INTERNALERROR" not in run.stdout + run.stderr
    assert "1 failed, 1 passed" in run.stdout
