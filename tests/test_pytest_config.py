"""The repository's pytest settings: a failing property test reports its
falsifying example, and the tests after it still run."""

import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

PAIR = """
from hypothesis import given, settings, strategies as st


@settings(database=None, derandomize=True)
@given(st.integers())
def test_fails(x):
    assert x < 0


def test_passes():
    pass
"""


def test_failing_property_test_reports_and_the_run_goes_on(tmp_path):
    """Hypothesis imports libcst to report a failing example, and libcst
    warns on a deprecated name; under `filterwarnings = ["error"]` unfiltered,
    that warning is a pytest INTERNALERROR that ends the run unreported."""
    (tmp_path / "test_pair.py").write_text(PAIR)
    argv = [sys.executable, "-m", "pytest", "-c", str(ROOT / "pyproject.toml"), "--rootdir", str(tmp_path),
            "-p", "no:cacheprovider", "test_pair.py"]
    done = subprocess.run(argv, cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert "1 failed, 1 passed" in done.stdout, done.stdout + done.stderr
    assert "Falsifying example" in done.stdout
