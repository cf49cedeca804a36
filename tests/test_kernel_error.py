import importlib.util
import re
from pathlib import Path

import numpy as np
import pytest

pytest.importorskip("mpmath")

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("kernel_error", ROOT / "tools" / "kernel_error.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_kernel_concurrence_against_40_digits(tool):
    """The kernel's concurrence of 150 states the screen leaves, and of 150
    circuit images it leaves, is within 1e-15 of a 40-digit SVD of the same
    float64 M."""
    for name, w in tool.screened_states(11, 150).items():
        exact_c, _ = tool.reference(w)
        c, _ = tool.routes(w)["kernel"]
        assert np.max(tool.abs_errors(c, exact_c)) <= 1e-15, name


def test_pure_concurrence_against_40_digits(tool):
    """The closed form 2|ad - bc| of 300 pure states, and of their 300
    circuit images, is within 1e-15 of the same form taken at 40 digits
    from the same float64 amplitudes."""
    for name, w in tool.pure_states(11, 300).items():
        exact_c, _ = tool.reference(w)
        assert np.max(tool.abs_errors(tool.factor_concurrence(w), exact_c)) <= 1e-15, name


def test_entropy_against_40_digits(tool):
    """E from 2000 concurrences uniform on [0, 1) and 2000 log-uniform on
    [1e-8, 1] is within 5e-16 of the same entropy taken at 40 digits from
    the same float64 C: small E values need h's small argument formed
    without the cancellation of 1 - x, x = (1 + sqrt(1 - C^2)) / 2."""
    c = tool.concurrence_spread(11, 2000)
    assert np.max(tool.abs_errors(tool.eof_from_concurrence(c), tool.eof_reference(c))) <= 5e-16


def test_smoke(tool, capsys):
    assert tool.main(["--states", "5", "--seed", "11"]) == 0
    lines = capsys.readouterr().out.splitlines()
    prefixes = ["W   kernel", "W   oracle", "C W kernel", "C W oracle", "W   pure  ", "C W pure  ", "C   h     "]
    assert [line[:10] for line in lines] == prefixes
    number = r"\d\.\d\de[-+]\d\d"
    stats = rf"max {number} median {number} p99 {number}"
    assert all(re.fullmatch(rf".{{11}}C: {stats} \| E: {stats}", line) for line in lines[:-1]), lines
    assert re.fullmatch(rf"C   h      E: {stats} \| rel: {stats}", lines[-1]), lines[-1]
