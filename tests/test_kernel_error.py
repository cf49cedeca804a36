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


def test_smoke(tool, capsys):
    assert tool.main(["--states", "5", "--seed", "11"]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert [line[:10] for line in lines] == ["W   kernel", "W   oracle", "C W kernel", "C W oracle"]
    number = r"\d\.\d\de[-+]\d\d"
    stats = rf"max {number} median {number} p99 {number}"
    assert all(re.fullmatch(rf".{{11}}C: {stats} \| E: {stats}", line) for line in lines), lines
