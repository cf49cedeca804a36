import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("startup_anatomy", ROOT / "tools" / "startup_anatomy.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_smoke(tool, capsys):
    """One process per workload: a header, then one row of medians per
    workload, each a non-negative number, the collections a count and the
    set-up probe's wall time positive."""
    assert tool.main(["--runs", "1"]) == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["workload", *tool.COLUMNS]
    assert [row[0] for row in rows] == ["pure-serial", "mixed-serial", "pure-parallel"]
    assert all(float(value) >= 0 for row in rows for value in row[1:])
    assert all(row[1 + tool.COLUMNS.index("gcs")].isdecimal() for row in rows)
    assert "setup_ms" in tool.COLUMNS
    assert all(float(row[1 + tool.COLUMNS.index("setup_ms")]) > 0 for row in rows)


def test_two_trees(tool, capsys):
    """Two trees in one invocation, here this tree twice: one row per
    workload and tree, labelled by the tree's place among the `--src`
    arguments, each a non-negative number."""
    src = str(ROOT / "src")
    assert tool.main(["--runs", "1", "--src", src, "--src", src]) == 0
    header, *rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert header == ["workload", *tool.COLUMNS]
    assert [row[0] for row in rows] == [f"{name}:{k}" for name in ("pure-serial", "mixed-serial", "pure-parallel")
                                        for k in (1, 2)]
    assert all(len(row) == 1 + len(tool.COLUMNS) and float(value) >= 0 for row in rows for value in row[1:])
