import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent

SAMPLE = '''"""Module docstring,
over two lines."""

import os  # a comment on a code line

# a comment line


def f(x):
    """Function docstring."""
    s = """a string in an
expression"""
    return x + len(s)


class C:
    """Class docstring."""

    y = 1
'''


@pytest.fixture(scope="module")
def tool():
    spec = importlib.util.spec_from_file_location("count_code_lines", ROOT / "tools" / "count_code_lines.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_counts_code_not_docstrings_comments_or_blanks(tool, tmp_path):
    path = tmp_path / "sample.py"
    path.write_text(SAMPLE)
    # import, def, the two lines of the string in an expression, return, class, y = 1
    assert tool.code_lines(path) == 7


def test_totals_with_and_without_the_tables(tool, tmp_path, capsys):
    (tmp_path / "a.py").write_text("x = 1\ny = 2\n")
    (tmp_path / f"{tool.TABLES}.py").write_text("T = (\n    1,\n)\n")
    assert tool.main([str(tmp_path)]) == 0
    rows = [line.rsplit(None, 1) for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a", "2"], [tool.TABLES, "3"], ["total", "5"], [f"total without {tool.TABLES}", "2"]]
