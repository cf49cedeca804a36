#!/usr/bin/env python3
"""Count the code lines of a Python package, per module and in total.

Usage (from the repository root):

    python3 tools/count_code_lines.py [PACKAGE_DIR]

PACKAGE_DIR defaults to src/entlab. A code line is a line that holds a
token of Python code, read with `tokenize`: blank lines, comments and
docstrings do not count. A docstring is a string that stands alone as a
statement (the first statement of a module, class or function, or any
other bare string); a string that is part of an expression counts on every
line it spans. The totals are printed with and without `ziggurat_tables`,
the generated table module.
"""

from __future__ import annotations

import sys
import tokenize
from pathlib import Path

TABLES = "ziggurat_tables"
_SKIPPED = {tokenize.ENCODING, tokenize.NL, tokenize.COMMENT}
_LAYOUT = {tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT, tokenize.ENDMARKER}


def code_lines(path: Path) -> int:
    """The number of lines of `path` that hold a code token."""
    with open(path, "rb") as fh:
        significant = [t for t in tokenize.tokenize(fh.readline) if t.type not in _SKIPPED]
    rows: set[int] = set()
    for i, tok in enumerate(significant):
        if tok.type in _LAYOUT:
            continue
        before = significant[i - 1].type if i else tokenize.NEWLINE
        after = significant[i + 1].type if i + 1 < len(significant) else tokenize.NEWLINE
        standalone_string = (
            tok.type == tokenize.STRING
            and before in (tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT)
            and after == tokenize.NEWLINE
        )
        if not standalone_string:
            rows.update(range(tok.start[0], tok.end[0] + 1))
    return len(rows)


def main(argv: list[str]) -> int:
    package = Path(argv[0]) if argv else Path("src/entlab")
    counts = {p.stem: code_lines(p) for p in sorted(package.glob("*.py"))}
    if not counts:
        print(f"no Python modules in {package}", file=sys.stderr)
        return 1
    for name, n in counts.items():
        print(f"{name:30} {n:5}")
    total = sum(counts.values())
    print(f"{'total':30} {total:5}")
    print(f"{'total without ' + TABLES:30} {total - counts.get(TABLES, 0):5}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
