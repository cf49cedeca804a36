#!/usr/bin/env python3
"""Read numpy's ziggurat tables for normals out of its static random library.

Usage (from the repository root):

    python3 tools/extract_ziggurat_tables.py > src/entlab/ziggurat_tables.py
    python3 tools/extract_ziggurat_tables.py path/to/libnpyrandom.a

numpy ships `numpy/random/lib/libnpyrandom.a`. Its member
`src_distributions_distributions.c.o` holds the tables of
`random_standard_normal` as the local symbols `ki_double` (256 uint64),
`wi_double` and `fi_double` (256 float64 each) in `.rodata`. This script
takes the member out with `ar p`, reads those symbols from the ELF64 symbol
table with the standard library alone, and prints the table module.
"""

from __future__ import annotations

import struct
import subprocess
import sys
from pathlib import Path

MEMBER = "src_distributions_distributions.c.o"
SYMBOLS = {"ki_double": "<256Q", "wi_double": "<256d", "fi_double": "<256d"}
PER_LINE = 4


def default_archive() -> Path:
    import numpy

    return Path(numpy.__file__).parent / "random" / "lib" / "libnpyrandom.a"


def _symbol_bytes(obj: bytes, names) -> dict[str, bytes]:
    """The bytes of each named symbol of a little-endian ELF64 relocatable object."""
    if obj[:4] != b"\x7fELF" or obj[4] != 2 or obj[5] != 1:
        raise ValueError("not a little-endian ELF64 object")
    shoff, = struct.unpack_from("<Q", obj, 0x28)
    shentsize, shnum = struct.unpack_from("<HH", obj, 0x3A)
    # (type, offset, size, link, entsize) per section header
    sections = [struct.unpack_from("<4xI16xQQI12xQ", obj, shoff + i * shentsize) for i in range(shnum)]
    symtab = next(s for s in sections if s[0] == 2)  # SHT_SYMTAB
    strtab = sections[symtab[3]]
    found = {}
    for at in range(symtab[1], symtab[1] + symtab[2], symtab[4]):
        name_off, shndx, value, size = struct.unpack_from("<I2xHQQ", obj, at)
        end = obj.index(b"\0", strtab[1] + name_off)
        name = obj[strtab[1] + name_off : end].decode()
        if name in names:
            start = sections[shndx][1] + value
            found[name] = obj[start : start + size]
    missing = set(names) - set(found)
    if missing:
        raise ValueError(f"symbols not found: {sorted(missing)}")
    return found


def extract(archive: Path) -> dict[str, tuple]:
    """{'ki': 256 ints, 'wi': 256 floats, 'fi': 256 floats} from the archive."""
    obj = subprocess.run(["ar", "p", str(archive), MEMBER], check=True, capture_output=True).stdout
    raw = _symbol_bytes(obj, SYMBOLS)
    return {name.split("_")[0]: struct.unpack(fmt, raw[name]) for name, fmt in SYMBOLS.items()}


def render(tables: dict[str, tuple], numpy_version: str) -> str:
    def rows(items):
        return "".join("    " + " ".join(items[i : i + PER_LINE]) + "\n" for i in range(0, len(items), PER_LINE))

    return (
        f'''"""The ziggurat tables of numpy's standard normal sampler, as exact literals.

numpy's `random_standard_normal` (Marsaglia and Tsang, J. Stat. Softw. 5(8),
2000) draws one 64-bit word per try and looks up three 256-entry tables:
`KI` (thresholds on the 52-bit magnitude), `WI` (magnitude to value scales)
and `FI` (the density at each layer edge). They were read out of the
`ki_double`, `wi_double` and `fi_double` symbols of numpy {numpy_version}'s
`numpy/random/lib/libnpyrandom.a` by `tools/extract_ziggurat_tables.py`,
which also writes this file. They are the tables of numpy's
`random/src/distributions/ziggurat_constants.h`, which numpy's
`random/src/distributions/LICENSE.md` covers: the BSD 3-clause licence,
Copyright (c) 2005-2017 NumPy Developers, for numpy's code, and the MIT
licence, Copyright (c) 2009-2019 Jeff Bezanson, Stefan Karpinski, Viral B.
Shah and other contributors, for the ziggurat methods numpy derived from
Julia.

Each table is one string of exact hex words, split at import: one constant
compiles faster than 256 literals. `KI` holds the integers; `WI_HEX` and
`FI_HEX` hold the words for `float.fromhex`.
"""

KI = tuple(int(word, 16) for word in """
{rows([hex(k) for k in tables["ki"]])}""".split())
WI_HEX = tuple("""
{rows([w.hex() for w in tables["wi"]])}""".split())
FI_HEX = tuple("""
{rows([f.hex() for f in tables["fi"]])}""".split())
'''
    )


def main(argv: list[str]) -> int:
    import numpy

    archive = Path(argv[0]) if argv else default_archive()
    sys.stdout.write(render(extract(archive), numpy.__version__))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
