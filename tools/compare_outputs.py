#!/usr/bin/env python3
"""Compare the CLI outputs of two entlab source trees on the same configurations.

Usage (from the repository root):

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--seed N] [--workers N]

PARENT_SRC and CHANGE_SRC are checkouts of the repository or their `src`
directories. For each configuration in CONFIGS (both ensembles at 50000
and 200000 trials and `mixed` at 10^6, with the default 100 delta-E and 50
E_0 bins; and `mixed` at 200000 trials with 7 and 3 bins, for uneven
delta-E edges, an E_0 bin that sums ~2e5 values and a NaN mean), the CLI
runs once from each tree, as
`python3 -m entlab.cli` with that tree on PYTHONPATH, into a temporary
directory. The script prints, per configuration, whether each CSV is
byte-identical, and the largest relative difference between the means in
the two `summary.json` files (they may move in their last digits when the
kernels' rounding does). It also prints each run's peak memory (max RSS)
and minor page faults, parent first, as `os.wait4` reports them for the CLI
process and the workers it forked; they are for reading only. It exits 1 if
any CSV differs and 2 if a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path
from typing import NamedTuple

# (ensemble, trials, delta-E bins, E_0 bins)
CONFIGS = (
    ("pure", 50_000, 100, 50),
    ("mixed", 50_000, 100, 50),
    ("pure", 200_000, 100, 50),
    ("mixed", 200_000, 100, 50),
    ("mixed", 1_000_000, 100, 50),
    ("mixed", 200_000, 7, 3),
)
CSV_FILES = ("delta_hist.csv", "e0_hist.csv", "conditional_mean.csv")
MEANS = ("mean_e0", "mean_ef", "mean_delta")


def source_dir(tree: Path) -> Path:
    """The directory holding the `entlab` package: `tree` itself or its `src`."""
    for src in (tree / "src", tree):
        if (src / "entlab" / "cli.py").is_file():
            return src.resolve()
    raise SystemExit(f"error: no entlab sources under {tree}")


class Usage(NamedTuple):
    """What one CLI run cost, with the workers it forked."""

    max_rss_mib: float
    minor_faults: int


def run_cli(src: Path, out: Path, ensemble: str, trials: int, seed: int, workers: int,
            delta_bins: int = 100, e0_bins: int = 50) -> Usage:
    argv = [sys.executable, "-m", "entlab.cli", "--ensemble", ensemble, "--trials", str(trials),
            "--delta-bins", str(delta_bins), "--e0-bins", str(e0_bins),
            "--seed", str(seed), "--workers", str(workers), "--output-dir", str(out)]
    with tempfile.TemporaryFile() as log:  # a file, not a pipe: the child never blocks on a full pipe
        proc = subprocess.Popen(argv, env=dict(os.environ, PYTHONPATH=str(src)), stdout=log, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            log.seek(0)
            stderr = log.read().decode(errors="replace").strip()
            raise RuntimeError(f"{' '.join(argv)} from {src} exited {proc.returncode}: {stderr}")
    return Usage(usage.ru_maxrss / 1024.0, usage.ru_minflt)  # Linux reports ru_maxrss in KiB


def compare(a: Path, b: Path) -> tuple[list[str], float]:
    """The CSVs whose bytes differ between output directories a and b, and
    the largest relative difference between their summary means."""
    differ = [name for name in CSV_FILES if (a / name).read_bytes() != (b / name).read_bytes()]
    sa, sb = (json.loads((d / "summary.json").read_text()) for d in (a, b))
    rel = max(abs(sa[k] - sb[k]) / max(abs(sa[k]), abs(sb[k]), 1e-300) for k in MEANS)
    return differ, rel


def main(argv: list[str] | None = None) -> int:
    p = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    p.add_argument("parent", type=Path)
    p.add_argument("change", type=Path)
    p.add_argument("--seed", type=int, default=11)
    p.add_argument("--workers", type=int, default=2)
    args = p.parse_args(argv)
    trees = source_dir(args.parent), source_dir(args.change)
    differing = 0
    with tempfile.TemporaryDirectory(prefix="entlab-compare-") as tmp:
        for ensemble, trials, delta_bins, e0_bins in CONFIGS:
            outs = [Path(tmp) / f"{side}-{ensemble}-{trials}-{delta_bins}-{e0_bins}" for side in ("parent", "change")]
            try:
                parent, change = [run_cli(src, out, ensemble, trials, args.seed, args.workers, delta_bins, e0_bins)
                                  for src, out in zip(trees, outs)]
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            differ, rel = compare(*outs)
            differing += len(differ)
            csvs = "CSVs identical" if not differ else "CSVs DIFFER: " + ", ".join(differ)
            print(f"{ensemble} {trials} trials, {delta_bins}/{e0_bins} bins (seed {args.seed}, {args.workers} workers): "
                  f"max RSS {parent.max_rss_mib:.1f} -> {change.max_rss_mib:.1f} MiB, "
                  f"minor faults {parent.minor_faults} -> {change.minor_faults}; {csvs}; "
                  f"summary means differ by at most {rel:.3g} (relative)")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
