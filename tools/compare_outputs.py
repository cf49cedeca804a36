#!/usr/bin/env python3
"""Compare the CLI outputs of two entlab source trees on the same configurations.

Usage (from the repository root):

    python3 tools/compare_outputs.py PARENT_SRC CHANGE_SRC [--seed N] [--workers N]

PARENT_SRC and CHANGE_SRC are checkouts of the repository or their `src`
directories. For each configuration in CONFIGS (both ensembles at 50000
and 200000 trials, `mixed` at 10^6 and `pure` at 524288, the benchmark's
peak-memory run, and `pure` at 10^7, whose peak memory should equal that
of the smaller runs, with the default 100 delta-E and 50 E_0 bins;
`mixed` at 200000 trials with 7 and 3 bins, for uneven delta-E edges, an
E_0 bin that sums ~2e5 values and a NaN mean; and `pure` at 16384 trials
with 10^6 delta-E and 50 E_0 bins, whose peak memory its O(bins) arrays
set), the CLI runs once from each tree, as `python3 -m entlab.cli` with
that tree on PYTHONPATH, into a temporary directory (named relative to
the run's working directory, so both runs echo the same `output_dir`).
The script prints, per configuration, whether each CSV is
byte-identical; which `summary.json` keys differ, of all but the three
means and `wall_time_s` (the config echo, `zero_delta_fraction`,
`failures` and `workers_used`), naming a field of the config echo as
`config.<field>`; and the relative difference between the two files'
values of each mean, by name. `mean_e0` and `mean_ef` are exact sums
rounded once, and `mean_delta` their exact difference rounded once, so a
mean moves only when an E value does, as with the kernels' rounding, or
when a change redefines it. It also prints each run's wall time, CPU
seconds (user + system), peak memory (max RSS) and minor page faults,
parent first; all but the wall time are as `os.wait4` reports them for
the CLI process and the workers it forked. The summary keys and the
costs are for reading only: the script exits 1 if any CSV differs and 2
if a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple

# (ensemble, trials, delta-E bins, E_0 bins)
CONFIGS = (
    ("pure", 50_000, 100, 50),
    ("mixed", 50_000, 100, 50),
    ("pure", 200_000, 100, 50),
    ("mixed", 200_000, 100, 50),
    ("mixed", 1_000_000, 100, 50),
    ("pure", 524_288, 100, 50),
    ("pure", 10_000_000, 100, 50),
    ("mixed", 200_000, 7, 3),
    ("pure", 16_384, 10**6, 50),
)
CSV_FILES = ("delta_hist.csv", "e0_hist.csv", "conditional_mean.csv")
MEANS = ("mean_e0", "mean_ef", "mean_delta")
UNCOMPARED = (*MEANS, "wall_time_s")  # summary keys left out of the exact comparison


def source_dir(tree: Path) -> Path:
    """The directory holding the `entlab` package: `tree` itself or its `src`."""
    for src in (tree / "src", tree):
        if (src / "entlab" / "cli.py").is_file():
            return src.resolve()
    raise SystemExit(f"error: no entlab sources under {tree}")


class Usage(NamedTuple):
    """What one CLI run cost, with the workers it forked."""

    wall_s: float
    cpu_s: float
    max_rss_mib: float
    minor_faults: int


def run_cli(src: Path, out: Path, ensemble: str, trials: int, seed: int, workers: int,
            delta_bins: int = 100, e0_bins: int = 50) -> Usage:
    argv = [sys.executable, "-m", "entlab.cli", "--ensemble", ensemble, "--trials", str(trials),
            "--delta-bins", str(delta_bins), "--e0-bins", str(e0_bins),
            "--seed", str(seed), "--workers", str(workers), "--output-dir", out.name]
    with tempfile.TemporaryFile() as log:  # a file, not a pipe: the child never blocks on a full pipe
        start = time.monotonic()
        proc = subprocess.Popen(argv, cwd=out.parent, env=dict(os.environ, PYTHONPATH=str(src)), stdout=log, stderr=log)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
            wall = time.monotonic() - start
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode:
            log.seek(0)
            stderr = log.read().decode(errors="replace").strip()
            raise RuntimeError(f"{' '.join(argv)} from {src} exited {proc.returncode}: {stderr}")
    # Linux reports ru_maxrss in KiB
    return Usage(wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0, usage.ru_minflt)


def differing_keys(a: dict, b: dict, prefix: str = "") -> list[str]:
    """The keys whose values differ between a and b, a key missing on one
    side included; within a value that is a dict on both sides, the
    differing sub-keys, as `key.subkey`."""
    keys = []
    for k in {**a, **b}:
        va, vb = a.get(k), b.get(k)
        if isinstance(va, dict) and isinstance(vb, dict):
            keys += differing_keys(va, vb, f"{prefix}{k}.")
        elif va != vb:
            keys.append(prefix + k)
    return keys


def compare(a: Path, b: Path) -> tuple[list[str], dict[str, float], list[str]]:
    """The CSVs whose bytes differ between output directories a and b, the
    relative difference between their values of each summary mean, by name,
    and the other summary keys, bar `wall_time_s`, whose values differ."""
    differ = [name for name in CSV_FILES if (a / name).read_bytes() != (b / name).read_bytes()]
    sa, sb = (json.loads((d / "summary.json").read_text()) for d in (a, b))
    rel = {k: abs(sa[k] - sb[k]) / max(abs(sa[k]), abs(sb[k]), 1e-300) for k in MEANS}
    return differ, rel, [k for k in differing_keys(sa, sb) if k not in UNCOMPARED]


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
        sides = [Path(tmp, side) for side in ("parent", "change")]
        for side in sides:
            side.mkdir()
        for ensemble, trials, delta_bins, e0_bins in CONFIGS:
            outs = [side / f"{ensemble}-{trials}-{delta_bins}-{e0_bins}" for side in sides]
            try:
                parent, change = [run_cli(src, out, ensemble, trials, args.seed, args.workers, delta_bins, e0_bins)
                                  for src, out in zip(trees, outs)]
            except RuntimeError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 2
            differ, rel, keys = compare(*outs)
            differing += len(differ)
            csvs = "CSVs identical" if not differ else "CSVs DIFFER: " + ", ".join(differ)
            others = "other summary keys identical" if not keys else "other summary keys DIFFER: " + ", ".join(keys)
            means = ", ".join(f"{k} {r:.3g}" for k, r in rel.items())
            print(f"{ensemble} {trials} trials, {delta_bins}/{e0_bins} bins (seed {args.seed}, {args.workers} workers): "
                  f"wall {parent.wall_s:.2f} -> {change.wall_s:.2f} s, CPU {parent.cpu_s:.2f} -> {change.cpu_s:.2f} s, "
                  f"max RSS {parent.max_rss_mib:.1f} -> {change.max_rss_mib:.1f} MiB, "
                  f"minor faults {parent.minor_faults} -> {change.minor_faults}; {csvs}; {others}; "
                  f"relative differences of the summary means: {means}")
    return 1 if differing else 0


if __name__ == "__main__":
    raise SystemExit(main())
