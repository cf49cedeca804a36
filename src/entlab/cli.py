"""Command-line front end: run an ensemble and write CSV/JSON outputs.

Each run writes into one directory: delta_hist.csv, conditional_mean.csv,
e0_hist.csv (one file per figure-style output) and summary.json. Exit
statuses: 0 success, 1 usage, 2 I/O failure, 3 numeric-quality breach.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from dataclasses import asdict, dataclass
from pathlib import Path

import numpy as np

from .errors import NumericError, UsageError
from .experiment import (
    ConditionalProfile,
    EnsembleSpec,
    Histogram,
    conditional_mean,
    entanglement_histogram,
    histogram_delta,
    run_ensemble,
)

OUTPUT_DIR_ENV = "ENTLAB_OUTPUT_DIR"
MAX_BINS = 10**6  # per histogram: far finer than any plot needs, and its arrays stay small

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3


@dataclass(frozen=True)
class RunConfig:
    ensemble: str
    trials: int
    seed: int
    delta_bins: int
    e0_bins: int
    workers: int
    output_dir: str
    formats: tuple[str, ...]


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    p = _Parser(prog="entlab", description=__doc__, add_help=True)
    p.add_argument("--ensemble", choices=["pure", "mixed"], default="pure",
                   help="which population of initial states to survey")
    p.add_argument("--trials", type=int, default=1_000_000, help="number of Monte Carlo trials")
    p.add_argument("--seed", type=int, default=42, help="64-bit decimal seed")
    p.add_argument("--delta-bins", type=int, default=100, help="bins for the delta-E histogram over [-1, 1]")
    p.add_argument("--e0-bins", type=int, default=50, help="bins over initial EoF in [0, 1]")
    p.add_argument("--workers", default="auto", help="worker process count, or 'auto'")
    p.add_argument("--output-dir", default=None,
                   help=f"output directory (default ./out, overridable via ${OUTPUT_DIR_ENV})")
    p.add_argument("--formats", default="csv,json",
                   help="comma-separated subset of {csv,json} to write")
    return p


def parse_args(argv: list[str]) -> RunConfig:
    """Parse flags into a validated RunConfig; raises UsageError on bad input."""
    ns = _build_parser().parse_args(argv)
    if ns.trials < 1:
        raise UsageError("--trials must be >= 1")
    for flag, bins in (("--delta-bins", ns.delta_bins), ("--e0-bins", ns.e0_bins)):
        if not 2 <= bins <= MAX_BINS:
            raise UsageError(f"{flag} must lie in [2, {MAX_BINS}], got {bins}")
    if ns.workers == "auto":  # the CPUs this process may run on, where the OS reports them
        workers = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    else:
        try:
            workers = int(ns.workers)
        except ValueError:
            raise UsageError(f"--workers must be an integer or 'auto', got {ns.workers!r}") from None
        if workers < 1:
            raise UsageError("--workers must be >= 1")
    formats = tuple(f for f in ns.formats.split(",") if f)
    bad = [f for f in formats if f not in ("csv", "json")]
    if bad or not formats:
        raise UsageError(f"--formats must be a non-empty subset of csv,json, got {ns.formats!r}")
    output_dir = ns.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "out"
    return RunConfig(
        ensemble=ns.ensemble,
        trials=ns.trials,
        seed=ns.seed,
        delta_bins=ns.delta_bins,
        e0_bins=ns.e0_bins,
        workers=workers,
        output_dir=output_dir,
        formats=formats,
    )


def _fmt(x: float) -> str:
    """12-significant-digit decimal rendering used by all numeric output."""
    return format(float(x), ".12g")


def _write_histogram_csv(path: Path, hist: Histogram) -> None:
    dens = hist.densities()
    edges = hist.edges
    lines = ["bin_lo,bin_hi,count,density"]
    for i in range(hist.bin_count):
        lines.append(f"{_fmt(edges[i])},{_fmt(edges[i + 1])},{int(hist.counts[i])},{_fmt(dens[i])}")
    path.write_text("\n".join(lines) + "\n")


def _write_profile_csv(path: Path, prof: ConditionalProfile) -> None:
    lines = ["e0_lo,e0_hi,mean_ef,count"]
    for i in range(prof.mean_ef.shape[0]):
        mean = _fmt(prof.mean_ef[i]) if np.isfinite(prof.mean_ef[i]) else "nan"
        lines.append(f"{_fmt(prof.edges[i])},{_fmt(prof.edges[i + 1])},{mean},{int(prof.counts[i])}")
    path.write_text("\n".join(lines) + "\n")


def execute(config: RunConfig) -> int:
    """Run the configured ensemble and write the requested outputs."""
    t0 = time.monotonic()
    spec = EnsembleSpec(kind=config.ensemble, trials=config.trials, seed=config.seed)
    result = run_ensemble(spec, workers=config.workers)
    delta_hist = histogram_delta(result, config.delta_bins)
    e0_hist = entanglement_histogram(result, config.e0_bins)
    profile = conditional_mean(result, config.e0_bins)

    out = Path(config.output_dir)
    out.mkdir(parents=True, exist_ok=True)
    if "csv" in config.formats:
        _write_histogram_csv(out / "delta_hist.csv", delta_hist)
        _write_histogram_csv(out / "e0_hist.csv", e0_hist)
        _write_profile_csv(out / "conditional_mean.csv", profile)
    if "json" in config.formats:
        half_width = delta_hist.bin_width / 2.0
        summary = {
            "config": {**asdict(config), "formats": list(config.formats)},
            "mean_e0": float(result.e0.mean()),
            "mean_ef": float(result.ef.mean()),
            "mean_delta": float(result.delta.mean()),
            "zero_delta_fraction": float(np.mean(np.abs(result.delta) < half_width)),
            "failures": result.failures,
            "wall_time_s": time.monotonic() - t0,
        }
        (out / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_args(argv)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    try:
        return execute(config)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"numeric quality breach: {exc}", file=sys.stderr)
        return EXIT_NUMERIC


if __name__ == "__main__":
    raise SystemExit(main())
