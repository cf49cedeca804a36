"""Command-line front end: run an ensemble and write CSV/JSON outputs.

Each run writes into one directory: delta_hist.csv, conditional_mean.csv,
e0_hist.csv (one file per figure-style output) and summary.json. The files
are written in a temporary directory beside it and moved in only once all
are written, summary.json last. Exit statuses: 0 success, 1 usage, 2 I/O
failure, 3 numeric-quality breach, 4 resources exhausted (out of memory, or
a worker process killed, as by the kernel's out-of-memory killer).

Before a run, the CLI process asks glibc's malloc to keep the memory it
frees: arrays up to 32 MiB come from the heap, whose top goes back to the
system only beyond 64 MiB. Each chunk's arrays (0.1-2.6 MB) then reuse
pages the chunk before it left resident, instead of being mapped, faulted
in page by page and unmapped again. Forked workers inherit the setting.
Where malloc is not glibc's, it is left as it is; importing the package
changes nothing. No output byte depends on it.

The program entry, `run`, freezes the objects the imports made
(`gc.freeze`) before the run, so neither the run's collections nor the
interpreter's exit walk and free them; the system reclaims that memory with
the process, and forked workers inherit the frozen heap. `main` leaves the
collector alone, for in-process callers.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes  # already imported by numpy
import gc
import json
import os
import shutil
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path

from .errors import NumericError, ResourceError, UsageError, require_integer
from .experiment import (
    MAX_BINS,
    MAX_TRIALS,
    ConditionalProfile,
    EnsembleSpec,
    Histogram,
    available_cpus,
    conditional_mean,
    histogram_delta,
    run_ensemble,
)
from .experiment import entanglement_histogram  # noqa: F401 - bench/tracer.py wraps it here

OUTPUT_DIR_ENV = "ENTLAB_OUTPUT_DIR"

# glibc's mallopt parameters (malloc.h) and the values the CLI sets
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3
MMAP_THRESHOLD = 32 << 20  # the ceiling glibc's own dynamic threshold reaches on 64-bit
TRIM_THRESHOLD = 2 * MMAP_THRESHOLD  # the ratio of the two that glibc's dynamic rule keeps

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_IO = 2
EXIT_NUMERIC = 3
EXIT_RESOURCES = 4


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
    p.add_argument("--workers", default="auto",
                   help="process count, this one included (capped at the CPU and chunk counts), or 'auto'")
    p.add_argument("--output-dir", default=None,
                   help=f"output directory (default ./out, overridable via ${OUTPUT_DIR_ENV})")
    p.add_argument("--formats", default="csv,json",
                   help="comma-separated subset of {csv,json} to write")
    return p


def parse_args(argv: list[str]) -> RunConfig:
    """Parse flags into a validated RunConfig; raises UsageError on bad input."""
    ns = _build_parser().parse_args(argv)
    require_integer("--trials", ns.trials, 1, MAX_TRIALS)
    require_integer("--delta-bins", ns.delta_bins, 2, MAX_BINS)
    require_integer("--e0-bins", ns.e0_bins, 2, MAX_BINS)
    if ns.workers == "auto":
        workers = available_cpus()
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
    if ns.output_dir == "":
        raise UsageError("--output-dir must not be empty")
    output_dir = ns.output_dir or os.environ.get(OUTPUT_DIR_ENV) or "out"  # an empty variable counts as unset
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
    edges, counts, mean = prof.hist.edges, prof.hist.counts, prof.mean_ef
    lines = ["e0_lo,e0_hi,mean_ef,count"]
    for i in range(prof.hist.bin_count):
        lines.append(f"{_fmt(edges[i])},{_fmt(edges[i + 1])},{_fmt(mean[i])},{int(counts[i])}")  # NaN as "nan"
    path.write_text("\n".join(lines) + "\n")


def _mallopt():
    """glibc's `mallopt`, or None where the C library has none."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, TypeError, AttributeError):  # no C library to load, or no such symbol
        return None
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    return mallopt


def _keep_freed_memory() -> None:
    """Keep freed chunk temporaries in this process's heap for reuse (see
    the module docstring). Arrays above MMAP_THRESHOLD, such as a run's
    per-trial arrays from about 4M trials up, are still mapped and returned
    to the system on free."""
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def execute(config: RunConfig) -> int:
    """Run the configured ensemble and write the requested outputs."""
    t0 = time.monotonic()
    spec = EnsembleSpec(kind=config.ensemble, trials=config.trials, seed=config.seed)
    out = Path(config.output_dir)
    created = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    tmp = None
    try:
        # both directories exist before the run, so an unusable output
        # directory fails at once, not after the whole ensemble
        out.mkdir(parents=True, exist_ok=True)
        # the files are written next to `out` and then moved in one by one,
        # summary.json last, so a failed write leaves the previous set whole
        tmp = Path(tempfile.mkdtemp(prefix=".entlab-", dir=out.parent))
        result = run_ensemble(spec, workers=config.workers)
        delta_hist = histogram_delta(result, config.delta_bins)
        profile = conditional_mean(result, config.e0_bins)  # its `hist` is the E_0 histogram
        if "csv" in config.formats:
            _write_histogram_csv(tmp / "delta_hist.csv", delta_hist)
            _write_histogram_csv(tmp / "e0_hist.csv", profile.hist)
            _write_profile_csv(tmp / "conditional_mean.csv", profile)
        if "json" in config.formats:
            summary = {
                "config": {**asdict(config), "formats": list(config.formats)},
                "mean_e0": float(result.e0.mean()),
                "mean_ef": float(result.ef.mean()),
                "mean_delta": delta_hist.mean,  # both from histogram_delta's one pass
                "zero_delta_fraction": delta_hist.zero_fraction,
                "failures": result.failures,
                "workers_used": result.processes,
                "wall_time_s": time.monotonic() - t0,
            }
            (tmp / "summary.json").write_text(json.dumps(summary, indent=2) + "\n")
        for path in sorted(tmp.iterdir(), key=lambda p: p.name == "summary.json"):
            os.replace(path, out / path.name)
        created = []  # the run succeeded: keep the directories it made
    finally:
        if tmp is not None:
            shutil.rmtree(tmp, ignore_errors=True)
        for d in created:  # a failed run removes the directories it made, if they are still empty
            with contextlib.suppress(OSError):
                d.rmdir()
    return EXIT_OK


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        config = parse_args(argv)
        _keep_freed_memory()
        return execute(config)
    except SystemExit as exc:  # --help
        return int(exc.code or 0)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO
    except NumericError as exc:
        print(f"numeric quality breach: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (MemoryError, ResourceError) as exc:
        print(f"resources exhausted: {str(exc) or 'out of memory'}", file=sys.stderr)
        return EXIT_RESOURCES


def run() -> int:
    """The program entry (`python -m entlab.cli` and the `entlab` script):
    `main` on sys.argv, with the import-time heap frozen first."""
    gc.freeze()
    return main()


if __name__ == "__main__":
    raise SystemExit(run())
