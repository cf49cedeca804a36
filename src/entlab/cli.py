"""Command-line front end: run an ensemble and write CSV/JSON outputs.

Each run writes four files into one directory: delta_hist.csv,
conditional_mean.csv, e0_hist.csv (one file per figure-style output) and
summary.json. Exit statuses: 0 success, 1 usage, 2 I/O failure, 3
numeric-quality breach, 4 resources exhausted (out of memory, or a worker
process killed, as by the kernel's out-of-memory killer), 130 interrupted
(SIGINT, as by Ctrl-C), 143 terminated (SIGTERM).

Options, each given as `--name value` or `--name=value`; the last of a
repeated flag wins, and a value is taken as written unless it is a flag:
  -h, --help             print this text and exit
  --ensemble pure|mixed  which population of initial states to survey
                         (default pure)
  --trials N             number of Monte Carlo trials (default 1000000)
  --seed N               64-bit decimal seed (default 42)
  --delta-bins N         bins for the delta-E histogram over [-1, 1]
                         (default 100)
  --e0-bins N            bins over initial EoF in [0, 1] (default 50)
  --workers N|auto       process count, this one included, capped at the
                         CPU and chunk counts; auto, the default, is the
                         CPUs this process may run on
  --output-dir DIR       output directory (default $ENTLAB_OUTPUT_DIR if
                         set and non-empty, else ./out)

The files are written in a temporary directory inside the output directory,
so only the output directory must be writable. Once all are written they
are moved in, summary.json last. A run first takes an exclusive `flock` on
the output directory, held until it returns, and then removes every
temporary directory `.entlab-<pid>-*` there: a run makes its own only
under the lock, so any other is left by a run killed by SIGKILL. A second
run into that directory meanwhile exits 2 ("output directory in use")
before any trial, so two runs cannot mix their files. The forked workers
inherit the lock, which goes with the last process holding it, even one
killed by SIGKILL; where `fcntl` is missing, as on Windows, none is taken
and no directory is removed.

Before a run, the CLI process asks glibc's malloc to keep the memory it
frees: arrays up to 32 MiB come from the heap, whose top goes back to the
system only beyond 64 MiB. Each chunk's arrays (0.1-2.6 MB) then reuse
pages the chunk before it left resident, instead of being mapped, faulted
in page by page and unmapped again. The run's workers, forked with
`os.fork`, inherit the setting.
Where malloc is not glibc's, it is left as it is; importing the package
changes nothing. No output byte depends on it.

Run as the program (`python -m entlab.cli`), the module pauses the cyclic
collector before its imports, which make no garbage, so loading numpy and
the engine costs no collection. The program entry, `run`, then freezes the
objects the imports made (`gc.freeze`) and turns the collector back on,
before the run and before any worker is forked, so neither the run's
collections nor the workers' walk those objects. Once `main` has
returned, `run` runs the atexit handlers, flushes stdout and stderr, and
leaves by `os._exit` with main's status, as the forked workers do: the
interpreter's module teardown is skipped, and the system reclaims that
memory with the process. Under a tracer or profiler (`sys.gettrace`,
`sys.getprofile`: cProfile, trace, pdb), or where a flush fails, `run`
returns the status for a normal shutdown instead. The `entlab` console
script imports this module before it calls `run`, so it gets the exit but
not the paused imports. `run` also makes SIGTERM end the run as SIGINT
does, with the same cleanup. Importing the module, `parse_args` and `main`
leave the collector, the exit and the signal handlers alone, for
in-process callers.
"""

from __future__ import annotations

import gc

PROGRAM = __name__ == "__main__"
if PROGRAM:  # `run` freezes what the imports below make and turns the collector back on
    gc.disable()

import _signal  # loaded at interpreter start-up, where `import signal` would cost ~1 ms
import atexit
import contextlib
import ctypes  # already imported by numpy
import json
import math
import os
import shutil
import sys
import tempfile
import time
from pathlib import Path

from .errors import Frozen, NumericError, ResourceError, UsageError, require_integer
from .experiment import (
    MAX_BINS,
    Binned,
    EnsembleSpec,
    Histogram,
    available_cpus,
    conditional_mean,
    histogram_delta,
    run_ensemble,
)
from .experiment import conditional_mean as entanglement_histogram  # noqa: F401 - bench/tracer.py wraps it here

try:
    import fcntl
except ImportError:  # no flock, as on Windows: runs into one directory are not kept apart
    fcntl = None

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
EXIT_INTERRUPTED = 130  # 128 + SIGINT, the status a shell gives a process SIGINT killed
EXIT_TERMINATED = 143  # 128 + SIGTERM


class Terminated(BaseException):
    """SIGTERM, raised by the handler `run` installs. Like KeyboardInterrupt
    it is no `Exception`, so no `except Exception` on its way stops it."""


def _terminate(signum, frame):
    raise Terminated


class RunConfig(Frozen):
    """One run's settings, checked here for `parse_args` and for in-process
    callers of `execute` alike: the ensemble, trials and seed as
    `EnsembleSpec` checks them, each bin count in [2, MAX_BINS], workers >= 1,
    and a non-empty output directory. Integers are stored as `int`, so
    `vars(config)`, in this order, is `summary.json`'s config echo."""

    def __init__(self, ensemble: str, trials: int, seed: int, delta_bins: int, e0_bins: int, workers: int,
                 output_dir: str):
        EnsembleSpec(kind=ensemble, trials=trials, seed=seed)
        require_integer("--delta-bins", delta_bins, 2, MAX_BINS)
        require_integer("--e0-bins", e0_bins, 2, MAX_BINS)
        require_integer("--workers", workers, 1, math.inf)
        if not isinstance(output_dir, str) or not output_dir:
            raise UsageError(f"--output-dir must be a non-empty string, got {output_dir!r}")
        self._set(ensemble=ensemble, trials=int(trials), seed=int(seed), delta_bins=int(delta_bins),
                  e0_bins=int(e0_bins), workers=int(workers), output_dir=output_dir)


USAGE = """usage: entlab [-h] [--ensemble pure|mixed] [--trials N] [--seed N]
              [--delta-bins N] [--e0-bins N] [--workers N|auto]
              [--output-dir DIR]"""
DEFAULTS = {"--ensemble": "pure", "--trials": 1_000_000, "--seed": 42, "--delta-bins": 100, "--e0-bins": 50,
            "--workers": "auto", "--output-dir": "out"}  # in RunConfig's parameter order


def parse_args(argv: list[str]) -> RunConfig:
    """Turn flags into a RunConfig, which checks them; raises UsageError on
    bad input, and prints the help and raises SystemExit(0) on -h/--help."""
    # an empty variable counts as unset
    values = {**DEFAULTS, "--output-dir": os.environ.get(OUTPUT_DIR_ENV) or DEFAULTS["--output-dir"]}
    args = iter(argv)
    for arg in args:
        if arg in ("-h", "--help"):  # the usage line and the docstring's first three paragraphs (none under -OO)
            print("\n\n".join(filter(None, (USAGE, *(__doc__ or "").split("\n\n")[:3]))))
            raise SystemExit(EXIT_OK)
        flag, eq, text = arg.partition("=")
        if flag not in values:  # a positional, an abbreviation or `--`
            raise UsageError(f"unrecognized argument: {arg}")
        if not eq:
            text = next(args, None)
            if text is None or text in ("-h", "--help") or text.partition("=")[0] in values:
                raise UsageError(f"{flag} expects a value")
        if flag not in ("--ensemble", "--output-dir"):
            with contextlib.suppress(ValueError):  # text that int refuses goes on, for RunConfig to refuse by name
                text = int(text)
        values[flag] = text  # the last of a repeated flag wins; an explicit --output-dir, even "", beats the variable
    values["--workers"] = available_cpus() if values["--workers"] == "auto" else values["--workers"]
    return RunConfig(*values.values())


def _fmt(x: float) -> str:
    """12-significant-digit decimal rendering used by all numeric output."""
    return format(float(x), ".12g")


def _write_histogram_csv(path: Path, hist: Histogram) -> None:
    edges, counts, dens = hist.edges, hist.counts, hist.densities()
    with path.open("w") as f:  # line by line: the file's text is never held whole
        f.write("bin_lo,bin_hi,count,density\n")
        for i in range(hist.bin_count):
            f.write(f"{_fmt(edges[i])},{_fmt(edges[i + 1])},{int(counts[i])},{_fmt(dens[i])}\n")


def _write_profile_csv(path: Path, hist: Histogram) -> None:
    edges, counts, mean = hist.edges, hist.counts, hist.mean_ef
    with path.open("w") as f:
        f.write("e0_lo,e0_hi,mean_ef,count\n")
        for i in range(hist.bin_count):
            f.write(f"{_fmt(edges[i])},{_fmt(edges[i + 1])},{_fmt(mean[i])},{int(counts[i])}\n")  # NaN as "nan"


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
    the module docstring). Arrays above MMAP_THRESHOLD are still mapped and
    returned to the system on free."""
    mallopt = _mallopt()
    if mallopt is not None:
        mallopt(_M_MMAP_THRESHOLD, MMAP_THRESHOLD)
        mallopt(_M_TRIM_THRESHOLD, TRIM_THRESHOLD)


def _remove_orphans(out: Path) -> None:
    """Remove each temporary directory `.entlab-<pid>-*` in `out`, called with
    `out`'s lock held: a run makes its directory only under the lock and
    removes it before the lock goes, so each one seen is a dead run's, as a
    run killed by SIGKILL leaves it. Other names are left alone."""
    for tmp in out.glob(".entlab-*-*"):
        if tmp.name.split("-")[1].isdecimal():
            shutil.rmtree(tmp, ignore_errors=True)


def execute(config: RunConfig) -> int:
    """Run the configured ensemble and write its four outputs."""
    t0 = time.monotonic()
    spec = EnsembleSpec(kind=config.ensemble, trials=config.trials, seed=config.seed)
    out = Path(config.output_dir)
    created = [d for d in (out, *out.parents) if not d.exists()]  # deepest first
    tmp = lock = None
    try:
        # both directories exist before the run, so an unusable output
        # directory fails at once, not after the whole ensemble
        out.mkdir(parents=True, exist_ok=True)
        if fcntl is not None:
            lock = os.open(out, os.O_RDONLY)
            try:
                fcntl.flock(lock, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                created = []  # the run that holds the lock may have made them
                raise OSError("output directory in use") from None
            _remove_orphans(out)
        # the files are written inside `out`, on its filesystem, and then moved
        # in one by one, summary.json last, so a failed write leaves the previous set whole
        tmp = Path(tempfile.mkdtemp(prefix=f".entlab-{os.getpid()}-", dir=out))
        # each chunk binned and summed where it ran: no per-trial array is kept
        result = run_ensemble(spec, workers=config.workers, reducer=Binned(config.delta_bins, config.e0_bins))
        delta_hist = histogram_delta(result, config.delta_bins)
        e0_hist = conditional_mean(result, config.e0_bins)  # the E_0 histogram, with the E_F means
        _write_histogram_csv(tmp / "delta_hist.csv", delta_hist)
        _write_histogram_csv(tmp / "e0_hist.csv", e0_hist)
        _write_profile_csv(tmp / "conditional_mean.csv", e0_hist)
        summary = {
            "config": vars(config),
            "mean_e0": e0_hist.mean,  # each mean an exact sum, rounded once, over the trial count
            "mean_ef": e0_hist.mean_weight,
            "mean_delta": delta_hist.mean,
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
        if lock is not None:
            os.close(lock)
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
    except KeyboardInterrupt:  # SIGINT: the `finally` blocks have stopped the workers and removed the directories
        print("interrupted", file=sys.stderr)
        return EXIT_INTERRUPTED
    except Terminated:  # SIGTERM, where `run` installed its handler: the same cleanup has run
        print("terminated", file=sys.stderr)
        return EXIT_TERMINATED


def run() -> int:
    """The program entry (`python -m entlab.cli` and the `entlab` script):
    `main` on sys.argv, with the import-time heap frozen and the collector
    on, and SIGTERM raising `Terminated`. A forked worker inherits the
    handler: SIGTERM sent to it alone ends it by `os._exit(0)`, and the
    calling process reruns its chunks. After `main`, the atexit handlers run
    and the process leaves by `os._exit` with main's status; it returns the
    status instead under a tracer or profiler, or where a flush fails, for
    the interpreter's own shutdown (see the module docstring)."""
    gc.freeze()
    gc.enable()
    _signal.signal(_signal.SIGTERM, _terminate)
    status = main()
    if sys.gettrace() is None and sys.getprofile() is None:
        atexit._run_exitfuncs()  # runs each handler once: none is left for a later shutdown
        try:
            for stream in filter(None, (sys.stdout, sys.stderr)):  # None where the process started with it closed
                stream.flush()
        except OSError:  # the shutdown reports it, and exits 120, as it would without `os._exit`
            return status
        os._exit(status)
    return status


if __name__ == "__main__":
    raise SystemExit(run())
