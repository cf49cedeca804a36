"""Monte Carlo engine: sample states, run the circuit, reduce to statistics.

Trial t of a run draws from substream t of the run seed, so results are
identical whatever the execution order or worker count. A chunk of trials
is sampled by `sampling.sample_chunk`, which draws the whole chunk's raw
numbers in one vectorised pass (no generator per trial) and builds one
stack of factors W of its density matrices, rho = W W^dag, for either
ensemble; the circuit C maps each to C W, and the entanglement kernel
scores the factors. The one retry path: a trial whose sampled state is not
finite (a measure-zero degenerate draw) is redrawn by `_sample_chunk` on
substream t + k * RETRY_STRIDE, k = 1..MAX_RETRIES, before the kernel runs;
each redraw counts against a 1e-6 failure budget. A non-finite E from the
kernel is a numeric failure, never a count in a histogram.

A run allocates its results once, on a shared anonymous mapping, and uses
at most min(workers, chunks, CPUs it may run on) processes, counting its
own. Process p runs chunks p, p + processes, ... in order: process 0 is the
calling process, the others are workers it forks with `os.fork`. For each
chunk it writes E_0 and E_F into their slices in place, then the chunk's
failure count + 1 into the chunk's record beside them, 0 until then. A
process stops at its first chunk that raises. The calling process then
runs its unfinished chunks once more while the workers go on, and kills
them only if that raises too. A worker reports through the mapping alone:
it never prints, and leaves by `os._exit`. The calling process reaps each
worker by pid, so it never reaps a child it did not fork, then runs every
chunk whose record is still 0 itself, in chunk order. A trial is a function
of (seed, t) alone, so the lowest failing chunk raises its error there, as
in a serial run, whichever process met it first; a failure only one process
met costs time, not the run. A worker killed by a signal is a ResourceError.
A worker stops before its next chunk once the process that forked it is
gone, as when the CLI process is killed by SIGKILL. Where `os` has no
`fork`, the run is serial.

The reductions walk a result in CHUNK_SIZE slices, so none of them makes
an array as long as the run: delta E, in particular, is formed a slice at
a time, unless a caller asks for `EnsembleResult.delta`.
"""

from __future__ import annotations

import math
import mmap
import os
import sys
from functools import cached_property

import numpy as np

from .entanglement import eof  # noqa: F401 - looked up here by bench/tracer.py
from .entanglement import factor_eof as eof_batch  # under the name bench/tracer.py wraps
from .errors import Frozen, NumericError, ResourceError, UsageError, require_integer
from .gates import apply_to_factors, circuit
from .sampling import Kind, RandomStream, haar_phase_fix, pure_state_vector  # noqa: F401 - the last three for bench/tracer.py
from .sampling import sample_chunk as _sample_chunk  # under the name bench/tracer.py wraps

CHUNK_SIZE = 8192
RETRY_STRIDE = 1 << 48  # retry k of trial t uses substream t + k * stride
MAX_FAILURE_RATE = 1e-6
MAX_RETRIES = 8
MAX_TRIALS = 10**8
MAX_BINS = 10**6  # per histogram: far finer than any plot needs, and its arrays stay small
MIN_OCCUPANCY = 100  # samples an E_0 bin needs for its mean E_F to be reported


class EnsembleSpec(Frozen):
    """One surveyed population: which measure, how many trials, which seed."""

    def __init__(self, kind: Kind, trials: int, seed: int):
        if kind not in ("pure", "mixed"):
            raise UsageError(f"kind must be 'pure' or 'mixed', got {kind!r}")
        require_integer("trials", trials, 1, MAX_TRIALS)  # the cap is a memory guard
        require_integer("seed", seed, 0, (1 << 64) - 1)
        self._set(kind=kind, trials=trials, seed=seed)


class EnsembleResult(Frozen):
    """Per-trial initial and final EoF as flat arrays, and the processes used.
    `delta`, E_F - E_0, is formed on first use and kept."""

    def __init__(self, e0: np.ndarray, ef: np.ndarray, failures: int = 0, processes: int = 1):
        self._set(e0=e0, ef=ef, failures=failures, processes=processes)

    @cached_property
    def delta(self) -> np.ndarray:
        return self.ef - self.e0

    def __len__(self) -> int:
        return self.e0.shape[0]


def _chunk_task(kind: Kind, seed: int, start: int, count: int) -> tuple[np.ndarray, np.ndarray, int]:
    """Evaluate one chunk of trials; returns (e0, ef, failure count)."""
    trials = np.arange(start, start + count)
    states = _sample_chunk(kind, seed, trials)
    failures = 0
    for k in range(1, MAX_RETRIES + 2):
        bad = np.flatnonzero(~np.isfinite(states).all(axis=(1, 2)))
        if not bad.size:
            break
        if k > MAX_RETRIES:
            raise NumericError(f"trial {trials[bad[0]]} failed {MAX_RETRIES} consecutive resamples")
        failures += bad.size
        states[bad] = _sample_chunk(kind, seed, trials[bad] + k * RETRY_STRIDE)
    try:
        e0, states = eof_batch(states), apply_to_factors(circuit(), states)  # C W; W is freed here
        ef = eof_batch(states)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"entanglement kernel failed on trials {start}..{start + count - 1}: {exc}") from exc
    finite = np.isfinite(e0) & np.isfinite(ef)
    if not finite.all():
        raise NumericError(f"entanglement kernel gave a non-finite E on trial {start + np.argmin(finite)}")
    return e0, ef, failures


def run_ensemble(spec: EnsembleSpec, workers: int = 1) -> EnsembleResult:
    """Run the full ensemble; the result is a deterministic function of the
    spec alone, regardless of `workers`."""
    require_integer("workers", workers, 1, math.inf)
    tasks = [(spec.kind, spec.seed, s, min(CHUNK_SIZE, spec.trials - s)) for s in range(0, spec.trials, CHUNK_SIZE)]
    processes = max(1, min(workers, len(tasks), available_cpus())) if hasattr(os, "fork") else 1
    # e0 and ef of every trial, then each chunk's failures + 1 once it is written, 0 until then
    try:
        buf = mmap.mmap(-1, 8 * (2 * spec.trials + len(tasks)))
    except OSError as exc:  # out of memory, or over the process's address-space limit
        raise ResourceError(f"could not map the results of {spec.trials} trials: {exc}") from exc
    out = np.frombuffer(buf, np.float64, 2 * spec.trials).reshape(2, spec.trials)
    done = np.frombuffer(buf, np.int64, len(tasks), 16 * spec.trials)
    children = []  # pids of the workers not yet reaped
    try:
        for p in range(1, processes):  # the workers forked before a refused fork are in `children`, to be stopped
            children.append(_fork_worker(tasks[p::processes], out, done))
        try:
            _run_share(tasks[::processes], out, done)
        except Exception:  # this process's own failure: one more try at its unfinished chunks, as the workers run on
            try:
                _run_share([t for t in tasks[::processes] if not done[t[2] // CHUNK_SIZE]], out, done)
            except Exception:  # again: the chunk is rerun below, in order with the workers'
                _stop(children)
        for pid in children[:]:
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            children.remove(pid)
            if code < 0:
                raise ResourceError(f"a worker process was killed by signal {-code}")
    finally:
        _stop(children)
    # every chunk no process finished, in chunk order: the lowest failing chunk raises, as in a serial run
    _run_share([tasks[c] for c in np.flatnonzero(done == 0)], out, done)
    total = int(done.sum()) - len(tasks)
    if total > MAX_FAILURE_RATE * spec.trials:
        raise NumericError(f"{total} numeric failures in {spec.trials} trials exceeds the {MAX_FAILURE_RATE} budget")
    return EnsembleResult(e0=out[0], ef=out[1], failures=total, processes=processes)


def _run_share(share, out: np.ndarray, done: np.ndarray, parent: int | None = None) -> None:
    """Run chunks in order, writing their E_0 and E_F into rows 0 and 1 of
    `out`, and then each chunk's failure count + 1 into its entry of `done`,
    so an entry still 0 names a chunk no process finished. The first chunk
    that raises ends the share. A worker passes the pid of the process that
    forked it as `parent`, and stops before its next chunk once that process
    is gone: no one would read its results."""
    for kind, seed, start, count in share:
        if parent is not None and os.getppid() != parent:
            return
        e0, ef, failed = _chunk_task(kind, seed, start, count)
        out[0, start : start + count] = e0
        out[1, start : start + count] = ef
        done[start // CHUNK_SIZE] = failed + 1


def _fork_worker(share, out: np.ndarray, done: np.ndarray) -> int:
    """Fork a worker to run `share`; returns its pid. The worker never
    returns into the caller's frames and never prints: it leaves by
    `os._exit(0)`, which flushes nothing this process buffered, once its
    share is done, at the first chunk that raises, or once this process is
    gone. Only a signal that kills it makes its exit status tell."""
    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError as exc:  # out of memory or of processes
        raise ResourceError(f"could not start a worker process: {exc}") from exc
    if pid:
        return pid
    try:
        # `multiprocessing.util.Finalize` hooks, run at a worker's exit as
        # multiprocessing's own workers do, for bench/tracer.py's spans; drop
        # this once the tracer reads summary.json (ROADMAP item 2)
        hooks = sys.modules.get("multiprocessing.util")
        if hooks is not None:
            hooks._finalizer_registry.clear()
        try:
            _run_share(share, out, done, parent)
        finally:  # an exception is then dropped by `os._exit`: the caller reruns the chunk that raised it
            if hooks is not None:
                hooks._run_finalizers()
    finally:
        os._exit(0)


def _stop(children: list) -> None:
    """Kill the workers in `children` and reap them, emptying it. SIGKILL: a
    worker cannot ignore it, as it can SIGTERM when it inherits an ignored
    SIGTERM from whoever started the run."""
    while children:  # never a reaped pid, which the system may have reused
        os.kill(children[-1], 9)  # SIGKILL wherever `os.fork` exists, without the ~1 ms `import signal`
        os.waitpid(children.pop(), 0)


def available_cpus() -> int:
    """The CPUs this process may run on, where the OS reports them."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class Histogram(Frozen):
    """Fixed-range binned counts over [lo, hi], and per-bin sums of the
    weights where some were binned; density = count / (total * bin width).
    `bin_count` and `total` are what the counts fix: every value is binned,
    so `total` is the number of values. The E_0 histogram weighted by E_F is
    the conditional-mean profile: `mean_ef` is the mean weight of each bin,
    NaN in a bin with fewer than MIN_OCCUPANCY samples, which `occupied`
    leaves out."""

    def __init__(self, lo: float, hi: float, counts: np.ndarray, sums: np.ndarray | None = None):
        self._set(lo=lo, hi=hi, counts=counts, sums=sums, bin_count=len(counts), total=int(counts.sum()))

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.bin_count

    @cached_property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.bin_count + 1)

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])

    @property
    def occupied(self) -> np.ndarray:
        return self.counts >= MIN_OCCUPANCY

    @property
    def mean_ef(self) -> np.ndarray:
        return np.divide(self.sums, self.counts, out=np.full(self.bin_count, np.nan), where=self.occupied)

    def densities(self) -> np.ndarray:
        return self.counts / (self.total * self.bin_width)

    def bin_index(self, x: float) -> int:
        """Index of the bin that counts x; a non-finite x, which no histogram
        counts, is refused."""
        if not math.isfinite(x):
            raise UsageError(f"cannot bin a non-finite value: {x!r}")
        return int(_bin_indices(np.array([x]), self.edges)[0])


class DeltaHistogram(Histogram):
    """The delta E histogram over [-1, 1], with the mean of delta E and the
    fraction of |delta E| < bin_width / 2, both taken in the same pass."""

    def __init__(self, counts: np.ndarray, mean: float, zero_fraction: float):
        super().__init__(-1.0, 1.0, counts)
        self._set(mean=mean, zero_fraction=zero_fraction)


def _bin_indices(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The one binning rule: bin i holds edges[i] <= x < edges[i + 1], the last
    bin also holds its upper edge, and values beyond either end go to the end bins.
    The bins are equal, so (x - lo) / width estimates i to within one bin, and
    one compare against the edges either side of the estimate corrects it."""
    last = len(edges) - 2
    est = values - edges[0]
    est *= (last + 1) / (edges[-1] - edges[0])
    idx = np.clip(est, 0, last, out=est).astype(np.intp)  # truncation is floor once clipped at 0
    idx -= values < edges[idx]
    idx += values >= edges[idx + 1]
    return np.clip(idx, 0, last, out=idx)


def _histogram(total: int, part, lo: float, hi: float, bin_count: int, weighted: bool = False) -> Histogram:
    """Bin `total` values over [lo, hi] in CHUNK_SIZE slices: part(s) returns
    the values of slice s and their weights (None unless `weighted`). The
    per-bin weight sums are added in trial order, so they equal one
    `bincount` over all the values bit for bit; no temporary is longer
    than a slice."""
    require_integer("bin_count", bin_count, 2, MAX_BINS)
    if total < 1:  # every density would be 0 / 0
        raise UsageError("cannot bin an empty result")
    edges = np.linspace(lo, hi, bin_count + 1)
    counts = np.zeros(bin_count, np.int64)
    sums = np.zeros(bin_count) if weighted else None
    for start in range(0, total, CHUNK_SIZE):
        values, weights = part(slice(start, start + CHUNK_SIZE))
        if not np.isfinite(values).all() or (weighted and not np.isfinite(weights).all()):
            raise UsageError(f"cannot bin a non-finite value among trials {start}..{start + len(values) - 1}")
        idx = _bin_indices(values, edges)
        np.add.at(counts, idx, 1)  # O(slice), where a bincount would cost O(bin_count) per slice
        if weighted:
            np.add.at(sums, idx, weights)
    return Histogram(lo, hi, counts, sums)


def histogram_delta(result: EnsembleResult, bin_count: int) -> DeltaHistogram:
    """P(delta E) histogram over the fixed range [-1, 1], with the sum of
    delta E and its count within half a bin of 0. Delta E is formed one
    slice at a time, never as a whole array."""
    delta_sum, near_zero = 0.0, 0

    def delta(s: slice):
        nonlocal delta_sum, near_zero
        d = result.ef[s] - result.e0[s]
        delta_sum += float(d.sum())
        near_zero += int(np.count_nonzero(np.abs(d) < 2.0 / bin_count / 2.0))  # bin_width / 2
        return d, None

    counts = _histogram(len(result), delta, -1.0, 1.0, bin_count).counts
    return DeltaHistogram(counts, delta_sum / len(result), near_zero / len(result))


def entanglement_histogram(result: EnsembleResult, bin_count: int) -> Histogram:
    """P(E_0) histogram over [0, 1], the optional companion output."""
    return _histogram(len(result), lambda s: (result.e0[s], None), 0.0, 1.0, bin_count)


def conditional_mean(result: EnsembleResult, bin_count: int) -> Histogram:
    """The E_0 histogram over [0, 1] weighted by E_F: its per-bin sums of
    E_F, and their means where a bin is occupied (`Histogram.mean_ef`)."""
    return _histogram(len(result), lambda s: (result.e0[s], result.ef[s]), 0.0, 1.0, bin_count, weighted=True)
