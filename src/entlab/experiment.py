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

A run folds each finished chunk into an accumulator with a reducer: by
default `_Arrays`, which keeps E_0 and E_F of every trial; the CLI's
`Binned` bins and sums the chunk into exact integers, so a run's memory
does not grow with its trials. A run uses at most min(workers, chunks, CPUs
it may run on) processes, counting its own. Process p runs chunks p, p +
processes, ... in order into its own accumulator: process 0 is the calling
process, the others are workers it forks with `os.fork`. Before its first
chunk (the calling process before it forks), process p moves onto the p-th
CPU it may run on and then allows all of them again, so that a kernel that
balances no load does not leave the processes on one CPU; a refused move is
skipped. When its share ends, normally or by an exception, a process copies
its accumulator into its row of a shared anonymous mapping in one
assignment, with entry 0 the number of chunks of its share it covers. A
process stops at its first chunk that raises. The calling process then runs
its uncovered chunks once more while the workers go on, and kills them only
if that raises too; a killed worker's row is cleared. A worker reports
through its row alone: it never prints, and leaves by `os._exit`. The
calling process reaps each worker by pid, so it never reaps a child it did
not fork, then runs every chunk no row covers itself, in chunk order, into
its own row, and adds up the rows. A trial is a function of (seed, t)
alone, so the lowest failing chunk raises its error there, as in a serial
run, whichever process met it first; a failure only one process met costs
time, not the run, and no chunk is counted twice or lost. A worker killed
by a signal is a ResourceError. A worker stops before its next chunk once
the process that forked it is gone, as when the CLI process is killed by
SIGKILL. Where `os` has no `fork`, the run is serial.

The reductions, `histogram_delta` and `conditional_mean`, finalise a
`Binned` run's sums, or run `Binned` over an array result's slices: one
implementation of binning and summation, whose every number is independent
of the worker count and of CHUNK_SIZE.
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
MAX_TRIALS = 1 << 32  # as many values as a limb sum holds exactly (see LIMBS)
MAX_BINS = 10**6  # per histogram: far finer than any plot needs, and its arrays stay small
MIN_OCCUPANCY = 100  # samples an E_0 bin needs for its mean E_F to be reported


class EnsembleSpec(Frozen):
    """One surveyed population: which measure, how many trials, which seed."""

    def __init__(self, kind: Kind, trials: int, seed: int):
        if kind not in ("pure", "mixed"):
            raise UsageError(f"kind must be 'pure' or 'mixed', got {kind!r}")
        require_integer("trials", trials, 1, MAX_TRIALS)
        require_integer("seed", seed, 0, (1 << 64) - 1)
        self._set(kind=kind, trials=trials, seed=seed)


class EnsembleResult(Frozen):
    """Per-trial initial and final EoF as flat arrays, and the processes
    used; from a run reduced by `Binned`, empty arrays and `binned`, the
    reducer with the run's summed accumulator. `delta`, E_F - E_0, is formed
    on first use and kept."""

    def __init__(self, e0: np.ndarray, ef: np.ndarray, failures: int = 0, processes: int = 1, binned=None):
        self._set(e0=e0, ef=ef, failures=failures, processes=processes, binned=binned)

    @cached_property
    def delta(self) -> np.ndarray:
        return self.ef - self.e0

    def __len__(self) -> int:
        if self.binned is None:
            return self.e0.shape[0]
        reducer, acc = self.binned
        return int(acc[reducer.e0_counts].sum())


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


def run_ensemble(spec: EnsembleSpec, workers: int = 1, reducer=None) -> EnsembleResult:
    """Run the full ensemble, folding each chunk into `reducer` (by default
    `_Arrays`, which keeps E_0 and E_F of every trial; the CLI passes a
    `Binned`). The result is a deterministic function of the spec and the
    reducer alone, regardless of `workers`."""
    require_integer("workers", workers, 1, math.inf)
    reducer = _Arrays(spec.trials) if reducer is None else reducer
    chunks = -(-spec.trials // CHUNK_SIZE)
    processes = max(1, min(workers, chunks, available_cpus())) if hasattr(os, "fork") else 1
    try:  # one accumulator row per process
        buf = mmap.mmap(-1, 8 * reducer.words * processes)
    except OSError as exc:  # out of memory, or over the process's address-space limit
        raise ResourceError(f"could not map the accumulators of {processes} processes: {exc}") from exc
    rows = np.frombuffer(buf, np.int64).reshape(processes, reducer.words)
    children = {}  # pid: row, of the workers not yet reaped
    cpus = sorted(os.sched_getaffinity(0)) if processes > 1 and hasattr(os, "sched_setaffinity") else None
    try:
        _place(cpus, 0)  # before the forks, so no worker starts on a CPU another process is given
        for p in range(1, processes):  # the workers forked before a refused fork are in `children`, to be stopped
            pid = _fork_worker(spec, range(p, chunks, processes), rows[p], reducer, cpus, p)
            children[pid] = p
        own = range(0, chunks, processes)
        try:
            _run_share(spec, own, rows[0], reducer)
        except Exception:  # this process's own failure: one more try at its uncovered chunks, as the workers run on
            try:
                _run_share(spec, own[int(rows[0, 0]):], rows[0], reducer)
            except Exception:  # again: the chunk is rerun below, in order with the workers'
                _stop(children, rows)
        for pid in list(children):
            code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if code < 0:
                raise ResourceError(f"a worker process was killed by signal {-code}")
    finally:
        _stop(children, rows)
    # every chunk no row covers, in chunk order: the lowest failing chunk raises, as in a serial run
    rest = sorted(c for p in range(processes) for c in range(p + int(rows[p, 0]) * processes, chunks, processes))
    _run_share(spec, rest, rows[0], reducer)
    acc = rows.sum(axis=0)
    if acc[1] > MAX_FAILURE_RATE * spec.trials:
        raise NumericError(f"{acc[1]} numeric failures in {spec.trials} trials exceeds the {MAX_FAILURE_RATE} budget")
    return reducer.result(acc, processes)


def _run_share(spec: EnsembleSpec, share, row: np.ndarray, reducer, parent: int | None = None) -> None:
    """Run the chunks of `share` (chunk indices, in order), folding each
    into a copy of `row` with `reducer.add`, which counts it in entry 0.
    The copy goes back into `row` in one assignment when the share ends, by
    an exception too, unless the exception came inside an `add`: then `row`
    keeps what it held, and the chunks since are rerun, never counted
    twice. So `row` gains the first chunks of the share, as many as entry 0
    grew by, and no other. The first chunk that raises ends the share. A
    worker passes the pid of the process that forked it as `parent`, and
    stops before its next chunk once that process is gone: no one would
    read its results."""
    acc, adding = row.copy(), False
    try:
        for chunk in share:
            if parent is not None and os.getppid() != parent:
                return
            start = chunk * CHUNK_SIZE
            e0, ef, failed = _chunk_task(spec.kind, spec.seed, start, min(CHUNK_SIZE, spec.trials - start))
            adding = True
            reducer.add(acc, start, e0, ef, failed)
            adding = False
    finally:
        if not adding:
            row[:] = acc


def _fork_worker(spec: EnsembleSpec, share, row: np.ndarray, reducer, cpus, p: int) -> int:
    """Fork worker p to run `share` into `row`, placed on its CPU of `cpus`
    first; returns its pid. The worker never returns into the caller's
    frames and never prints: it leaves by `os._exit(0)`, which flushes
    nothing this process buffered, once its share is done, at the first
    chunk that raises, or once this process is gone. Only a signal that
    kills it makes its exit status tell."""
    parent = os.getpid()
    try:
        pid = os.fork()
    except OSError as exc:  # out of memory or of processes
        raise ResourceError(f"could not start a worker process: {exc}") from exc
    if pid:
        return pid
    try:
        _place(cpus, p)
        # `multiprocessing.util.Finalize` hooks, run at a worker's exit as
        # multiprocessing's own workers do, for bench/tracer.py's spans; drop
        # this once the tracer reads summary.json (ROADMAP item 2)
        hooks = sys.modules.get("multiprocessing.util")
        if hooks is not None:
            hooks._finalizer_registry.clear()
        try:
            _run_share(spec, share, row, reducer, parent)
        finally:  # an exception is then dropped by `os._exit`: the caller reruns the chunks `row` does not cover
            if hooks is not None:
                hooks._run_finalizers()
    finally:
        os._exit(0)


def _place(cpus: list[int] | None, p: int) -> None:
    """Move this process onto the p-th of `cpus`, then let it run on all of
    them again, where `cpus` is given. A kernel that does not balance load
    between CPUs leaves a forked worker that never sleeps on its parent's
    CPU, to share it. Best effort: a CPU the system refuses, as one gone
    offline, leaves the process where it is."""
    if cpus is not None:
        try:
            os.sched_setaffinity(0, (cpus[p],))
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass


def _stop(children: dict, rows: np.ndarray) -> None:
    """Kill the workers in `children` (pid: row) and reap them, emptying it,
    and clear their rows, which a worker killed while it published its own
    holds in part. SIGKILL: a worker cannot ignore it, as it can SIGTERM
    when it inherits an ignored SIGTERM from whoever started the run."""
    while children:  # never a reaped pid, which the system may have reused
        pid = next(reversed(children))
        os.kill(pid, 9)  # SIGKILL wherever `os.fork` exists, without the ~1 ms `import signal`
        p = children.pop(pid)
        os.waitpid(pid, 0)
        rows[p] = 0


def available_cpus() -> int:
    """The CPUs this process may run on, where the OS reports them."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


class _Arrays:
    """The default reducer: E_0 and E_F of every trial, written into their
    slices of one mapping that the run's processes share, as the chunks
    finish. Its accumulator holds the chunks covered and the failures."""

    words = 2

    def __init__(self, trials: int):
        try:
            self._out = np.frombuffer(mmap.mmap(-1, 16 * trials), np.float64).reshape(2, trials)
        except OSError as exc:  # out of memory, or over the process's address-space limit
            raise ResourceError(f"could not map the results of {trials} trials: {exc}") from exc

    def add(self, acc: np.ndarray, start: int, e0: np.ndarray, ef: np.ndarray, failures: int) -> None:
        self._out[0, start : start + len(e0)] = e0
        self._out[1, start : start + len(e0)] = ef
        acc += 1, failures

    def result(self, acc: np.ndarray, processes: int) -> EnsembleResult:
        return EnsembleResult(self._out[0], self._out[1], int(acc[1]), processes)


# E_0 and E_F are summed as fixed-point numbers of LIMBS limbs of LIMB_BITS
# bits, each limb summed exactly in int64 (Neal, arXiv:1505.05571): the sums
# are exact integers, the same in any order, so they do not depend on the
# worker count or CHUNK_SIZE. A value below 2 in magnitude makes limbs below
# 2^31, so 2^32 values per sum stay below 2^63; MAX_TRIALS is that.
LIMB_BITS = 30
LIMBS = 4  # to 2^-120: exact for every float of magnitude 2^-68 or more, whose last bit is 2^-120 or above
# a `Binned` accumulator's head: chunks covered, failures, the count of |delta E|
# below half a bin, then the limb sums of E_0
_E0_SUM = slice(3, 3 + LIMBS)
_HEAD = _E0_SUM.stop


def _limbs(x: np.ndarray) -> np.ndarray:
    """x, each |x| < 2, as LIMBS rows of whole numbers below 2^31 in
    magnitude, each of x's sign: x = sum_k row_k 2^(-LIMB_BITS (k + 1)),
    truncated toward 0 below 2^-120. Each step is exact: scaling by a power
    of 2, truncation, and taking a float's whole part from it. A float sum
    of up to 2^22 entries of a row is exact too: it stays below 2^53."""
    out = np.empty((LIMBS, len(x)))
    rest = x * float(1 << LIMB_BITS)
    for row in out:
        np.trunc(rest, out=row)
        rest -= row
        rest *= float(1 << LIMB_BITS)
    return out


def _exact_sum(limb_sums: np.ndarray):
    """The float nearest sum_k limb_sums[k] 2^(-LIMB_BITS (k + 1)), for
    (LIMBS,) or (LIMBS, m) limb sums, int64 or Python ints: joined into
    Python ints, which true division rounds correctly."""
    total = 0
    for row in limb_sums.astype(object):
        total = (total << LIMB_BITS) + row
    quotient = total / (1 << LIMB_BITS * LIMBS)
    return quotient if limb_sums.ndim == 1 else quotient.astype(float)


class Binned:
    """The CLI's reducer: each chunk binned and summed in the process that
    ran it, into an int64 accumulator of O(bins) words, whatever the trial
    count. In order: the chunks covered, the failures, the count of |delta
    E| below half a delta bin, the limb sums of E_0, the delta E counts, the
    E_0 counts, and the limb sums of E_F per E_0 bin, one row of e0_bins per
    limb. Every entry is an exact integer, so the accumulators of any split
    of the chunks add up to the same words. Delta E has no sum of its own:
    its total is that of E_F less that of E_0."""

    def __init__(self, delta_bins: int, e0_bins: int):
        require_integer("bin_count", delta_bins, 2, MAX_BINS)
        require_integer("bin_count", e0_bins, 2, MAX_BINS)
        self.delta_bins, self.e0_bins = delta_bins, e0_bins
        self.delta_edges, self.e0_edges = np.linspace(-1.0, 1.0, delta_bins + 1), np.linspace(0.0, 1.0, e0_bins + 1)
        self.delta_counts = slice(_HEAD, _HEAD + delta_bins)
        self.e0_counts = slice(self.delta_counts.stop, self.delta_counts.stop + e0_bins)
        self.ef_sums = slice(self.e0_counts.stop, self.e0_counts.stop + LIMBS * e0_bins)
        self.words = self.ef_sums.stop

    def add(self, acc: np.ndarray, start: int, e0: np.ndarray, ef: np.ndarray, failures: int) -> None:
        """Fold one chunk, trials start.., into `acc`, and count it in acc[0]."""
        if not (np.all(np.abs(e0) < 2.0) and np.all(np.abs(ef) < 2.0)):
            raise UsageError(f"cannot bin a non-finite value, or sum one of magnitude 2 or more, "
                             f"among trials {start}..{start + len(e0) - 1}")
        delta = ef - e0
        at = _bin_indices(delta, self.delta_edges)
        np.add.at(acc, at + self.delta_counts.start, 1)  # O(chunk), where a bincount would cost O(bins) per chunk
        at = _bin_indices(e0, self.e0_edges)
        np.add.at(acc, at + self.e0_counts.start, 1)
        # E_F's limb k of a trial in E_0 bin i goes to ef_sums word k * e0_bins + i, in one scatter
        # over a flat index: numpy's fast path takes a 1-D index, and a 2-D one is ~5x slower
        rows = np.arange(self.ef_sums.start, self.ef_sums.stop, self.e0_bins)
        np.add.at(acc, (rows[:, None] + at).ravel(), _limbs(ef).astype(np.int64).ravel())
        near_zero = np.count_nonzero(np.abs(delta) < 2.0 / self.delta_bins / 2.0)  # bin_width / 2
        acc[1:_HEAD] += np.concatenate(([failures, near_zero], _limbs(e0).sum(axis=1))).astype(np.int64)
        acc[0] += 1

    def result(self, acc: np.ndarray, processes: int) -> EnsembleResult:
        return EnsembleResult(np.empty(0), np.empty(0), int(acc[1]), processes, binned=(self, acc))


class Histogram(Frozen):
    """Binned counts over the equal bins between `edges`, the mean of the
    binned values, and, where some were binned, per-bin sums of the weights
    and the mean weight; density = count / (total * bin width). The edges
    are the reducer's, and the counts a view of its accumulator. `bin_count`
    and `total` are what the counts fix: every value is binned, so `total`
    is the number of values. The E_0 histogram weighted by E_F is the
    conditional-mean profile: `mean_ef` is the mean weight of each bin, NaN
    in a bin with fewer than MIN_OCCUPANCY samples, which `occupied` leaves
    out. Sums and means are exact sums rounded once, then divided."""

    def __init__(self, edges: np.ndarray, counts: np.ndarray, mean: float, sums: np.ndarray | None = None,
                 mean_weight: float | None = None):
        self._set(edges=edges, counts=counts, mean=mean, sums=sums, mean_weight=mean_weight,
                  bin_count=len(counts), total=int(counts.sum()))

    @property
    def bin_width(self) -> float:
        return (self.edges[-1] - self.edges[0]) / self.bin_count

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
    fraction of |delta E| < bin_width / 2."""

    def __init__(self, edges: np.ndarray, counts: np.ndarray, mean: float, zero_fraction: float):
        super().__init__(edges, counts, mean)
        self._set(zero_fraction=zero_fraction)


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


def _binned(result: EnsembleResult, delta_bins: int | None = None, e0_bins: int | None = None):
    """(reducer, accumulator) of `result`: a reduced run's own, whose bin
    counts a request must match, or a `Binned` run over an array result's
    CHUNK_SIZE slices now, the bin count not asked for at 2."""
    if result.binned is not None:
        reducer, _ = result.binned
        if delta_bins not in (None, reducer.delta_bins) or e0_bins not in (None, reducer.e0_bins):
            raise UsageError(f"this result was binned into {reducer.delta_bins} delta E and {reducer.e0_bins} E_0 bins")
        return result.binned
    if len(result) < 1:  # every density would be 0 / 0
        raise UsageError("cannot bin an empty result")
    reducer = Binned(2 if delta_bins is None else delta_bins, 2 if e0_bins is None else e0_bins)
    acc = np.zeros(reducer.words, np.int64)
    for start in range(0, len(result), CHUNK_SIZE):
        reducer.add(acc, start, result.e0[start : start + CHUNK_SIZE], result.ef[start : start + CHUNK_SIZE], 0)
    return reducer, acc


def histogram_delta(result: EnsembleResult, bin_count: int) -> DeltaHistogram:
    """P(delta E) histogram over the fixed range [-1, 1], with the mean of
    delta E and its count within half a bin of 0. The mean is the exact E_F
    total less the exact E_0 total, rounded once, over the trial count."""
    reducer, acc = _binned(result, delta_bins=bin_count)
    n = len(result)
    # in Python ints: an int64 difference of two limb sums can overflow
    total = acc[reducer.ef_sums].reshape(LIMBS, -1).sum(axis=1).astype(object) - acc[_E0_SUM].astype(object)
    return DeltaHistogram(reducer.delta_edges, acc[reducer.delta_counts], _exact_sum(total) / n, int(acc[2]) / n)


def conditional_mean(result: EnsembleResult, bin_count: int) -> Histogram:
    """The E_0 histogram over [0, 1] weighted by E_F: its per-bin sums of
    E_F, and their means where a bin is occupied (`Histogram.mean_ef`); its
    `mean` is the mean of E_0, and `mean_weight` that of E_F."""
    reducer, acc = _binned(result, e0_bins=bin_count)
    n, counts, limb_sums = len(result), acc[reducer.e0_counts], acc[reducer.ef_sums].reshape(LIMBS, bin_count)
    sums = np.zeros(bin_count)
    sums[counts > 0] = _exact_sum(limb_sums[:, counts > 0])  # Python ints for the occupied bins only
    return Histogram(reducer.e0_edges, counts, _exact_sum(acc[_E0_SUM]) / n, sums, _exact_sum(limb_sums.sum(axis=1)) / n)
