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
own. Process p runs chunks p, p + processes, ... and writes each chunk's
E_0 and E_F into its slices in place: process 0 is the calling process, the
others are forked from it. Where the fork start method does not exist, the
run is serial.

The reductions walk a result in CHUNK_SIZE slices, so none of them makes
an array as long as the run: delta E, in particular, is formed a slice at
a time, unless a caller asks for `EnsembleResult.delta`.
"""

from __future__ import annotations

import math
import mmap
import os
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .entanglement import eof  # noqa: F401 - looked up here by bench/tracer.py
from .entanglement import factor_eof as eof_batch  # under the name bench/tracer.py wraps
from .errors import NumericError, ResourceError, UsageError, require_integer
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


@dataclass(frozen=True)
class EnsembleSpec:
    """One surveyed population: which measure, how many trials, which seed."""

    kind: Kind
    trials: int
    seed: int

    def __post_init__(self):
        if self.kind not in ("pure", "mixed"):
            raise UsageError(f"kind must be 'pure' or 'mixed', got {self.kind!r}")
        require_integer("trials", self.trials, 1, MAX_TRIALS)  # the cap is a memory guard
        require_integer("seed", self.seed, 0, (1 << 64) - 1)


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Per-trial initial and final EoF as flat arrays, and the processes used.
    `delta`, E_F - E_0, is formed on first use and kept."""

    e0: np.ndarray
    ef: np.ndarray
    failures: int = 0
    processes: int = 1

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
        e0 = eof_batch(states)
        ef = eof_batch(apply_to_factors(circuit(), states))
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
    processes = max(1, min(workers, len(tasks), available_cpus()))
    if processes > 1:
        import multiprocessing  # a serial run does not pay for the import

        if "fork" not in multiprocessing.get_all_start_methods():
            processes = 1
    # e0 and ef of every trial, then one failure count per process
    buf = mmap.mmap(-1, 8 * (2 * spec.trials + processes))
    out = np.frombuffer(buf, np.float64, 2 * spec.trials).reshape(2, spec.trials)
    failures = np.frombuffer(buf, np.int64, processes, 16 * spec.trials)
    children = []
    try:
        if processes > 1:
            fork = multiprocessing.get_context("fork")
            for p in range(1, processes):
                conn, child_conn = fork.Pipe(duplex=False)
                child = fork.Process(target=_worker, args=(tasks[p::processes], out, failures, p, child_conn), daemon=True)
                with child_conn:  # once forked, only the child holds the sending end
                    try:
                        child.start()
                    except OSError as exc:  # fork refused: out of memory or of processes
                        raise ResourceError(f"could not start a worker process: {exc}") from exc
                children.append((child, conn))
        _run_share(tasks[::processes], out, failures, 0)
        for child, conn in children:
            child.join()
            _check_worker(child, conn)
    finally:
        for child, conn in children:
            child.terminate()  # no-op on a worker already reaped
        for child, conn in children:
            child.join()
            conn.close()
    total = int(failures.sum())
    if total > MAX_FAILURE_RATE * spec.trials:
        raise NumericError(f"{total} numeric failures in {spec.trials} trials exceeds the {MAX_FAILURE_RATE} budget")
    return EnsembleResult(e0=out[0], ef=out[1], failures=total, processes=processes)


def _run_share(share, out: np.ndarray, failures: np.ndarray, p: int) -> None:
    """Run process p's chunks, writing E_0 and E_F into rows 0 and 1 of `out`."""
    for kind, seed, start, count in share:
        e0, ef, failed = _chunk_task(kind, seed, start, count)
        out[0, start : start + count] = e0
        out[1, start : start + count] = ef
        failures[p] += failed


def _worker(share, out: np.ndarray, failures: np.ndarray, p: int, conn) -> None:
    """Body of forked process p. An exception goes back to the parent as
    (type name, message), and the process exits with status 1 without the
    traceback `multiprocessing` would print."""
    try:
        _run_share(share, out, failures, p)
    except BaseException as exc:
        try:
            conn.send((type(exc).__name__, str(exc)))
        finally:
            raise SystemExit(1)


def _check_worker(child, conn) -> None:
    """Raise what a reaped worker reported, or that it was lost."""
    if child.exitcode == 0:
        return
    try:
        name, message = conn.recv()
    except EOFError:  # it died before it could report
        if child.exitcode < 0:
            raise ResourceError(f"a worker process was killed by signal {-child.exitcode}") from None
        raise ResourceError(f"a worker process exited with status {child.exitcode}") from None
    if name == "MemoryError":
        raise MemoryError(message)
    raise NumericError(message if name == "NumericError" else f"{name} in a worker process: {message}")


def available_cpus() -> int:
    """The CPUs this process may run on, where the OS reports them."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


@dataclass(frozen=True, eq=False)
class Histogram:
    """Fixed-range binned counts, and per-bin sums of the weights where
    some were binned; density = count / (total * bin width)."""

    lo: float
    hi: float
    bin_count: int
    counts: np.ndarray
    total: int
    sums: np.ndarray | None = None

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.bin_count

    @cached_property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.bin_count + 1)

    def densities(self) -> np.ndarray:
        return self.counts / (self.total * self.bin_width)

    def bin_index(self, x: float) -> int:
        """Index of the bin that counts x."""
        return int(_bin_indices(np.array([x]), self.edges)[0])


@dataclass(frozen=True, eq=False)
class DeltaHistogram(Histogram):
    """The delta E histogram, with the mean of delta E and the fraction of
    |delta E| < bin_width / 2, both taken in the same pass."""

    mean: float = 0.0
    zero_fraction: float = 0.0


def _bin_indices(values: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """The one binning rule: bin i holds edges[i] <= x < edges[i + 1], the last
    bin also holds its upper edge, and values beyond either end go to the end bins."""
    idx = np.searchsorted(edges, values, side="right")
    idx -= 1  # in place, like the clip: one index array per call
    return np.clip(idx, 0, len(edges) - 2, out=idx)


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
    return Histogram(lo=lo, hi=hi, bin_count=bin_count, counts=counts, total=total, sums=sums)


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

    h = _histogram(len(result), delta, -1.0, 1.0, bin_count)
    return DeltaHistogram(
        h.lo, h.hi, h.bin_count, h.counts, h.total, mean=delta_sum / h.total, zero_fraction=near_zero / h.total
    )


def entanglement_histogram(result: EnsembleResult, bin_count: int) -> Histogram:
    """P(E_0) histogram over [0, 1], the optional companion output."""
    return _histogram(len(result), lambda s: (result.e0[s], None), 0.0, 1.0, bin_count)


@dataclass(frozen=True, eq=False)
class ConditionalProfile:
    """Per-bin mean of final EoF conditioned on binned initial EoF.

    `hist` is the E_0 histogram over [0, 1], with the per-bin sums of E_F.
    Bins with fewer than MIN_OCCUPANCY samples carry mean NaN and are
    excluded from the occupied mask.
    """

    hist: Histogram
    mean_ef: np.ndarray

    @property
    def occupied(self) -> np.ndarray:
        return self.hist.counts >= MIN_OCCUPANCY

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.hist.edges[:-1] + self.hist.edges[1:])


def conditional_mean(result: EnsembleResult, bin_count: int) -> ConditionalProfile:
    """Mean E_F per E_0 bin over [0, 1]: the E_0 histogram weighted by E_F."""
    hist = _histogram(len(result), lambda s: (result.e0[s], result.ef[s]), 0.0, 1.0, bin_count, weighted=True)
    mean = np.full(bin_count, np.nan)
    ok = hist.counts >= MIN_OCCUPANCY
    mean[ok] = hist.sums[ok] / hist.counts[ok]
    return ConditionalProfile(hist=hist, mean_ef=mean)
