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
kernel is a numeric failure, never a count in a histogram. A run uses at
most one process per chunk and per CPU it may run on.
"""

from __future__ import annotations

import concurrent.futures
import os
from dataclasses import dataclass

import numpy as np

from .entanglement import eof  # noqa: F401 - looked up here by bench/tracer.py
from .entanglement import factor_eof as eof_batch  # under the name bench/tracer.py wraps
from .errors import NumericError, UsageError
from .gates import apply_to_factors, circuit
from .sampling import Kind, RandomStream, haar_phase_fix, pure_state_vector  # noqa: F401 - the last three for bench/tracer.py
from .sampling import sample_chunk as _sample_chunk  # under the name bench/tracer.py wraps

CHUNK_SIZE = 8192
RETRY_STRIDE = 1 << 48  # retry k of trial t uses substream t + k * stride
MAX_FAILURE_RATE = 1e-6
MAX_RETRIES = 8
MAX_TRIALS = 10**8
DEFAULT_MIN_OCCUPANCY = 100


@dataclass(frozen=True)
class EnsembleSpec:
    """One surveyed population: which measure, how many trials, which seed."""

    kind: Kind
    trials: int
    seed: int

    def __post_init__(self):
        if self.kind not in ("pure", "mixed"):
            raise UsageError(f"kind must be 'pure' or 'mixed', got {self.kind!r}")
        if self.trials < 1:
            raise UsageError("trials must be >= 1")
        if self.trials > MAX_TRIALS:
            raise UsageError(f"trials capped at {MAX_TRIALS} (memory guard)")
        if not 0 <= self.seed < 1 << 64:
            raise UsageError(f"seed must lie in [0, 2^64), got {self.seed}")


@dataclass(frozen=True, eq=False)
class EnsembleResult:
    """Per-trial initial and final EoF as flat arrays (`delta` is E_F - E_0), and the processes used."""

    e0: np.ndarray
    ef: np.ndarray
    failures: int = 0
    processes: int = 1

    @property
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
    starts = list(range(0, spec.trials, CHUNK_SIZE))
    tasks = [(spec.kind, spec.seed, s, min(CHUNK_SIZE, spec.trials - s)) for s in starts]
    processes = max(1, min(workers, len(tasks), available_cpus()))
    if processes > 1:
        with concurrent.futures.ProcessPoolExecutor(max_workers=processes) as pool:
            parts = list(pool.map(_chunk_task_star, tasks))
    else:
        parts = [_chunk_task(*t) for t in tasks]
    e0 = np.concatenate([p[0] for p in parts])
    ef = np.concatenate([p[1] for p in parts])
    failures = sum(p[2] for p in parts)
    if failures > MAX_FAILURE_RATE * spec.trials:
        raise NumericError(
            f"{failures} numeric failures in {spec.trials} trials exceeds the {MAX_FAILURE_RATE} budget"
        )
    return EnsembleResult(e0=e0, ef=ef, failures=failures, processes=processes)


def available_cpus() -> int:
    """The CPUs this process may run on, where the OS reports them."""
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def _chunk_task_star(args):
    # module-level so the pool pickles it by name, also when `_chunk_task` is wrapped
    return _chunk_task(*args)


@dataclass(frozen=True, eq=False)
class Histogram:
    """Fixed-range binned counts; density = count / (total * bin width)."""

    lo: float
    hi: float
    bin_count: int
    counts: np.ndarray
    total: int

    @property
    def bin_width(self) -> float:
        return (self.hi - self.lo) / self.bin_count

    @property
    def edges(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.bin_count + 1)

    def densities(self) -> np.ndarray:
        return self.counts / (self.total * self.bin_width)

    def bin_index(self, x: float) -> int:
        """Index of the bin that counts x."""
        return int(_bin_indices(x, self.edges))


def _bin_indices(values, edges: np.ndarray):
    """The one binning rule: bin i holds edges[i] <= x < edges[i + 1], the last
    bin also holds its upper edge, and values beyond either end go to the end bins."""
    return np.clip(np.searchsorted(edges, values, side="right") - 1, 0, len(edges) - 2)


def _histogram(values: np.ndarray, lo: float, hi: float, bin_count: int) -> Histogram:
    if bin_count < 2:
        raise UsageError("bin_count must be >= 2")
    idx = _bin_indices(values, np.linspace(lo, hi, bin_count + 1))
    counts = np.bincount(idx, minlength=bin_count).astype(np.int64)
    return Histogram(lo=lo, hi=hi, bin_count=bin_count, counts=counts, total=int(values.shape[0]))


def histogram_delta(result: EnsembleResult, bin_count: int) -> Histogram:
    """P(delta E) histogram over the fixed range [-1, 1]."""
    return _histogram(result.delta, -1.0, 1.0, bin_count)


def entanglement_histogram(result: EnsembleResult, bin_count: int) -> Histogram:
    """P(E_0) histogram over [0, 1], the optional companion output."""
    return _histogram(result.e0, 0.0, 1.0, bin_count)


@dataclass(frozen=True, eq=False)
class ConditionalProfile:
    """Per-bin mean of final EoF conditioned on binned initial EoF.

    Bins with fewer than `min_count` samples carry mean NaN and are excluded
    from the occupied mask.
    """

    edges: np.ndarray
    mean_ef: np.ndarray
    counts: np.ndarray
    min_count: int

    @property
    def occupied(self) -> np.ndarray:
        return self.counts >= self.min_count

    @property
    def centers(self) -> np.ndarray:
        return 0.5 * (self.edges[:-1] + self.edges[1:])


def conditional_mean(result: EnsembleResult, bin_count: int, min_count: int = DEFAULT_MIN_OCCUPANCY) -> ConditionalProfile:
    """Mean E_F per E_0 bin over [0, 1]."""
    if bin_count < 2:
        raise UsageError("bin_count must be >= 2")
    e0, ef = result.e0, result.ef
    edges = np.linspace(0.0, 1.0, bin_count + 1)
    idx = _bin_indices(e0, edges)
    counts = np.bincount(idx, minlength=bin_count)
    sums = np.bincount(idx, weights=ef, minlength=bin_count)
    mean = np.full(bin_count, np.nan)
    ok = counts >= min_count
    mean[ok] = sums[ok] / counts[ok]
    return ConditionalProfile(edges=edges, mean_ef=mean, counts=counts.astype(np.int64), min_count=min_count)
