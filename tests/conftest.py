import json
import os
import signal

import numpy as np
import pytest

from entlab import experiment, sampling
from entlab.qstate import DensityMatrix, PureState
from entlab.sampling import RandomStream, mixed_state_matrix, pure_state_vector, sample_chunk

# asymptotic Kolmogorov-Smirnov critical coefficient at alpha = 0.01
KS_COEFF_1PC = 1.628
# Zyczkowski, Horodecki, Sanpera & Lewenstein, PRA 58, 883 (1998): the
# separable share of two-qubit states under the product measure
SEPARABLE_FRACTION = 0.632


# this process's own CPU-mask calls, whatever a test patches into `os`
GET_AFFINITY, SET_AFFINITY = getattr(os, "sched_getaffinity", None), getattr(os, "sched_setaffinity", None)


@pytest.fixture(autouse=True)
def own_cpus():
    """Give this process back its CPU mask after each test: a parallel run
    places its processes on the CPUs `os.sched_getaffinity` names, and tests
    patch in sets this machine may not have."""
    mask = GET_AFFINITY(0) if SET_AFFINITY else None
    yield
    if mask is not None:
        SET_AFFINITY(0, mask)


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def ks_statistic(samples: np.ndarray, cdf) -> float:
    x = np.sort(samples)
    n = x.size
    f = cdf(x)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return max(upper, lower)


def mixed_states(seed: int, count: int):
    """Validated product-measure mixed states from consecutive substreams."""
    return [DensityMatrix(mixed_state_matrix(RandomStream(seed, i))) for i in range(count)]


def mixed_matrices(seed: int, count: int) -> np.ndarray:
    """Raw (count, 4, 4) stack of product-measure mixed states, W W^dag of the sampled factors."""
    w = sample_chunk("mixed", seed, np.arange(count))
    return w @ w.conj().swapaxes(-1, -2)


def pure_states(seed: int, count: int):
    return [PureState(pure_state_vector(RandomStream(seed, i))) for i in range(count)]


def poison_draws(monkeypatch, streams):
    """Make the raw draws non-finite on the given substreams, as a
    measure-zero degenerate draw would give non-finite states; other draws
    are unchanged."""
    draw_chunk = sampling.draw_chunk

    def poisoned(kind, seed, chunk):
        records = draw_chunk(kind, seed, chunk)
        records["normals"][np.isin(chunk, list(streams))] = np.nan
        return records

    monkeypatch.setattr(sampling, "draw_chunk", poisoned)


def in_children(monkeypatch, action):
    """Call `action(start)` before each chunk a forked child of this process
    runs; chunks run here are unchanged."""
    task, parent = experiment._chunk_task, os.getpid()

    def chunk_task(kind, seed, start, count):
        if os.getpid() != parent:
            action(start)
        return task(kind, seed, start, count)

    monkeypatch.setattr(experiment, "_chunk_task", chunk_task)


def fail_at(monkeypatch, errors):
    """Raise `errors[start]` at the start of the chunk that begins at trial
    `start`, for each start in `errors`, in every process that runs it, this
    one or a forked child: a failure that follows the trial, as every
    failure of a deterministic run does."""
    task = experiment._chunk_task

    def chunk_task(kind, seed, first, count):
        if first in errors:
            raise errors[first]
        return task(kind, seed, first, count)

    monkeypatch.setattr(experiment, "_chunk_task", chunk_task)


def run_outputs(out) -> dict:
    """The outputs of the CLI run in directory `out`, less what depends on
    how it ran rather than on its configuration: each CSV's text, and
    summary.json without `wall_time_s`, `workers_used` and the config
    echo's `workers` and `output_dir`."""
    outputs = {p.name: p.read_text() for p in out.iterdir() if p.suffix == ".csv"}
    summary = json.loads((out / "summary.json").read_text())
    del summary["wall_time_s"], summary["workers_used"], summary["config"]["workers"], summary["config"]["output_dir"]
    return {**outputs, "summary.json": summary}


def assert_no_children():
    """This process has no child left, running or unreaped."""
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def sigkill(start):
    """An `in_children` action: the out-of-memory killer's signal."""
    os.kill(os.getpid(), signal.SIGKILL)


# The spin flip built here, not taken from the package, so the definition
# route below shares no code with the kernel under test.
YY = np.kron([[0, -1j], [1j, 0]], [[0, -1j], [1j, 0]])


def definition_concurrence(rhos: np.ndarray) -> np.ndarray:
    """Wootters' definition on a (..., 4, 4) stack: lambda = sqrt(eig(rho rho~))
    from the general (non-Hermitian) eigensolver, C = max(0, l1 - l2 - l3 - l4).
    Square-rooting near-zero eigenvalues costs this route half its digits on
    rank-deficient states."""
    ev = np.linalg.eigvals(rhos @ YY @ rhos.conj() @ YY)
    lam = np.sort(np.sqrt(np.abs(ev)), axis=-1)[..., ::-1]
    return np.maximum(0.0, lam[..., 0] - lam[..., 1:].sum(axis=-1))


def definition_eof(c: np.ndarray) -> np.ndarray:
    """h((1 + sqrt(1 - C^2)) / 2), with h = 0 where the argument rounds to 1."""
    x = (1.0 + np.sqrt(1.0 - c * c)) / 2.0
    with np.errstate(divide="ignore", invalid="ignore"):
        h = -x * np.log2(x) - (1.0 - x) * np.log2(1.0 - x)
    return np.where(x < 1.0, h, 0.0)
