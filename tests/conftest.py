import numpy as np
import pytest

from entlab.sampling import RandomStream, mixed_state_matrix, random_mixed_state, random_pure_state


@pytest.fixture
def rng():
    return np.random.default_rng(20260823)


def mixed_states(seed: int, count: int):
    """Validated product-measure mixed states from consecutive substreams."""
    return [random_mixed_state(RandomStream(seed, i)) for i in range(count)]


def mixed_matrices(seed: int, count: int) -> np.ndarray:
    """Raw (count, 4, 4) stack of product-measure mixed states."""
    out = np.empty((count, 4, 4), dtype=complex)
    for i in range(count):
        out[i] = mixed_state_matrix(RandomStream(seed, i))
    return out


def pure_states(seed: int, count: int):
    return [random_pure_state(RandomStream(seed, i)) for i in range(count)]


def poison_draws(monkeypatch, streams):
    """Make the engine's per-trial draws non-finite on the given substreams,
    as a measure-zero degenerate draw would; other draws are unchanged."""
    from entlab import experiment

    pure, mixed = experiment.pure_state_vector, experiment.mixed_draw

    def scale(rng):
        return np.nan if rng.stream_index in streams else 1.0

    def mixed_draw(rng):
        g, u = mixed(rng)
        return g * scale(rng), u

    monkeypatch.setattr(experiment, "pure_state_vector", lambda rng: pure(rng) * scale(rng))
    monkeypatch.setattr(experiment, "mixed_draw", mixed_draw)


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
