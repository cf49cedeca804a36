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
