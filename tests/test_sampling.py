import numpy as np
import pytest

from entlab.errors import UsageError
from entlab.experiment import RETRY_STRIDE
from entlab.sampling import (
    RandomStream,
    SimplexPoint,
    haar_unitary,
    mixed_state_matrix,
    pure_state_vector,
    random_mixed_state,
    random_pure_state,
    simplex_point,
)

# asymptotic Kolmogorov-Smirnov critical coefficient at alpha = 0.01
KS_COEFF_1PC = 1.628


def ks_statistic(samples: np.ndarray, cdf) -> float:
    x = np.sort(samples)
    n = x.size
    f = cdf(x)
    upper = np.max(np.arange(1, n + 1) / n - f)
    lower = np.max(f - np.arange(0, n) / n)
    return max(upper, lower)


class TestRandomStream:
    def test_reproducible(self):
        a = RandomStream(42, 7).generator.random(100)
        b = RandomStream(42, 7).generator.random(100)
        assert np.array_equal(a, b)

    def test_substreams_differ(self):
        a = RandomStream(42, 0).generator.random(100)
        b = RandomStream(42, 1).generator.random(100)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        # includes seeds above 2^53, which a float64 key would merge
        for s, t in ((1, 2), (2**64 - 1, 2**64 - 2), (2**63, 2**63 + 1)):
            a = RandomStream(s, 0).generator.random(100)
            b = RandomStream(t, 0).generator.random(100)
            assert not np.array_equal(a, b)

    @pytest.mark.parametrize("leftover", ["partial-block", "pending-half"])
    @pytest.mark.parametrize("seed", [0, 2**63 + 12345, 2**64 - 1])
    def test_reset_matches_fresh_stream(self, seed, leftover):
        """A stream moved to another substream draws what a fresh one draws,
        even when the previous trial left the generator mid-buffer."""
        rng = RandomStream(seed)
        for index in (0, 5 + 3 * RETRY_STRIDE, 2**64 - 1):
            rng.stream_index = 12  # the previous trial
            gen = rng.generator
            if leftover == "partial-block":
                gen.random(3)  # 3 of the 4 words of a Philox block
                assert gen.bit_generator.state["buffer_pos"] == 3
            else:
                gen.integers(0, 2**32, dtype=np.uint32)  # keeps the other 32 bits
                assert gen.bit_generator.state["has_uint32"] == 1
            rng.stream_index = index
            fresh = RandomStream(seed, index).generator
            assert rng.generator is gen
            assert repr(gen.bit_generator.state) == repr(fresh.bit_generator.state)
            for draw in (
                lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
                lambda g: g.standard_normal((2, 4, 4)),
                lambda g: g.random(3),
            ):
                assert np.array_equal(draw(rng.generator), draw(fresh))

    def test_seed_change_restarts(self):
        rng = RandomStream(1, 4)
        rng.generator.random(2)
        rng.seed = 2**64 - 1
        assert np.array_equal(rng.generator.random(5), RandomStream(2**64 - 1, 4).generator.random(5))

    def test_second_read_keeps_position(self):
        rng = RandomStream(3, 9)
        first = rng.generator.random(5)
        second = rng.generator.random(5)  # continues, as mixed_draw's two draws need
        assert np.array_equal(np.concatenate([first, second]), RandomStream(3, 9).generator.random(10))

    def test_identical_state_sequences(self):
        a = [mixed_state_matrix(RandomStream(5, i)) for i in range(10)]
        b = [mixed_state_matrix(RandomStream(5, i)) for i in range(10)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


@pytest.fixture(scope="module")
def haar_draws():
    n = 100_000
    out = np.empty((n, 4, 4), dtype=complex)
    for i in range(n):
        out[i] = haar_unitary(RandomStream(32, i)).matrix
    return out


@pytest.fixture(scope="module")
def simplex_draws():
    return np.array([simplex_point(RandomStream(34, i)).lambdas for i in range(100_000)])


@pytest.fixture(scope="module")
def mixed_mats():
    n = 100_000
    out = np.empty((n, 4, 4), dtype=complex)
    for i in range(n):
        out[i] = mixed_state_matrix(RandomStream(37, i))
    return out


class TestHaarUnitary:
    def test_unitary_every_draw(self):
        for i in range(50):
            u = haar_unitary(RandomStream(31, i)).matrix
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12

    def test_entry_second_moment(self, haar_draws):
        # Haar moment E|U_ij|^2 = 1/N
        means = np.mean(np.abs(haar_draws) ** 2, axis=0)
        assert np.max(np.abs(means - 0.25)) <= 0.003

    def test_corner_modulus_squared_is_beta_1_3(self, haar_draws):
        # |U_11|^2 ~ Beta(1, 3) for N=4: CDF 1 - (1-x)^3
        s = np.abs(haar_draws[:, 0, 0]) ** 2
        d = ks_statistic(s, lambda x: 1 - (1 - x) ** 3)
        assert d <= KS_COEFF_1PC / np.sqrt(s.size)

    def test_left_invariance(self, haar_draws):
        # fixed rotation must not change the |U_11| distribution
        v = haar_unitary(RandomStream(33, 0)).matrix
        rotated = np.abs((v @ haar_draws[:50_000])[:, 0, 0])
        plain = np.abs(haar_draws[50_000:, 0, 0])
        # two-sample KS against the Beta-derived CDF of each half
        d = ks_statistic(rotated, lambda x: 1 - (1 - np.clip(x**2, 0, 1)) ** 3)
        assert d <= KS_COEFF_1PC / np.sqrt(rotated.size)
        d2 = ks_statistic(plain, lambda x: 1 - (1 - np.clip(x**2, 0, 1)) ** 3)
        assert d2 <= KS_COEFF_1PC / np.sqrt(plain.size)


class TestSimplexPoint:
    def test_rejects_bad_weights(self):
        with pytest.raises(UsageError):
            SimplexPoint(np.array([0.5, 0.5, 0.5, -0.5]))

    def test_sums_to_one(self, simplex_draws):
        assert np.max(np.abs(simplex_draws.sum(axis=1) - 1.0)) <= 1e-12

    def test_component_means(self, simplex_draws):
        assert np.max(np.abs(simplex_draws.mean(axis=0) - 0.25)) <= 0.003

    def test_mean_maximum(self, simplex_draws):
        # order statistics of uniform spacings: E[max] = (1/4)(1 + 1/2 + 1/3 + 1/4)
        assert abs(simplex_draws.max(axis=1).mean() - 25 / 48) <= 0.003

    def test_mean_maximum_against_independent_dirichlet(self, simplex_draws):
        alt = np.random.default_rng(99).dirichlet(np.ones(4), size=100_000)
        assert abs(simplex_draws.max(axis=1).mean() - alt.max(axis=1).mean()) <= 0.006


class TestMixedStates:
    def test_valid_density_matrices(self):
        for i in range(100):
            random_mixed_state(RandomStream(35, i))  # constructor validates

    def test_spectrum_matches_simplex_draw(self):
        for i in range(100):
            rho = random_mixed_state(RandomStream(36, i))
            # replay the same substream to recover the lambda draw
            replay = RandomStream(36, i)
            haar_unitary(replay)
            lam = simplex_point(replay).lambdas
            eigs = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
            assert np.max(np.abs(eigs - np.sort(lam)[::-1])) <= 1e-10

    def test_mean_purity(self, mixed_mats):
        # flat Dirichlet second moment: E[sum lambda^2] = 2/(N+1) = 0.4
        pur = np.einsum("nij,nji->n", mixed_mats, mixed_mats).real
        assert abs(pur.mean() - 0.4) <= 0.005

    def test_mean_purity_against_independent_dirichlet(self):
        lam = np.random.default_rng(77).dirichlet(np.ones(4), size=100_000)
        assert abs((lam**2).sum(axis=1).mean() - 0.4) <= 0.005

    def test_majority_separable(self, mixed_mats):
        from entlab.entanglement import concurrence_batch

        conc = concurrence_batch(mixed_mats[:20_000])
        assert np.mean(conc <= 1e-9) > 0.5


class TestPureStates:
    def test_unit_norm_every_draw(self):
        for i in range(100):
            psi = random_pure_state(RandomStream(38, i))
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12

    def test_amplitude_symmetry(self):
        vecs = np.array([pure_state_vector(RandomStream(39, i)) for i in range(100_000)])
        probs = np.abs(vecs) ** 2
        assert np.max(np.abs(probs.mean(axis=0) - 0.25)) <= 0.003

    def test_mean_eof_consistency(self):
        # light version of the 1/(3 ln 2) check; the acceptance suite runs
        # the full-size one
        from entlab.entanglement import eof_batch

        vecs = np.array([pure_state_vector(RandomStream(40, i)) for i in range(100_000)])
        rhos = vecs[:, :, None] * vecs.conj()[:, None, :]
        assert abs(eof_batch(rhos).mean() - 1 / (3 * np.log(2))) <= 0.01
