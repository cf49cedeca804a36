import numpy as np
import pytest

from entlab.entanglement import SIGMA_Y
from entlab.errors import UsageError
from entlab.gates import circuit, cnot, hadamard
from entlab.linalg import as_matrix, hermitian_eigensystem, kron, max_abs, psd_sqrt

from conftest import mixed_matrices

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


def random_matrix(rng, dim=4):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


class TestMatmul:
    """Products of the package's matrices, taken with `@` on validated operands."""

    def test_yy_involution(self):
        yy = kron(SIGMA_Y, SIGMA_Y)
        assert np.allclose(yy @ yy, I4)

    def test_cnot_involution(self):
        c = cnot().matrix
        assert np.allclose(c @ c, I4)

    def test_dimension_mismatch(self):
        with pytest.raises(UsageError):
            as_matrix(I2, dim=4)

    def test_associativity(self, rng):
        # products of Kronecker factors regroup: (a x b)(c x d) = (ac) x (bd)
        for _ in range(50):
            a, b, c, d = (random_matrix(rng, 2) for _ in range(4))
            assert max_abs(kron(a, b) @ kron(c, d) - kron(a @ c, b @ d)) <= 1e-10


class TestAdjoint:
    def test_identity(self):
        u = circuit().matrix
        assert max_abs(u.conj().T @ u - I4) <= 1e-12

    def test_real_symmetric_fixed_point(self):
        h = hadamard().matrix
        assert np.allclose(h.conj().T, h)


class TestKron:
    def test_identity(self):
        assert np.array_equal(kron(I2, I2), I4)

    def test_sigma_y_pair(self):
        # hand expansion: anti-diagonal (-1, 1, 1, -1) from the top-right corner
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = expected[3, 0] = -1.0
        expected[1, 2] = expected[2, 1] = 1.0
        assert np.allclose(kron(SIGMA_Y, SIGMA_Y), expected, atol=1e-15)

    def test_sigma_y_pair_spectrum(self):
        values, _ = hermitian_eigensystem(kron(SIGMA_Y, SIGMA_Y))
        assert np.allclose(values, [1, 1, -1, -1], atol=1e-12)

    def test_bilinearity(self, rng):
        for _ in range(50):
            a, b, c = (random_matrix(rng, 2) for _ in range(3))
            lhs = kron(a + b, c)
            rhs = kron(a, c) + kron(b, c)
            assert max_abs(lhs - rhs) <= 1e-12

    def test_rejects_4x4(self):
        with pytest.raises(UsageError):
            kron(I4, I2)


class TestHermitianEigensystem:
    def test_identity(self):
        values, _ = hermitian_eigensystem(I4)
        assert np.allclose(values, 1.0)

    def test_diagonal_sorted(self):
        values, _ = hermitian_eigensystem(np.diag([0.1, 0.4, 0.2, 0.3]).astype(complex))
        assert np.allclose(values, [0.4, 0.3, 0.2, 0.1], atol=1e-14)

    def test_non_hermitian_rejected(self, rng):
        with pytest.raises(UsageError):
            hermitian_eigensystem(random_matrix(rng))

    def test_reconstruction_and_orthonormality(self, rng):
        for _ in range(100):
            a = random_matrix(rng)
            a = a + a.conj().T
            values, vectors = hermitian_eigensystem(a)
            assert np.all(np.diff(values) <= 0)
            gram = vectors.conj().T @ vectors
            assert max_abs(gram - I4) <= 1e-10
            assert max_abs((vectors * values) @ vectors.conj().T - a) <= 1e-10

    def test_density_matrix_spectrum_sums_to_one(self):
        for m in mixed_matrices(101, 50):
            values, _ = hermitian_eigensystem(0.5 * (m + m.conj().T))
            assert abs(values.sum() - 1.0) <= 1e-10


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(I4), I4)

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 1.0, 0.0, 0.0])), np.diag([2.0, 1.0, 0.0, 0.0]))

    def test_square_recovers_sampled_states(self):
        for m in mixed_matrices(202, 100):
            b = psd_sqrt(m)
            assert max_abs(b @ b - m) <= 1e-8

    def test_rejects_non_psd(self):
        with pytest.raises(UsageError):
            psd_sqrt(np.diag([1.0, 1.0, 1.0, -0.5]))


def test_as_matrix_rejects_nonfinite():
    bad = I4.copy()
    bad[0, 0] = np.nan
    with pytest.raises(UsageError):
        as_matrix(bad)


def test_as_matrix_rejects_odd_dims():
    with pytest.raises(UsageError):
        as_matrix(np.eye(3))
