import numpy as np
import pytest

from entlab.entanglement import SIGMA_Y
from entlab.errors import UsageError
from entlab.gates import circuit, cnot, hadamard
from entlab.linalg import as_matrix, kron, max_abs, psd_sqrt

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
        values = np.linalg.eigvalsh(kron(SIGMA_Y, SIGMA_Y))
        assert np.allclose(values, [-1, -1, 1, 1], atol=1e-12)

    def test_bilinearity(self, rng):
        for _ in range(50):
            a, b, c = (random_matrix(rng, 2) for _ in range(3))
            lhs = kron(a + b, c)
            rhs = kron(a, c) + kron(b, c)
            assert max_abs(lhs - rhs) <= 1e-12

    def test_rejects_4x4(self):
        with pytest.raises(UsageError):
            kron(I4, I2)


class TestPsdSqrt:
    def test_identity(self):
        assert np.allclose(psd_sqrt(I4), I4)

    def test_diagonal(self):
        assert np.allclose(psd_sqrt(np.diag([4.0, 1.0, 0.0, 0.0])), np.diag([2.0, 1.0, 0.0, 0.0]))

    def test_square_recovers_sampled_states(self):
        m = mixed_matrices(202, 100)
        b = psd_sqrt(m)
        assert max_abs(b - b.conj().swapaxes(-1, -2)) <= 1e-12
        assert max_abs(b @ b - m) <= 1e-8

    def test_stack_matches_one_at_a_time(self):
        m = mixed_matrices(203, 12).reshape(3, 4, 4, 4)
        b = psd_sqrt(m)
        assert b.shape == m.shape
        for i in range(3):
            for j in range(4):
                assert max_abs(b[i, j] - psd_sqrt(m[i, j])) <= 1e-14

    def test_rank_one_root_is_the_projector(self, rng):
        # roundoff eigenvalues are clamped, so the root of |v><v| has rank exactly 1
        for _ in range(50):
            v = random_matrix(rng)[0]
            v /= np.linalg.norm(v)
            p = np.outer(v, v.conj())
            assert max_abs(psd_sqrt(p) - p) <= 1e-12


def test_as_matrix_rejects_nonfinite():
    bad = I4.copy()
    bad[0, 0] = np.nan
    with pytest.raises(UsageError):
        as_matrix(bad)


def test_as_matrix_rejects_odd_dims():
    with pytest.raises(UsageError):
        as_matrix(np.eye(3))
