import numpy as np
import pytest

from entlab.entanglement import SIGMA_Y
from entlab.errors import UsageError
from entlab.gates import circuit, cnot, hadamard
from entlab.linalg import as_matrix, max_abs, psd_factor

from conftest import mixed_matrices

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)


def random_matrix(rng, dim=4):
    return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))


class TestMatmul:
    """Products of the package's matrices, taken with `@` on validated operands."""

    def test_yy_involution(self):
        yy = np.kron(SIGMA_Y, SIGMA_Y)
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
            assert max_abs(np.kron(a, b) @ np.kron(c, d) - np.kron(a @ c, b @ d)) <= 1e-10


class TestAdjoint:
    def test_identity(self):
        u = circuit().matrix
        assert max_abs(u.conj().T @ u - I4) <= 1e-12

    def test_real_symmetric_fixed_point(self):
        h = hadamard().matrix
        assert np.allclose(h.conj().T, h)


class TestKron:
    """`np.kron`, with which `gates.circuit` builds H (x) I: the first factor
    acts on the first (control) qubit, basis order |00>, |01>, |10>, |11>."""

    def test_identity(self):
        assert np.array_equal(np.kron(I2, I2), I4)

    def test_sigma_y_pair(self):
        # hand expansion: anti-diagonal (-1, 1, 1, -1) from the top-right corner
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 3] = expected[3, 0] = -1.0
        expected[1, 2] = expected[2, 1] = 1.0
        assert np.allclose(np.kron(SIGMA_Y, SIGMA_Y), expected, atol=1e-15)

    def test_sigma_y_pair_spectrum(self):
        values = np.linalg.eigvalsh(np.kron(SIGMA_Y, SIGMA_Y))
        assert np.allclose(values, [-1, -1, 1, 1], atol=1e-12)

    def test_bilinearity(self, rng):
        for _ in range(50):
            a, b, c = (random_matrix(rng, 2) for _ in range(3))
            lhs = np.kron(a + b, c)
            rhs = np.kron(a, c) + np.kron(b, c)
            assert max_abs(lhs - rhs) <= 1e-12

def gram(f: np.ndarray) -> np.ndarray:
    return f @ f.conj().swapaxes(-1, -2)


class TestPsdSqrt:
    """`psd_factor`: a square-root factor F of each PSD matrix A, F F^dag = A."""

    def test_identity(self):
        assert max_abs(gram(psd_factor(I4)) - I4) <= 1e-15

    def test_diagonal(self):
        a = np.diag([4.0, 1.0, 0.0, 0.0])
        f = psd_factor(a)
        assert max_abs(gram(f) - a) <= 1e-15
        # column j is sqrt(w_j) times the j-th eigenvector, in eigh's ascending order
        assert np.allclose(np.linalg.norm(f, axis=0), [0.0, 0.0, 1.0, 2.0], atol=1e-15)

    def test_square_recovers_sampled_states(self):
        m = mixed_matrices(202, 100)
        assert max_abs(gram(psd_factor(m)) - m) <= 1e-12

    def test_stack_matches_one_at_a_time(self):
        m = mixed_matrices(203, 12).reshape(3, 4, 4, 4)
        f = psd_factor(m)
        assert f.shape == m.shape
        for i in range(3):
            for j in range(4):
                assert max_abs(f[i, j] - psd_factor(m[i, j])) <= 1e-14

    def test_rank_one_factor_has_one_column(self, rng):
        # roundoff eigenvalues are clamped, so the factor of |v><v| has exactly
        # one nonzero column, v up to a phase
        for _ in range(50):
            v = random_matrix(rng)[0]
            v /= np.linalg.norm(v)
            p = np.outer(v, v.conj())
            f = psd_factor(p)
            assert np.count_nonzero(np.any(f != 0.0, axis=0)) == 1
            assert abs(abs(np.vdot(v, f[:, -1])) - 1.0) <= 1e-12
            assert max_abs(gram(f) - p) <= 1e-12


def test_as_matrix_rejects_nonfinite():
    bad = I4.copy()
    bad[0, 0] = np.nan
    with pytest.raises(UsageError):
        as_matrix(bad)


def test_as_matrix_rejects_odd_dims():
    with pytest.raises(UsageError):
        as_matrix(np.eye(3))
