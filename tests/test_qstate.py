import numpy as np
import pytest

from entlab.entanglement import concurrence_batch
from entlab.errors import UsageError
from entlab.qstate import DensityMatrix, PureState, densify, ket
from entlab.sampling import RandomStream, pure_state_vector

from conftest import mixed_matrices

I4 = np.eye(4, dtype=complex)
MAX_MIXED = DensityMatrix(I4 / 4)


def bell_phi_plus():
    return PureState(np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2))


def ppt_min_eigenvalue(rhos: np.ndarray) -> np.ndarray:
    """Smallest eigenvalue of the partial transpose (second qubit) of each state
    in a (n, 4, 4) stack. By Peres-Horodecki, exact for two qubits, a state is
    entangled iff it is negative."""
    pt = rhos.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    return np.linalg.eigvalsh(0.5 * (pt + pt.conj().transpose(0, 2, 1)))[:, 0]


class TestPureState:
    def test_rejects_unnormalized(self):
        with pytest.raises(UsageError):
            PureState(np.array([1.0, 1.0, 0.0, 0.0]))

    def test_rejects_wrong_length(self):
        with pytest.raises(UsageError):
            PureState(np.array([1.0, 0.0]))


class TestDensityMatrix:
    def test_rejects_traceless(self):
        with pytest.raises(UsageError):
            DensityMatrix(I4)

    def test_rejects_non_hermitian(self):
        m = np.diag([0.25, 0.25, 0.25, 0.25]).astype(complex)
        m[0, 1] = 0.1j
        with pytest.raises(UsageError):
            DensityMatrix(m)

    def test_rejects_negative_eigenvalue(self):
        with pytest.raises(UsageError):
            DensityMatrix(np.diag([0.6, 0.6, -0.1, -0.1]).astype(complex))


class TestDensify:
    def test_ground_state(self):
        assert np.allclose(densify(ket("00")).matrix, np.diag([1, 0, 0, 0]))

    def test_bell_corners(self):
        m = densify(bell_phi_plus()).matrix
        expected = np.zeros((4, 4), dtype=complex)
        expected[0, 0] = expected[0, 3] = expected[3, 0] = expected[3, 3] = 0.5
        assert np.allclose(m, expected)

    def test_projector(self):
        psi = PureState(pure_state_vector(RandomStream(5, 0)))
        rho = densify(psi)
        assert abs(np.trace(rho.matrix) - 1.0) <= 1e-12
        assert np.linalg.matrix_rank(rho.matrix, tol=1e-10) == 1

    def test_global_phase_irrelevant(self):
        psi = PureState(pure_state_vector(RandomStream(5, 1)))
        shifted = PureState(psi.amplitudes * np.exp(0.7j))
        diff = densify(psi).matrix - densify(shifted).matrix
        assert np.max(np.abs(diff)) <= 1e-12


class TestPptCriterion:
    """The concurrence kernel against the partial-transpose (Peres-Horodecki)
    verdict, on named states and on sampled ones."""

    def test_maximally_mixed_separable(self):
        assert ppt_min_eigenvalue(MAX_MIXED.matrix[None])[0] == pytest.approx(0.25, abs=1e-12)
        assert concurrence_batch(MAX_MIXED.matrix[None])[0] == 0.0

    def test_bell_entangled(self):
        bell = densify(bell_phi_plus()).matrix[None]
        assert ppt_min_eigenvalue(bell)[0] == pytest.approx(-0.5, abs=1e-12)
        assert concurrence_batch(bell)[0] == pytest.approx(1.0, abs=1e-9)

    def test_product_pure_separable(self):
        rng = np.random.default_rng(9)
        a = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
        b = rng.standard_normal((20, 2)) + 1j * rng.standard_normal((20, 2))
        a /= np.linalg.norm(a, axis=1, keepdims=True)
        b /= np.linalg.norm(b, axis=1, keepdims=True)
        v = (a[:, :, None] * b[:, None, :]).reshape(20, 4)
        rhos = v[:, :, None] * v.conj()[:, None, :]
        assert np.all(ppt_min_eigenvalue(rhos) > -1e-9)
        assert np.all(concurrence_batch(rhos) < 1e-6)

    def test_agrees_with_concurrence_outside_boundary_band(self):
        # Peres-Horodecki <=> positive concurrence, exact in 2x2. States
        # hugging the separability boundary (either quantity within 1e-6 of
        # zero without being exactly zero) are skipped: there the sign tests
        # are roundoff-dominated.
        mats = mixed_matrices(10, 10_000)
        conc = concurrence_batch(mats)
        min_eig = ppt_min_eigenvalue(mats)
        boundary = (np.abs(min_eig) < 1e-6) | ((conc > 0.0) & (conc < 1e-6))
        clear = ~boundary
        assert clear.sum() > 5000  # the band must not swallow the sample
        ppt_verdict = min_eig[clear] < -1e-9
        conc_verdict = conc[clear] > 1e-9
        assert np.array_equal(ppt_verdict, conc_verdict)
