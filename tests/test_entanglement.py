import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from entlab.entanglement import (
    SEPARABLE_DET_MARGIN,
    _laplace_det4,
    binary_entropy,
    concurrence,
    concurrence_batch,
    concurrence_from_lambdas,
    eof,
    eof_from_concurrence,
    factor_concurrence,
    factor_eof,
    factor_lambdas,
    partial_transpose_det,
    rho_tilde,
)
from entlab.errors import UsageError
from entlab.linalg import psd_factor
from entlab.qstate import DensityMatrix, PureState, densify, ket
from entlab.gates import circuit
from entlab.sampling import RandomStream, haar_unitaries, pure_state_vector, sample_chunk

from conftest import SEPARABLE_FRACTION, definition_concurrence, definition_eof, mixed_matrices, mixed_states, pure_states

I4 = np.eye(4, dtype=complex)

# h((1 + sqrt(1 - 0.25^2)) / 2) evaluated at 30 decimal digits
EOF_AT_QUARTER_CONCURRENCE = 0.11761887377091791


def singlet() -> PureState:
    return PureState(np.array([0, 1, -1, 0], dtype=complex) / np.sqrt(2))


def werner(x: float) -> DensityMatrix:
    psi = singlet().amplitudes
    return DensityMatrix(x * np.outer(psi, psi.conj()) + (1 - x) * I4 / 4)


def werner_concurrence_closed_form(x: float) -> float:
    return max(0.0, (3 * x - 1) / 2)


def haar_stack(seed: int, count: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return haar_unitaries(rng.standard_normal((count, 4, 4)) + 1j * rng.standard_normal((count, 4, 4)))


def haar_spectral_stack(seed: int, spectra: np.ndarray) -> np.ndarray:
    """U diag(lambda) U^dag with an independent Haar U per row of `spectra`."""
    u = haar_stack(seed, len(spectra))
    return (u * spectra[:, None, :]) @ u.conj().swapaxes(-1, -2)


def haar_factor_stack(seed: int, spectra: np.ndarray) -> np.ndarray:
    """The factors U diag(sqrt(lambda)) of `haar_spectral_stack(seed, spectra)`."""
    return haar_stack(seed, len(spectra)) * np.sqrt(spectra)[:, None, :]


def rank_deficient_spectra(rank: int, count: int = 200) -> np.ndarray:
    w = np.random.default_rng(27 + rank).random((count, rank))
    return np.pad(w / w.sum(axis=1, keepdims=True), ((0, 0), (0, 4 - rank)))


DEGENERATE_SPECTRA = pytest.mark.parametrize(
    "spectrum", [(1 / 2, 1 / 2, 0, 0), (1 / 3, 1 / 3, 1 / 3, 0), (1 / 4, 1 / 4, 1 / 4, 1 / 4)],
    ids=["half-half", "thirds", "quarters"],
)


def werner_factor(x: float) -> np.ndarray:
    """The Werner state's eigen-decomposition as a factor: sqrt((1 + 3x)/4)
    times the singlet, and sqrt((1 - x)/4) times each triplet state."""
    triplet = np.array([[1, 0, 0, 0], [0, 1 / np.sqrt(2), 1 / np.sqrt(2), 0], [0, 0, 0, 1]])
    vecs = np.column_stack([singlet().amplitudes, *triplet])
    return vecs * np.sqrt([(1 + 3 * x) / 4] + [(1 - x) / 4] * 3)


def one_column_factors(vecs: np.ndarray) -> np.ndarray:
    """Each unit vector v as the rank-1 factor (v, 0, 0, 0) of |v><v|."""
    w = np.zeros((len(vecs), 4, 4), dtype=complex)
    w[:, :, 0] = vecs
    return w


def kron_stack(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a[i] (x) b[i] for two (n, 2, 2) stacks."""
    return np.einsum("nij,nkl->nikjl", a, b).reshape(len(a), 4, 4)


def density_eof(rhos: np.ndarray) -> np.ndarray:
    """E_F of each density matrix in a stack, by `concurrence_batch`."""
    return eof_from_concurrence(concurrence_batch(rhos))


def assert_kernel_matches_definition(rhos: np.ndarray, tol: float) -> None:
    """Batched kernel and its scalar view against `definition_concurrence`."""
    c_def = definition_concurrence(rhos)
    assert np.max(np.abs(concurrence_batch(rhos) - c_def)) <= tol
    assert np.max(np.abs(density_eof(rhos) - definition_eof(c_def))) <= tol
    for i in range(0, len(rhos), 10):
        rho = DensityMatrix(0.5 * (rhos[i] + rhos[i].conj().T))
        assert concurrence(rho) == pytest.approx(c_def[i], abs=tol)
        assert eof(rho) == pytest.approx(definition_eof(c_def[i]), abs=tol)


class TestRhoTilde:
    def test_maximally_mixed_fixed_point(self):
        assert np.allclose(rho_tilde(DensityMatrix(I4 / 4)), I4 / 4)

    def test_singlet_spin_flip_invariant(self):
        rho = densify(singlet())
        assert np.max(np.abs(rho_tilde(rho) - rho.matrix)) <= 1e-12

    def test_ground_state_maps_to_excited(self):
        # sigma_y x sigma_y carries |00> to -|11>; the phase cancels in the projector
        out = rho_tilde(densify(ket("00")))
        assert np.allclose(out, densify(ket("11")).matrix)

    def test_result_is_a_state(self):
        for rho in mixed_states(21, 30):
            rt = rho_tilde(rho)
            DensityMatrix(rt)  # validates Hermitian, trace 1, PSD


class TestBinaryEntropy:
    def test_maximum(self):
        assert binary_entropy(0.5) == pytest.approx(1.0, abs=1e-15)

    def test_endpoints(self):
        assert binary_entropy(0.0) == 0.0
        assert binary_entropy(1.0) == 0.0

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_symmetry(self, x):
        assert binary_entropy(x) == pytest.approx(binary_entropy(1 - x), abs=1e-12)

    @given(st.floats(min_value=0.0, max_value=1.0))
    def test_range(self, x):
        assert 0.0 <= binary_entropy(x) <= 1.0

    @pytest.mark.parametrize("x", [-0.1, 1.1])
    def test_domain_error(self, x):
        with pytest.raises(UsageError):
            binary_entropy(x)
        with pytest.raises(UsageError):
            binary_entropy(np.array([0.5, x]))

    def test_elementwise(self):
        xs = np.array([0.0, 0.1, 0.5, 0.9, 1.0])
        assert np.array_equal(binary_entropy(xs), [binary_entropy(x) for x in xs])


class TestConcurrence:
    def test_maximally_mixed(self):
        assert concurrence(DensityMatrix(I4 / 4)) == 0.0

    def test_bell_state(self):
        rho = densify(PureState(np.array([1, 0, 0, 1]) / np.sqrt(2)))
        assert concurrence(rho) == pytest.approx(1.0, abs=1e-9)
        assert eof(rho) == pytest.approx(1.0, abs=1e-9)

    def test_product_state(self):
        assert concurrence(densify(ket("00"))) == 0.0

    def test_werner_half(self):
        assert concurrence(werner(0.5)) == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("x", [0.0, 0.2, 1 / 3 - 1e-6, 1 / 3, 1 / 3 + 1e-6, 0.5, 0.8, 1.0])
    def test_werner_family_closed_form(self, x):
        assert concurrence(werner(x)) == pytest.approx(werner_concurrence_closed_form(x), abs=1e-9)

    @pytest.mark.parametrize("x", [0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0])
    def test_werner_closed_form_against_brute_force(self, x):
        # independent route: general (non-Hermitian) eigenvalues of rho @ rho_tilde
        brute = definition_concurrence(werner(x).matrix)
        assert brute == pytest.approx(werner_concurrence_closed_form(x), abs=1e-9)

    def test_report_invariants(self):
        for rho in mixed_states(22, 200):
            lam = factor_lambdas(psd_factor(rho.matrix))
            c, e = concurrence(rho), eof(rho)
            assert np.all(np.diff(lam) <= 0)
            assert lam.min() >= 0.0
            assert c == pytest.approx(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]), abs=1e-10)
            assert e == pytest.approx(eof_from_concurrence(c), abs=1e-10)
            assert 0.0 <= c <= 1.0
            assert 0.0 <= e <= 1.0

    def test_scalar_is_a_stack_of_one(self):
        """The scalar functions give the batched kernel's values bit for bit."""
        states = mixed_states(22, 200)
        rhos = np.array([rho.matrix for rho in states])
        c, e = concurrence_batch(rhos), factor_eof(psd_factor(rhos))
        assert [concurrence(rho) for rho in states] == c.tolist()
        assert [eof(rho) for rho in states] == e.tolist()


class TestEof:
    def test_zero_concurrence(self):
        assert eof_from_concurrence(0.0) == 0.0

    def test_elementwise(self):
        cs = np.array([0.0, 0.25, 0.5, 1.0])
        assert np.array_equal(eof_from_concurrence(cs), [eof_from_concurrence(c) for c in cs])

    def test_unit_concurrence(self):
        assert eof_from_concurrence(1.0) == pytest.approx(1.0, abs=1e-12)

    def test_quarter_concurrence_regression(self):
        assert eof_from_concurrence(0.25) == pytest.approx(EOF_AT_QUARTER_CONCURRENCE, abs=1e-12)

    def test_strictly_increasing_in_concurrence(self):
        grid = np.arange(0.1, 1.0, 0.1)
        values = [eof_from_concurrence(c) for c in grid]
        assert np.all(np.diff(values) > 0)

    def test_zero_iff_zero_concurrence(self):
        for rho in mixed_states(23, 100):
            assert (eof(rho) <= 1e-10) == (concurrence(rho) <= 1e-10)


class TestPureOracle:
    """The closed form 2|ad - bc|, written out here, on named states."""

    def test_bell(self):
        a, b, c, d = PureState(np.array([1, 0, 0, 1]) / np.sqrt(2)).amplitudes
        assert 2 * abs(a * d - b * c) == pytest.approx(1.0)

    def test_product(self):
        a, b, c, d = ket("01").amplitudes
        assert 2 * abs(a * d - b * c) == 0.0

    def test_two_term_superposition(self):
        psi = PureState(np.array([0.6, 0.0, 0.0, 0.8]))
        a, b, c, d = psi.amplitudes
        assert 2 * abs(a * d - b * c) == pytest.approx(0.96, abs=1e-12)
        assert concurrence(densify(psi)) == pytest.approx(0.96, abs=1e-9)

    def test_agrees_with_spectral_route(self):
        states = pure_states(24, 10_000)
        vecs = np.array([s.amplitudes for s in states])
        rhos = vecs[:, :, None] * vecs.conj()[:, None, :]
        spectral = concurrence_batch(rhos)
        closed = 2 * np.abs(vecs[:, 0] * vecs[:, 3] - vecs[:, 1] * vecs[:, 2])
        assert np.max(np.abs(spectral - closed)) <= 1e-9


def projectors(vecs: np.ndarray) -> np.ndarray:
    return vecs[:, :, None] * vecs.conj()[:, None, :]


def product_vectors(seed: int, count: int) -> np.ndarray:
    """The four computational basis states, then a (x) b for random qubit states."""
    rng = np.random.default_rng(seed)
    a, b = rng.standard_normal((2, count, 2)) + 1j * rng.standard_normal((2, count, 2))
    a /= np.linalg.norm(a, axis=1, keepdims=True)
    b /= np.linalg.norm(b, axis=1, keepdims=True)
    return np.concatenate([np.eye(4, dtype=complex), (a[:, :, None] * b[:, None, :]).reshape(count, 4)])


BELL_VECTORS = np.array([[1, 0, 0, 1], [1, 0, 0, -1], [0, 1, 1, 0], [0, 1, -1, 0]], dtype=complex) / np.sqrt(2)


def phased_bell_vectors(seed: int, count: int) -> np.ndarray:
    """(e^{ia}, 0, 0, e^{ib}) normalised; for some of them 2|ad - bc| rounds above 1."""
    ph = np.exp(2j * np.pi * np.random.default_rng(seed).random((count, 2)))
    v = np.zeros((count, 4), dtype=complex)
    v[:, 0], v[:, 3] = ph[:, 0], ph[:, 1]
    return v / np.linalg.norm(v, axis=1, keepdims=True)


class TestVectorKernel:
    """`factor_eof` on unit state vectors v as their rank-1 factors, (n, 4, 1)
    stacks, against the general kernel on |v><v| and C|v><v|C^dag, and
    against Wootters' definition."""

    @staticmethod
    def check(vecs: np.ndarray) -> np.ndarray:
        u = circuit().matrix
        for v, rhos in ((vecs, projectors(vecs)), (vecs @ u.T, u @ projectors(vecs) @ u.conj().T)):
            e = factor_eof(v[..., None])
            assert np.all((e >= 0.0) & (e <= 1.0))
            assert np.max(np.abs(e - density_eof(rhos))) <= 1e-12
            assert np.max(np.abs(factor_concurrence(v[..., None]) - concurrence_batch(rhos))) <= 1e-12
            assert np.max(np.abs(e - definition_eof(definition_concurrence(rhos)))) <= 1e-6
        return factor_eof(vecs[..., None])

    def test_haar_samples(self):
        self.check(np.array([pure_state_vector(RandomStream(42, i)) for i in range(2000)]))

    def test_product_states(self):
        vecs = product_vectors(43, 500)
        assert np.all(factor_concurrence(vecs[..., None]) <= 1e-15)
        assert np.all(self.check(vecs) <= 1e-12)
        assert np.all(factor_eof(vecs[:4, :, None]) == 0.0)
        # the circuit carries the product basis onto the Bell basis
        assert np.all(factor_eof(circuit().matrix @ vecs[:4, :, None]) == pytest.approx(1.0, abs=1e-12))

    def test_bell_states(self):
        assert np.all(factor_concurrence(BELL_VECTORS[..., None]) == pytest.approx(1.0, abs=1e-15))
        assert np.all(self.check(BELL_VECTORS) == pytest.approx(1.0, abs=1e-12))

    def test_concurrence_rounding_above_one(self):
        vecs = phased_bell_vectors(44, 2000)
        above = factor_concurrence(vecs[..., None]) > 1.0
        assert above.any()
        assert np.all(self.check(vecs[above]) == pytest.approx(1.0, abs=1e-12))

    def test_oracle_is_the_vector_kernel(self):
        # 2|ad - bc| in Python floats, every product and sum rounded on its
        # own, is the kernel to the last bit; numpy's complex expression, whose
        # products may fuse a multiply-add, agrees to rounding
        vecs = np.array([pure_state_vector(RandomStream(45, i)) for i in range(50)])
        oracle = []
        for a, b, c, d in vecs.tolist():
            re = (a.real * d.real - a.imag * d.imag) - (b.real * c.real - b.imag * c.imag)
            im = (a.real * d.imag + a.imag * d.real) - (b.real * c.imag + b.imag * c.real)
            oracle.append(2.0 * math.sqrt(re * re + im * im))
        assert np.array_equal(oracle, factor_concurrence(vecs[..., None]))
        closed = 2 * np.abs(vecs[:, 0] * vecs[:, 3] - vecs[:, 1] * vecs[:, 2])
        assert np.max(np.abs(closed - oracle)) <= 1e-15


class TestLocalUnitaryInvariance:
    def test_eof_invariant(self, rng):
        def random_local():
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, _ = np.linalg.qr(g)
            return q

        for rho in mixed_states(25, 100):
            local = np.kron(random_local(), random_local())
            rotated = DensityMatrix(local @ rho.matrix @ local.conj().T)
            assert eof(rotated) == pytest.approx(eof(rho), abs=1e-9)


class TestBatchKernels:
    def test_match_scalar_route(self):
        # full-rank product-measure states against Wootters' definition
        assert_kernel_matches_definition(mixed_matrices(26, 200), 1e-10)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_rank_deficient_spectra(self, rank):
        assert_kernel_matches_definition(haar_spectral_stack(rank, rank_deficient_spectra(rank)), 1e-6)

    @DEGENERATE_SPECTRA
    def test_degenerate_spectra(self, spectrum):
        tol = 1e-10 if min(spectrum) > 0 else 1e-6  # eigvals route loses digits on zero eigenvalues
        assert_kernel_matches_definition(haar_spectral_stack(31, np.tile(spectrum, (200, 1))), tol)



class TestFactorKernel:
    """`factor_concurrence`/`factor_eof` on factors W, rho = W W^dag, against
    the density-matrix route on W W^dag and against Wootters' definition."""

    @staticmethod
    def check(w: np.ndarray, tol: float) -> np.ndarray:
        rhos = w @ w.conj().swapaxes(-1, -2)
        c, e = factor_concurrence(w), factor_eof(w)
        assert np.max(np.abs(c - concurrence_batch(rhos))) <= 1e-12
        assert np.max(np.abs(e - density_eof(rhos))) <= 1e-12
        c_def = definition_concurrence(rhos)
        assert np.max(np.abs(c - c_def)) <= tol
        assert np.max(np.abs(e - definition_eof(c_def))) <= tol
        return c

    def test_sampled_factors(self):
        self.check(sample_chunk("mixed", 26, np.arange(200)), 1e-10)

    def test_sampled_factors_after_the_circuit(self):
        self.check(circuit().matrix @ sample_chunk("mixed", 28, np.arange(200)), 1e-10)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_rank_deficient_spectra(self, rank):
        self.check(haar_factor_stack(rank, rank_deficient_spectra(rank)), 1e-6)

    @DEGENERATE_SPECTRA
    def test_degenerate_spectra(self, spectrum):
        tol = 1e-10 if min(spectrum) > 0 else 1e-6
        self.check(haar_factor_stack(31, np.tile(spectrum, (200, 1))), tol)

    @pytest.mark.parametrize("x", [1 / 3 - 1e-6, 1 / 3 + 1e-6], ids=["below", "above"])
    def test_werner_at_the_threshold(self, x):
        c = self.check(werner_factor(x)[None], 1e-10)[0]
        if x < 1 / 3:
            assert c == 0.0
        else:
            assert c == pytest.approx(werner_concurrence_closed_form(x), abs=1e-14)

    def test_vector_is_its_rank_one_factor(self):
        vecs = np.array([pure_state_vector(RandomStream(46, i)) for i in range(200)])
        closed = factor_concurrence(vecs[..., None])  # the closed form 2|ad - bc|
        assert np.max(np.abs(closed - factor_concurrence(one_column_factors(vecs)))) <= 1e-14


def svd_concurrence(w: np.ndarray) -> np.ndarray:
    """The unscreened route: `factor_lambdas` on every state."""
    return concurrence_from_lambdas(factor_lambdas(w))


def weakly_entangled_vectors(seed: int, count: int) -> tuple[np.ndarray, np.ndarray]:
    """(U_A x U_B)(cos t |00> + sin t |11>) with Haar local unitaries and
    concurrence C = sin 2t from 1e-8 to 1e-3, where det(rho^Gamma) = -(C/2)^4
    lies far inside the margin; returns the vectors and their concurrences."""
    c = np.logspace(-8, -3, count)
    t = np.arcsin(c) / 2
    v = np.zeros((count, 4), dtype=complex)
    v[:, 0], v[:, 3] = np.cos(t), np.sin(t)
    rng = np.random.default_rng(seed)
    ua, ub = haar_unitaries(rng.standard_normal((2, count, 2, 2)) + 1j * rng.standard_normal((2, count, 2, 2)))
    return (kron_stack(ua, ub) @ v[:, :, None])[:, :, 0], c


class TestSeparableScreen:
    """`factor_concurrence` clears states with det(rho^Gamma) > SEPARABLE_DET_MARGIN
    without their SVD; on every other state it is the SVD route itself."""

    def test_closed_form_determinant(self):
        rng = np.random.default_rng(50)
        m = rng.standard_normal((2000, 4, 4)) + 1j * rng.standard_normal((2000, 4, 4))
        det = _laplace_det4(np.moveaxis(m, (-2, -1), (0, 1)))
        assert np.max(np.abs(det - np.linalg.det(m)) / np.abs(np.linalg.det(m)).clip(1.0)) <= 1e-13
        det = _laplace_det4(np.moveaxis(m.real, (-2, -1), (0, 1)))
        assert np.max(np.abs(det - np.linalg.det(m.real))) <= 1e-12

    def test_bell_states(self):
        assert np.allclose(partial_transpose_det(one_column_factors(BELL_VECTORS)), -1 / 16, rtol=0, atol=1e-16)

    def test_product_states(self):
        # rho_A x rho_B has rho^Gamma = rho_A x rho_B^T: det = det(rho_A)^2 det(rho_B)^2 > 0
        rng = np.random.default_rng(51)
        wa, wb = rng.standard_normal((2, 500, 2, 2)) + 1j * rng.standard_normal((2, 500, 2, 2))
        wa /= np.linalg.norm(wa, axis=(1, 2), keepdims=True)
        wb /= np.linalg.norm(wb, axis=(1, 2), keepdims=True)
        w = kron_stack(wa, wb)
        expected = (np.abs(np.linalg.det(wa)) * np.abs(np.linalg.det(wb))) ** 4
        det = partial_transpose_det(w)
        assert np.all(det > 0.0)
        assert np.max(np.abs(det - expected)) <= 1e-16
        # pure product states, as one-column factors: rho^Gamma has rank 1
        vecs = product_vectors(52, 500)
        w = one_column_factors(vecs)
        assert np.max(np.abs(partial_transpose_det(w))) <= 1e-16
        assert np.array_equal(factor_concurrence(w), svd_concurrence(w))
        assert np.all(factor_concurrence(w) <= 1e-15)

    def test_sampled_factors_match_the_svd_route(self):
        w = sample_chunk("mixed", 53, np.arange(100_000))
        for factors in (w, circuit().matrix @ w):
            cleared = partial_transpose_det(factors) > SEPARABLE_DET_MARGIN
            c_svd = svd_concurrence(factors)
            assert np.all(c_svd[cleared] == 0.0)
            assert np.array_equal(factor_concurrence(factors), c_svd)
            assert abs(np.mean(cleared) - SEPARABLE_FRACTION) <= 0.01  # the screen clears nearly all separable states

    @pytest.mark.parametrize("gap", [1e-6, 1e-9, 1e-12])
    @pytest.mark.parametrize("side", [-1, 1], ids=["below", "above"])
    def test_werner_near_the_threshold(self, gap, side):
        x = 1 / 3 + side * gap
        w = werner_factor(x)[None]
        det = partial_transpose_det(w)[0]
        assert det == pytest.approx(((1 + x) / 4) ** 3 * (1 - 3 * x) / 4, rel=1e-3, abs=1e-17)
        assert (det > SEPARABLE_DET_MARGIN) == (side < 0 and gap > 1e-12)
        c = factor_concurrence(w)
        assert np.array_equal(c, svd_concurrence(w))
        assert c[0] == pytest.approx(werner_concurrence_closed_form(x), abs=1e-14)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_rank_deficient_factors(self, rank):
        w = haar_factor_stack(rank, rank_deficient_spectra(rank, 2000))
        assert np.array_equal(factor_concurrence(w), svd_concurrence(w))

    def test_weakly_entangled_pure_states(self):
        vecs, c = weakly_entangled_vectors(54, 2000)
        w = one_column_factors(vecs)
        assert np.max(np.abs(partial_transpose_det(w) + (c / 2) ** 4)) <= 1e-16
        screened = factor_concurrence(w)
        assert np.array_equal(screened, svd_concurrence(w))
        assert np.max(np.abs(screened - c) / c) <= 1e-6
