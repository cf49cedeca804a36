import numpy as np
import pytest
from hypothesis import given, strategies as st

from entlab.entanglement import (
    binary_entropy,
    concurrence,
    concurrence_batch,
    eof,
    eof_batch,
    eof_from_concurrence,
    pure_concurrence_oracle,
    rho_tilde,
)
from entlab.errors import UsageError
from entlab.qstate import DensityMatrix, PureState, densify, ket
from entlab.sampling import RandomStream, haar_unitaries, random_mixed_state, spectral_states

from conftest import definition_concurrence, definition_eof, mixed_matrices, mixed_states, pure_states

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


def haar_spectral_stack(seed: int, spectra: np.ndarray) -> np.ndarray:
    """U diag(lambda) U^dag with an independent Haar U per row of `spectra`."""
    rng = np.random.default_rng(seed)
    g = rng.standard_normal((len(spectra), 4, 4)) + 1j * rng.standard_normal((len(spectra), 4, 4))
    return spectral_states(haar_unitaries(g), spectra)


def assert_kernel_matches_definition(rhos: np.ndarray, tol: float) -> None:
    """Batched kernel and its scalar view against `definition_concurrence`."""
    c_def = definition_concurrence(rhos)
    assert np.max(np.abs(concurrence_batch(rhos) - c_def)) <= tol
    assert np.max(np.abs(eof_batch(rhos) - definition_eof(c_def))) <= tol
    for i in range(0, len(rhos), 10):
        rep = concurrence(DensityMatrix(0.5 * (rhos[i] + rhos[i].conj().T)))
        assert rep.concurrence == pytest.approx(c_def[i], abs=tol)
        assert rep.eof == pytest.approx(definition_eof(c_def[i]), abs=tol)


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
        assert concurrence(DensityMatrix(I4 / 4)).concurrence == 0.0

    def test_bell_state(self):
        rep = concurrence(densify(PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))))
        assert rep.concurrence == pytest.approx(1.0, abs=1e-9)
        assert rep.eof == pytest.approx(1.0, abs=1e-9)

    def test_product_state(self):
        assert concurrence(densify(ket("00"))).concurrence == 0.0

    def test_werner_half(self):
        rep = concurrence(werner(0.5))
        assert rep.concurrence == pytest.approx(0.25, abs=1e-9)

    @pytest.mark.parametrize("x", [0.0, 0.2, 1 / 3 - 1e-6, 1 / 3, 1 / 3 + 1e-6, 0.5, 0.8, 1.0])
    def test_werner_family_closed_form(self, x):
        rep = concurrence(werner(x))
        assert rep.concurrence == pytest.approx(werner_concurrence_closed_form(x), abs=1e-9)

    @pytest.mark.parametrize("x", [0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0])
    def test_werner_closed_form_against_brute_force(self, x):
        # independent route: general (non-Hermitian) eigenvalues of rho @ rho_tilde
        brute = definition_concurrence(werner(x).matrix)
        assert brute == pytest.approx(werner_concurrence_closed_form(x), abs=1e-9)

    def test_report_invariants(self):
        for rho in mixed_states(22, 200):
            rep = concurrence(rho)
            lam = rep.lambdas
            assert np.all(np.diff(lam) <= 0)
            assert lam.min() >= 0.0
            assert rep.concurrence == pytest.approx(max(0.0, lam[0] - lam[1] - lam[2] - lam[3]), abs=1e-10)
            assert rep.eof == pytest.approx(eof_from_concurrence(rep.concurrence), abs=1e-10)
            assert 0.0 <= rep.concurrence <= 1.0
            assert 0.0 <= rep.eof <= 1.0


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
            rep = concurrence(rho)
            assert (rep.eof <= 1e-10) == (rep.concurrence <= 1e-10)


class TestPureOracle:
    def test_bell(self):
        assert pure_concurrence_oracle(PureState(np.array([1, 0, 0, 1]) / np.sqrt(2))) == pytest.approx(1.0)

    def test_product(self):
        assert pure_concurrence_oracle(ket("01")) == 0.0

    def test_two_term_superposition(self):
        psi = PureState(np.array([0.6, 0.0, 0.0, 0.8]))
        assert pure_concurrence_oracle(psi) == pytest.approx(0.96, abs=1e-12)
        assert concurrence(densify(psi)).concurrence == pytest.approx(0.96, abs=1e-9)

    def test_agrees_with_spectral_route(self):
        states = pure_states(24, 10_000)
        vecs = np.array([s.amplitudes for s in states])
        rhos = vecs[:, :, None] * vecs.conj()[:, None, :]
        spectral = concurrence_batch(rhos)
        closed = 2 * np.abs(vecs[:, 0] * vecs[:, 3] - vecs[:, 1] * vecs[:, 2])
        assert np.max(np.abs(spectral - closed)) <= 1e-9


class TestLocalUnitaryInvariance:
    def test_eof_invariant(self, rng):
        def random_local():
            g = rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2))
            q, _ = np.linalg.qr(g)
            return q

        for i in range(100):
            rho = random_mixed_state(RandomStream(25, i))
            local = np.kron(random_local(), random_local())
            rotated = DensityMatrix(local @ rho.matrix @ local.conj().T)
            assert eof(rotated) == pytest.approx(eof(rho), abs=1e-9)


class TestBatchKernels:
    def test_match_scalar_route(self):
        # full-rank product-measure states against Wootters' definition
        assert_kernel_matches_definition(mixed_matrices(26, 200), 1e-10)

    @pytest.mark.parametrize("rank", [1, 2, 3])
    def test_rank_deficient_spectra(self, rank):
        w = np.random.default_rng(27 + rank).random((200, rank))
        spectra = np.pad(w / w.sum(axis=1, keepdims=True), ((0, 0), (0, 4 - rank)))
        assert_kernel_matches_definition(haar_spectral_stack(rank, spectra), 1e-6)

    @pytest.mark.parametrize(
        "spectrum", [(1 / 2, 1 / 2, 0, 0), (1 / 3, 1 / 3, 1 / 3, 0), (1 / 4, 1 / 4, 1 / 4, 1 / 4)],
        ids=["half-half", "thirds", "quarters"],
    )
    def test_degenerate_spectra(self, spectrum):
        tol = 1e-10 if min(spectrum) > 0 else 1e-6  # eigvals route loses digits on zero eigenvalues
        assert_kernel_matches_definition(haar_spectral_stack(31, np.tile(spectrum, (200, 1))), tol)

