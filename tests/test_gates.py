import numpy as np
import pytest

from entlab.entanglement import eof
from entlab.errors import UsageError
from entlab.gates import UnitaryGate, apply, circuit, cnot, hadamard
from entlab.linalg import kron, max_abs
from entlab.qstate import DensityMatrix, densify, ket

from conftest import mixed_states

I2 = np.eye(2, dtype=complex)
I4 = np.eye(4, dtype=complex)
SX = np.array([[0, 1], [1, 0]], dtype=complex)
SZ = np.array([[1, 0], [0, -1]], dtype=complex)
INV_SQRT2 = 1 / np.sqrt(2)

# the circuit carries the product basis onto the Bell basis
BELL_TARGETS = {
    "00": np.array([-1, 0, 0, 1]) * INV_SQRT2,
    "01": np.array([0, -1, 1, 0]) * INV_SQRT2,
    "10": np.array([1, 0, 0, 1]) * INV_SQRT2,
    "11": np.array([0, 1, 1, 0]) * INV_SQRT2,
}


class TestHadamard:
    def test_action_on_zero(self):
        out = hadamard().matrix @ np.array([1, 0])
        assert np.allclose(out, np.array([-1, 1]) * INV_SQRT2)

    def test_action_on_one(self):
        out = hadamard().matrix @ np.array([0, 1])
        assert np.allclose(out, np.array([1, 1]) * INV_SQRT2)

    def test_involution(self):
        h = hadamard().matrix
        assert max_abs(h @ h - I2) <= 1e-15


class TestCnot:
    def test_flips_target_when_control_set(self):
        assert np.allclose(cnot().matrix @ ket("10").amplitudes, ket("11").amplitudes)

    def test_leaves_target_when_control_clear(self):
        assert np.allclose(cnot().matrix @ ket("00").amplitudes, ket("00").amplitudes)

    def test_involution(self):
        c = cnot().matrix
        assert max_abs(c @ c - I4) == 0.0

    def test_block_form(self):
        c = cnot().matrix
        assert np.array_equal(c[:2, :2], I2)
        assert np.array_equal(c[2:, 2:], SX)
        assert np.array_equal(c[:2, 2:], np.zeros((2, 2)))


class TestCircuit:
    def test_is_cnot_after_hadamard_on_control(self):
        expected = cnot().matrix @ kron(hadamard().matrix, I2)
        assert np.array_equal(circuit().matrix, expected)

    def test_unitary(self):
        u = circuit().matrix
        assert max_abs(u.conj().T @ u - I4) <= 1e-12

    @pytest.mark.parametrize("bits", sorted(BELL_TARGETS))
    def test_maps_product_basis_to_bell_basis(self, bits):
        out = circuit().matrix @ ket(bits).amplitudes
        assert np.max(np.abs(out - BELL_TARGETS[bits])) <= 1e-12

    @pytest.mark.parametrize("bits", sorted(BELL_TARGETS))
    def test_bell_outputs_maximally_entangled(self, bits):
        final = apply(circuit(), densify(ket(bits)))
        assert eof(final) == pytest.approx(1.0, abs=1e-9)


class TestApply:
    def test_maximally_mixed_fixed_point(self):
        rho = DensityMatrix(I4 / 4)
        assert np.allclose(apply(circuit(), rho).matrix, I4 / 4)

    def test_ground_state_to_bell(self):
        out = apply(circuit(), densify(ket("00"))).matrix
        expected = np.outer(BELL_TARGETS["00"], BELL_TARGETS["00"].conj())
        assert max_abs(out - expected) <= 1e-12

    def test_reversible_via_adjoint(self):
        inverse = UnitaryGate(circuit().matrix.conj().T)
        for rho in mixed_states(11, 30):
            back = apply(circuit(), apply(inverse, rho))
            assert max_abs(back.matrix - rho.matrix) <= 1e-10

    def test_preserves_trace_hermiticity_spectrum_purity(self):
        for rho in mixed_states(12, 30):
            out = apply(circuit(), rho)
            assert abs(np.trace(out.matrix) - 1.0) <= 1e-12
            assert max_abs(out.matrix - out.matrix.conj().T) <= 1e-12
            before = np.sort(np.linalg.eigvalsh(rho.matrix))
            after = np.sort(np.linalg.eigvalsh(out.matrix))
            assert np.max(np.abs(before - after)) <= 1e-9
            purity = np.trace(rho.matrix @ rho.matrix).real
            assert np.trace(out.matrix @ out.matrix).real == pytest.approx(purity, abs=1e-10)

    def test_rejects_2x2_gate(self):
        with pytest.raises(UsageError):
            apply(hadamard(), DensityMatrix(I4 / 4))


class TestHadamardConventionRobustness:
    """The implemented Hadamard and the (X+Z)/sqrt(2) variant differ by
    sigma_x conjugation, a local unitary, so entanglement statistics agree."""

    def test_variants_related_by_sigma_x(self):
        h_a = (SX + SZ) * INV_SQRT2
        assert np.allclose(SX @ h_a @ SX, hadamard().matrix)

    def test_entanglement_statistics_identical(self):
        h_a = (SX + SZ) * INV_SQRT2
        alt_circuit = UnitaryGate(cnot().matrix @ kron(h_a, I2))
        flip = kron(SX, I2)
        for rho in mixed_states(13, 1000):
            rho_flipped = DensityMatrix(flip @ rho.matrix @ flip)
            ef_alt = eof(apply(alt_circuit, rho_flipped))
            ef = eof(apply(circuit(), rho))
            assert ef_alt == pytest.approx(ef, abs=1e-9)


def test_unitary_gate_rejects_non_unitary():
    with pytest.raises(UsageError):
        UnitaryGate(np.diag([1.0, 1.0, 1.0, 0.5]))
