"""Validated two-qubit state representations: pure states and density matrices.

Basis ordering throughout is |00>, |01>, |10>, |11>, with the first (left)
qubit acting as control for the CNOT gate and target of the Hadamard.
"""

from __future__ import annotations

import numpy as np

from .errors import Frozen, UsageError
from .linalg import HERMITIAN_TOL, as_array, max_abs

NORM_TOL = 1e-10
TRACE_TOL = 1e-10
EIG_FLOOR = -1e-10


class PureState(Frozen):
    """Unit vector (a, b, c, d) over |00>, |01>, |10>, |11>, stored read-only.
    The amplitudes come as a flat array of four: a (2, 2) or (4, 1) array is
    refused, not flattened."""

    def __init__(self, amplitudes):
        amp = as_array(amplitudes, (4,))
        if abs(np.linalg.norm(amp) - 1.0) > NORM_TOL:
            raise UsageError(f"pure state norm {np.linalg.norm(amp):.12f} != 1")
        self._set(amplitudes=amp)


class DensityMatrix(Frozen):
    """Validated 4x4 density matrix: Hermitian, unit trace, PSD; stored read-only."""

    def __init__(self, matrix):
        m = as_array(matrix, (4, 4))
        if max_abs(m - m.conj().T) > HERMITIAN_TOL:
            raise UsageError("density matrix is not Hermitian within tolerance")
        if abs(np.trace(m).real - 1.0) > TRACE_TOL or abs(np.trace(m).imag) > TRACE_TOL:
            raise UsageError(f"density matrix trace {np.trace(m):.12f} != 1")
        if np.linalg.eigvalsh(m).min() < EIG_FLOOR:
            raise UsageError("density matrix has a negative eigenvalue beyond tolerance")
        self._set(matrix=m)


def ket(bits: str) -> PureState:
    """Computational basis state from a two-character bit string, e.g. '01'."""
    if len(bits) != 2 or any(b not in "01" for b in bits):
        raise UsageError(f"expected a 2-bit string, got {bits!r}")
    amp = np.zeros(4, dtype=complex)
    amp[int(bits, 2)] = 1.0
    return PureState(amp)


def densify(psi: PureState) -> DensityMatrix:
    """Rank-1 projector |psi><psi|."""
    amp = psi.amplitudes
    return DensityMatrix(np.outer(amp, amp.conj()))
