"""Hadamard, CNOT, and the composed Hadamard-CNOT circuit unitary.

The Hadamard here follows the convention that maps |0> to (|1> - |0>)/sqrt(2)
and |1> to (|0> + |1>)/sqrt(2); it differs from the more common (X+Z)/sqrt(2)
form by conjugation with sigma_x, a local unitary that leaves all
entanglement statistics unchanged. The circuit is CNOT after Hadamard on the
first (control) qubit, which carries the product basis onto the Bell basis.
"""

from __future__ import annotations

from functools import lru_cache
from typing import TYPE_CHECKING

import numpy as np

from .errors import Frozen, NumericError, UsageError
from .linalg import as_array, max_abs, sum_rows

if TYPE_CHECKING:
    from .qstate import DensityMatrix

UNITARY_TOL = 1e-12


class UnitaryGate(Frozen):
    """A unitary matrix, checked to satisfy U^dag U = I within 1e-12, and
    stored read-only: `circuit()`'s gate is shared by the whole process."""

    def __init__(self, matrix):
        m = as_array(matrix, (2, 2), (4, 4))
        dev = max_abs(m.conj().T @ m - np.eye(m.shape[0]))
        if dev > UNITARY_TOL:
            raise UsageError(f"matrix is not unitary: max deviation {dev:.3e}")
        self._set(matrix=m)


@lru_cache(maxsize=None)
def hadamard() -> UnitaryGate:
    """Single-qubit Hadamard: |0> -> (|1> - |0>)/sqrt(2), |1> -> (|0> + |1>)/sqrt(2)."""
    return UnitaryGate(np.array([[-1, 1], [1, 1]], dtype=complex) / np.sqrt(2))


@lru_cache(maxsize=None)
def cnot() -> UnitaryGate:
    """CNOT with the first qubit as control: |e1 e2> -> |e1, e1 xor e2>."""
    m = np.zeros((4, 4), dtype=complex)
    m[0, 0] = m[1, 1] = 1.0  # control 0: identity block
    m[2, 3] = m[3, 2] = 1.0  # control 1: NOT block
    return UnitaryGate(m)


@lru_cache(maxsize=None)
def circuit() -> UnitaryGate:
    """The composed circuit: Hadamard on the control qubit, then CNOT.

    Maps each product basis state to a Bell state.
    """
    return UnitaryGate(cnot().matrix @ np.kron(hadamard().matrix, np.eye(2)))


def apply_to_factors(gate: UnitaryGate, w: np.ndarray) -> np.ndarray:
    """gate.matrix @ W for each factor W in an (..., 4, k) stack, as sums of
    W's rows weighted by the nonzero entries of the gate's rows, elementwise
    along the stack (a matmul is one zgemm per matrix). The circuit's rows
    each hold two entries of +-1/sqrt(2). The result has W's memory layout."""
    out = np.empty_like(w)
    for i, row in enumerate(gate.matrix):
        out[..., i, :] = sum_rows([row[k] * w[..., k, :] for k in np.flatnonzero(row)])
    return out


def apply(gate: UnitaryGate, rho: DensityMatrix) -> DensityMatrix:
    """Conjugate a state by a 4x4 unitary: rho -> U rho U^dag.

    The result is re-symmetrized and trace-renormalized to absorb roundoff
    before revalidation, so repeated applications keep downstream
    eigensolver preconditions intact.
    """
    from .qstate import DensityMatrix  # a run does not pay for the import

    if gate.matrix.shape != (4, 4):
        raise UsageError("apply needs a 4x4 gate")
    out = gate.matrix @ rho.matrix @ gate.matrix.conj().T
    out = 0.5 * (out + out.conj().T)
    out = out / np.trace(out).real
    try:
        return DensityMatrix(out)
    except UsageError as exc:
        raise NumericError(f"unitary conjugation broke state invariants: {exc}") from exc
