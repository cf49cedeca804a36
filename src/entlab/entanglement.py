"""Wootters concurrence and entanglement of formation for two-qubit states.

One batched kernel, `wootters_lambdas`, solves the concurrence eigenproblem
for a stack of density matrices, and the validated scalar `concurrence`/`eof`
are stack-of-one calls of it. Pure states given as state vectors take the
closed form 2|ad - bc| instead.
`concurrence_batch`/`eof_batch` accept either stack and back the Monte Carlo
hot path. `binary_entropy` and `eof_from_concurrence` are elementwise and
serve every route.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import UsageError
from .linalg import psd_sqrt
from .qstate import DensityMatrix

SIGMA_Y = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(SIGMA_Y, SIGMA_Y)  # real: antidiag(-1, 1, 1, -1)

ENTROPY_DOMAIN_TOL = 1e-12


@dataclass(frozen=True)
class ConcurrenceReport:
    """Spectrum-level output of the concurrence computation.

    lambdas are the square roots, non-increasing, of the eigenvalues of
    rho @ rho_tilde; concurrence = max(0, l1 - l2 - l3 - l4); eof is the
    binary-entropy function of the concurrence.
    """

    lambdas: np.ndarray
    concurrence: float
    eof: float


def rho_tilde(rho: DensityMatrix) -> np.ndarray:
    """Spin-flipped state (sigma_y x sigma_y) rho* (sigma_y x sigma_y).

    Requires rho in the product basis; the result is again a valid state.
    """
    return _YY @ rho.matrix.conj() @ _YY


def _xlog2x(x: np.ndarray) -> np.ndarray:
    return x * np.log2(np.where(x > 0, x, 1.0))  # 0 log 0 = 0


def binary_entropy(x):
    """Shannon entropy of a bit, -x log2 x - (1-x) log2 (1-x), elementwise,
    with the continuous-extension convention 0 log 0 = 0."""
    x = np.asarray(x, dtype=float)
    if np.any((x < -ENTROPY_DOMAIN_TOL) | (x > 1.0 + ENTROPY_DOMAIN_TOL)):
        raise UsageError(f"binary_entropy argument outside [0, 1]: range [{x.min()}, {x.max()}]")
    x = np.clip(x, 0.0, 1.0)
    return np.clip(-_xlog2x(x) - _xlog2x(1.0 - x), 0.0, 1.0)


def eof_from_concurrence(c):
    """Entanglement of formation as a function of concurrence, elementwise."""
    return binary_entropy((1.0 + np.sqrt(np.maximum(0.0, 1.0 - c * c))) / 2.0)


def concurrence_from_lambdas(lam: np.ndarray):
    """max(0, l1 - l2 - l3 - l4) along the last axis of non-increasing lambdas."""
    return np.maximum(0.0, 2.0 * lam[..., 0] - lam.sum(axis=-1))


def wootters_lambdas(rhos: np.ndarray) -> np.ndarray:
    """Wootters' lambdas of each state in a (..., 4, 4) stack, non-increasing
    along the last axis. No per-state validation: callers guarantee valid
    density matrices by construction.

    The lambdas, square roots of the eigenvalues of rho @ rho_tilde, equal
    the eigenvalues of the Hermitian sqrt(rho) rho_tilde sqrt(rho) and hence
    the singular values of sqrt(rho_tilde) @ sqrt(rho). The SVD form is used
    because it delivers the small lambdas at absolute machine accuracy,
    whereas square-rooting near-zero eigenvalues loses half the digits.
    """
    sq = psd_sqrt(rhos)
    sq_tilde = _YY @ sq.conj() @ _YY  # sqrt commutes with the spin flip
    return np.linalg.svd(sq_tilde @ sq, compute_uv=False)


def concurrence_batch(states: np.ndarray) -> np.ndarray:
    """Concurrence of each state in an (n, 4) stack of unit state vectors
    (a, b, c, d), by the closed form 2|ad - bc|, or in an (n, 4, 4) stack of
    density matrices, by Wootters' lambdas."""
    if states.ndim == 2:
        return 2.0 * np.abs(states[:, 0] * states[:, 3] - states[:, 1] * states[:, 2])
    return concurrence_from_lambdas(wootters_lambdas(states))


def eof_batch(states: np.ndarray) -> np.ndarray:
    """Entanglement of formation of each state in an (n, 4) stack of unit
    state vectors or an (n, 4, 4) stack of density matrices."""
    return eof_from_concurrence(concurrence_batch(states))


def concurrence(rho: DensityMatrix) -> ConcurrenceReport:
    """Concurrence of one validated state: a stack-of-one kernel call."""
    lambdas = wootters_lambdas(rho.matrix[None])[0]
    c = float(concurrence_from_lambdas(lambdas))
    return ConcurrenceReport(lambdas=lambdas, concurrence=c, eof=float(eof_from_concurrence(c)))


def eof(rho: DensityMatrix) -> float:
    """Entanglement of formation of an arbitrary two-qubit state, in [0, 1]."""
    return concurrence(rho).eof

