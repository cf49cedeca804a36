"""Dense complex matrix kernel for 2x2 and 4x4 Hermitian problems.

Matrices are plain complex ndarrays; the functions here add the validation
and the small set of operations the rest of the package needs (Kronecker
products and the stacked PSD square root). Everything is sized for
dimension 2 or 4 and backed by LAPACK via numpy.
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError

VALID_DIMS = (2, 4)

HERMITIAN_TOL = 1e-10


def as_matrix(a, dim: int | None = None) -> np.ndarray:
    """Coerce `a` to a square complex ndarray of an admitted dimension.

    Rejects non-square shapes, dimensions outside {2, 4}, and non-finite
    entries.
    """
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise UsageError(f"expected a square matrix, got shape {m.shape}")
    if m.shape[0] not in VALID_DIMS:
        raise UsageError(f"dimension must be one of {VALID_DIMS}, got {m.shape[0]}")
    if dim is not None and m.shape[0] != dim:
        raise UsageError(f"expected a {dim}x{dim} matrix, got {m.shape[0]}x{m.shape[0]}")
    if not (np.all(np.isfinite(m.real)) and np.all(np.isfinite(m.imag))):
        raise UsageError("matrix contains non-finite entries")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product of two 2x2 matrices; the first factor acts on the
    first (control) qubit, basis ordering |00>,|01>,|10>,|11>."""
    return np.kron(as_matrix(a, dim=2), as_matrix(b, dim=2))


def max_abs(a) -> float:
    """Largest entry modulus; the max-entry norm used by tolerance checks."""
    return float(np.max(np.abs(a))) if np.asarray(a).size else 0.0


def clamp_spectrum(w: np.ndarray) -> np.ndarray:
    """Zero out eigenvalues that are roundoff noise on a rank-deficient
    spectrum: anything below a small relative multiple of the largest
    eigenvalue. Keeps sqrt(w) free of spurious sqrt(machine-eps) values."""
    floor = 64.0 * np.finfo(float).eps * np.max(np.abs(w), axis=-1, keepdims=True)
    return np.where(w < floor, 0.0, w)


def psd_sqrt(a: np.ndarray) -> np.ndarray:
    """Hermitian PSD square root of each matrix in a (..., n, n) stack:
    eigh, then `clamp_spectrum`, then V diag(sqrt(w)) V^dag.

    No validation: callers pass density matrices, PSD by construction, so
    the clamp only removes roundoff (a negative eigenvalue of any size is
    zeroed, not reported).
    """
    w, v = np.linalg.eigh(a)
    w = np.sqrt(clamp_spectrum(w))
    return (v * w[..., None, :]) @ v.conj().swapaxes(-1, -2)
