"""Dense complex matrix kernel for 2x2 and 4x4 Hermitian problems.

Matrices are plain complex ndarrays; the functions here add the validation
and the small set of operations the rest of the package needs (Kronecker
products, Hermitian eigendecomposition, PSD square root). Everything is
sized for dimension 2 or 4 and backed by LAPACK via numpy.
"""

from __future__ import annotations

import numpy as np

from .errors import NumericError, UsageError

VALID_DIMS = (2, 4)

HERMITIAN_TOL = 1e-10
PSD_REJECT_TOL = 1e-6


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


def hermitian_eigensystem(a, tol: float = HERMITIAN_TOL) -> tuple[np.ndarray, np.ndarray]:
    """Diagonalize a Hermitian matrix: (values, vectors), eigenvalues in
    non-increasing order, `vectors[:, i]` the orthonormal eigenvector paired
    with `values[i]`."""
    m = as_matrix(a)
    if max_abs(m - m.conj().T) > tol:
        raise UsageError("matrix is not Hermitian within tolerance")
    try:
        w, v = np.linalg.eigh(m)
    except np.linalg.LinAlgError as exc:  # pragma: no cover - LAPACK failure
        raise NumericError(f"eigensolver failed to converge: {exc}") from exc
    # eigh returns ascending order
    return w[::-1].copy(), v[:, ::-1].copy()


def clamp_spectrum(w: np.ndarray) -> np.ndarray:
    """Zero out eigenvalues that are roundoff noise on a rank-deficient
    spectrum: anything below a small relative multiple of the largest
    eigenvalue. Keeps sqrt(w) free of spurious sqrt(machine-eps) values."""
    floor = 64.0 * np.finfo(float).eps * np.max(np.abs(w), axis=-1, keepdims=True)
    return np.where(w < floor, 0.0, w)


def psd_sqrt(a) -> np.ndarray:
    """Hermitian PSD square root B of a, with B @ B == a to within 1e-8.

    Small negative eigenvalues from roundoff are clamped to zero (as are
    relative-tiny positive ones, so rank-deficient inputs get an exactly
    rank-deficient root); anything below -1e-6 means the input is genuinely
    not PSD.
    """
    w, v = hermitian_eigensystem(a)
    if w.min() < -PSD_REJECT_TOL:
        raise UsageError(f"matrix is not PSD: min eigenvalue {w.min():.3e}")
    w = np.sqrt(clamp_spectrum(w))
    b = (v * w) @ v.conj().T
    return 0.5 * (b + b.conj().T)
