"""Dense complex matrix helpers for 2x2 and 4x4 Hermitian problems.

Matrices are plain complex ndarrays; the functions here add the validation
and the small set of operations the rest of the package needs: the
max-entry norm (`max_abs`), row sums in a fixed order (`sum_rows`) and the
stacked PSD factor. Only `psd_factor` calls LAPACK (numpy's `eigh`).
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


def max_abs(a) -> float:
    """Largest entry modulus; the max-entry norm used by tolerance checks."""
    return float(np.max(np.abs(a))) if np.asarray(a).size else 0.0


def sum_rows(x: np.ndarray) -> np.ndarray:
    """x[0] + x[1] + ... along the first axis, added in that order whatever
    the other axes' lengths. `sum(axis=0)` adds in a pairwise order when they
    are short, so a state built in a stack of one would differ in its last
    bits from the same state built in a chunk."""
    total = x[0]
    for row in x[1:]:
        total = total + row
    return total


def psd_factor(a: np.ndarray) -> np.ndarray:
    """A factor F with F F^dag = A for each matrix in a (..., n, n) PSD stack:
    eigh, then V diag(sqrt(w)). Eigenvalues below a small relative multiple
    of the largest are roundoff on a rank-deficient spectrum; they are zeroed
    first, so F has no spurious sqrt(machine-eps) columns.

    No validation: callers pass density matrices, PSD by construction, so
    the clamp only removes roundoff (a negative eigenvalue of any size is
    zeroed, not reported).
    """
    w, v = np.linalg.eigh(a)
    floor = 64.0 * np.finfo(float).eps * np.max(np.abs(w), axis=-1, keepdims=True)
    return v * np.sqrt(np.where(w < floor, 0.0, w))[..., None, :]
