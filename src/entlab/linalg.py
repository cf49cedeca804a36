"""Dense complex matrix helpers for 2x2 and 4x4 Hermitian problems.

Matrices are plain complex ndarrays; the functions here add the one rule
by which a value class checks and freezes its array (`as_array`, for
`PureState`, `DensityMatrix` and `UnitaryGate` alike) and the small set of
operations the rest of the package needs: the max-entry norm (`max_abs`),
row sums in a fixed order (`sum_rows`) and the stacked PSD factor. Only
`psd_factor` calls LAPACK (numpy's `eigh`).
"""

from __future__ import annotations

import numpy as np

from .errors import UsageError

HERMITIAN_TOL = 1e-10


def as_array(a, *shapes: tuple[int, ...]) -> np.ndarray:
    """`a` as a value class stores it: a complex array of one of `shapes`
    with finite entries, else UsageError; copied where it would share
    memory with `a`, so the caller's array stays writable and a later write
    to it cannot reach the value; and read-only."""
    m = np.asarray(a, dtype=complex)
    if m.shape not in shapes:
        raise UsageError(f"expected an array of shape {' or '.join(map(str, shapes))}, got {m.shape}")
    if not np.isfinite(m).all():
        raise UsageError("array contains non-finite entries")
    if np.may_share_memory(m, a):
        m = m.copy()
    m.flags.writeable = False
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
