"""Wootters concurrence and entanglement of formation for two-qubit states.

One batched kernel, `factor_concurrence`/`factor_eof`, scores each state of
an (n, 4, k) stack from a factor W of its density matrix, rho = W W^dag. A
rank-1 factor (k = 1, a unit state vector) takes the closed form 2|ad - bc|
(Wootters, PRL 80, 2245, 1998); any other factor `factor_lambdas`, which
forms M = W^T (sigma_y x sigma_y) W and bidiagonalises it elementwise along
the stack, then makes one LAPACK call: the SVD of the real 4x4 upper
bidiagonals. (The complex SVD of M by matmul, which it replaced, is the
tests' oracle.) `concurrence_batch` takes density matrices, which
`linalg.psd_factor` factors first; the validated scalar `concurrence`/`eof`
are `concurrence_batch` on a stack of one, returned as floats.
`binary_entropy` and `eof_from_concurrence` are elementwise.

Before the SVD, `factor_concurrence` screens out separable states: a
two-qubit state is entangled if and only if det(rho^Gamma) < 0, rho^Gamma
being its partial transpose on qubit B (Augusiak, Demianowicz & Horodecki,
PRA 77, 030301(R), 2008). `partial_transpose_det` takes that determinant in
closed form from W's entries, elementwise along the stack, and a state
whose determinant exceeds SEPARABLE_DET_MARGIN has concurrence 0 without
its SVD; about 63% of product-measure states do (Zyczkowski, Horodecki,
Sanpera & Lewenstein, PRA 58, 883, 1998).
"""

from __future__ import annotations

from typing import TYPE_CHECKING

import numpy as np

from .errors import UsageError
from .linalg import psd_factor, sum_rows

if TYPE_CHECKING:
    from .qstate import DensityMatrix

SIGMA_Y = np.array([[0, -1j], [1j, 0]])
_YY = np.kron(SIGMA_Y, SIGMA_Y)  # real: antidiag(-1, 1, 1, -1)

ENTROPY_DOMAIN_TOL = 1e-12
# det(rho^Gamma) above which a state is certainly separable. Entries of
# rho^Gamma are at most 1 in modulus, so the closed form's rounding error is
# ~1e-16 (measured: within 2e-17 of LAPACK's determinant on sampled states);
# the margin sits four orders above it, and states below it go to the SVD.
SEPARABLE_DET_MARGIN = 1e-12
# the six column pairs of a 4x4 matrix, in the order whose reverse lists
# their complements, and their signs in the Laplace expansion
_PAIRS = ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
_PAIR_SIGNS = (1, -1, 1, 1, -1, 1)
# rho^Gamma[i, j] = rho[_PARTIAL_TRANSPOSE[i][j]], i = 2a + b: rho^Gamma[(a, b), (a', b')] = rho[(a, b'), (a', b)]
_PARTIAL_TRANSPOSE = [[(2 * (i >> 1) + (j & 1), 2 * (j >> 1) + (i & 1)) for j in range(4)] for i in range(4)]


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


def factor_lambdas(w: np.ndarray) -> np.ndarray:
    """Wootters' lambdas of each state rho = W W^dag, its factor W laid out
    (row, column, stack) in a (4, 4, n) array, as an (n, 4) array
    non-increasing along its rows: the singular values of
    M = W^T (sigma_y x sigma_y) W, as rho @ rho_tilde = W M^dag W^T
    (sigma_y x sigma_y) has the eigenvalues of M^dag M. Three steps, the
    first two elementwise along the stack (no matmul, no BLAS):
    - M's 10 distinct entries, M[a, b] = (W1a W2b + W2a W1b) - (W0a W3b + W3a W0b);
    - Householder bidiagonalisation (Golub & Kahan, SIAM J. Numer. Anal. 2,
      205, 1965), seven times: reflect the first column onto its first
      entry from the left, record its norm, drop that column and transpose
      the rest (a left reflection of the transpose is a right one of the
      matrix). The norms d0, e0, d1, e1, d2, e2, d3 are the moduli of the
      bidiagonal U^dag M V; diagonal phase scalings are unitary, so they
      form a real upper bidiagonal B with M's singular values. A zero
      column, as a rank-deficient factor gives, has norm 0 and is not
      reflected;
    - one LAPACK SVD of the real (n, 4, 4) stack of B, which gives the
      small lambdas at absolute machine accuracy, whereas square-rooting
      near-zero eigenvalues of M^dag M loses half the digits.
    Every complex product is of two (n,) rows: numpy's complex product may
    fuse a multiply-add over a contiguous row but not when it broadcasts a
    stack of one, so a state's last bits would depend on its stack."""
    m = np.empty(w.shape, complex)
    for a in range(4):
        for b in range(a, 4):
            m[a, b] = m[b, a] = (w[1, a] * w[2, b] + w[2, a] * w[1, b]) - (w[0, a] * w[3, b] + w[3, a] * w[0, b])
    bidiagonal = np.zeros(w.shape[2:] + (4, 4))
    for i in range(7):
        x, m = m[:, 0], m[:, 1:]
        p = x.real * x.real + x.imag * x.imag
        bidiagonal[:, i // 2, (i + 1) // 2] = s = np.sqrt(sum_rows(p))
        if len(x) > 1:  # reflecting one entry is a phase, which moves no modulus
            r = np.sqrt(p[0])
            x[0] = np.divide(x[0], r, out=np.ones_like(x[0]), where=r > 0) * (r + s)  # x is now v = x + phase(x0) s e0
            half_vv = s * (s + r) + (s == 0)  # v^dag v / 2; a zero column has v = 0: no reflection, and no 0/0
            for y in m.swapaxes(0, 1):
                c = sum_rows([vk * yk for vk, yk in zip(x.conj(), y)]) / half_vv
                for vk, yk in zip(x, y):
                    yk -= vk * c
        m = m.swapaxes(0, 1)
    return np.linalg.svd(bidiagonal, compute_uv=False)


def _laplace_det4(m) -> np.ndarray:
    """Determinant of the 4x4 matrix whose entries are m[i][j], arrays taken
    elementwise, by Laplace expansion over the complementary 2x2 minors of
    rows (0, 1) and (2, 3). Elementwise throughout: a signed sum by `@` would
    go to a BLAS gemv, whose threads contend with the engine's worker
    processes."""

    def minor(r, j, k):
        return m[r][j] * m[r + 1][k] - m[r][k] * m[r + 1][j]

    det = 0.0
    for (j, k), (jc, kc), sign in zip(_PAIRS, _PAIRS[::-1], _PAIR_SIGNS):
        term = minor(0, j, k) * minor(2, jc, kc)
        det = det + term if sign > 0 else det - term
    return det


def partial_transpose_det(w: np.ndarray) -> np.ndarray:
    """det(rho^Gamma) of each state rho = W W^dag in a (..., 4, k) stack of
    factors W, rho^Gamma being rho transposed on qubit B:
    rho^Gamma[(a, b), (a', b')] = rho[(a, b'), (a', b)]. The 10 distinct
    entries of rho are sums over W's rows, rho[i, j] = sum_c W[i, c] W*[j, c];
    rho^Gamma is those entries relabelled, and its determinant the Laplace
    expansion of `_laplace_det4`, all elementwise along the stack
    (contiguous when W is laid out row, column, then stack, as the engine's
    factors are), with no matmul and no 4x4 temporaries. W's rows are
    conjugated one at a time, as the entries reach them, so no conjugated
    copy of the stack is made. Real, as rho^Gamma is Hermitian."""
    rows = np.moveaxis(w, (-2, -1), (0, 1))
    rho = {(i, j): sum_rows(rows[i] * c) for j, c in enumerate(r.conj() for r in rows) for i in range(j + 1)}

    def entry(i, j):
        return rho[i, j] if i <= j else rho[j, i].conj()

    return _laplace_det4([[entry(*ij) for ij in row] for row in _PARTIAL_TRANSPOSE]).real


def factor_concurrence(factors: np.ndarray) -> np.ndarray:
    """Concurrence of each state rho = W W^dag in an (n, 4, k) stack of
    factors W. A unit vector (a, b, c, d), k = 1, takes the closed form
    2|ad - bc|, on real and imaginary parts with every product and sum a
    separate operation, so no CPU dispatch fuses a multiply-add; for k > 1
    it is 0 where `partial_transpose_det` proves the state separable, and
    comes from `factor_lambdas` elsewhere."""
    if factors.shape[-1] == 1:
        v = np.moveaxis(factors[..., 0], -1, 0)
        (ar, br, cr, dr), (ai, bi, ci, di) = v.real, v.imag
        re = (ar * dr - ai * di) - (br * cr - bi * ci)
        im = (ar * di + ai * dr) - (br * ci + bi * cr)
        return 2.0 * np.sqrt(re * re + im * im)
    entangled = partial_transpose_det(factors) <= SEPARABLE_DET_MARGIN  # or too close to tell
    c = np.zeros(factors.shape[:-2])
    c[entangled] = concurrence_from_lambdas(factor_lambdas(np.moveaxis(factors, (-2, -1), (0, 1))[:, :, entangled]))
    return c


def factor_eof(factors: np.ndarray) -> np.ndarray:
    """Entanglement of formation of each state, as `factor_concurrence` takes them."""
    return eof_from_concurrence(factor_concurrence(factors))


def concurrence_batch(rhos: np.ndarray) -> np.ndarray:
    """Concurrence of each state in an (n, 4, 4) stack of density matrices,
    which callers guarantee valid by construction (no per-state validation)."""
    return factor_concurrence(psd_factor(rhos))


def concurrence(rho: DensityMatrix) -> float:
    """Concurrence of one validated state: a stack-of-one kernel call."""
    return float(concurrence_batch(rho.matrix[None])[0])


def eof(rho: DensityMatrix) -> float:
    """Entanglement of formation of one validated state, in [0, 1]."""
    return float(eof_from_concurrence(concurrence(rho)))
