#!/usr/bin/env python3
"""Absolute error of the mixed-state entanglement kernel against a 40-digit reference.

Usage (from the repository root):

    PYTHONPATH=src python3 tools/kernel_error.py [--states N] [--seed S]

Takes the first N states of `sample_chunk("mixed", S, ...)` that the
separability screen leaves to the SVD (set "W"), and the first N of their
circuit images C W that it leaves (set "C W"). Each state is scored twice in
float64: by the kernel (`factor_concurrence`, `factor_eof`) and by the SVD
oracle, LAPACK's complex SVD of M = W^T (sigma_y x sigma_y) W formed by
matmul, the route the kernel replaced. The reference forms M from the same
float64 entries in mpmath at 40 significant digits, takes its singular
values by `mp.svd_c`, and C = max(0, l1 - l2 - l3 - l4) and
E = h((1 + sqrt(1 - C^2)) / 2) in the same precision. One line per set and
route gives the max, median and 99th percentile of |C - C_ref| and
|E - E_ref|. Needs mpmath (in the `test` extra); ~5 ms per state.
"""

from __future__ import annotations

import argparse
import sys

import numpy as np
from mpmath import mp

from entlab.entanglement import (
    SEPARABLE_DET_MARGIN,
    SIGMA_Y,
    concurrence_from_lambdas,
    eof_from_concurrence,
    factor_concurrence,
    partial_transpose_det,
)
from entlab.gates import apply_to_factors, circuit
from entlab.sampling import sample_chunk

DIGITS = 40
YY = np.kron(SIGMA_Y, SIGMA_Y).real


def screened_states(seed: int, count: int) -> dict[str, np.ndarray]:
    """The first `count` states of the seed's mixed draws that the screen
    leaves, as (count, 4, 4) factors, and the first `count` circuit images
    that it leaves, keyed "W" and "C W"."""
    w = sample_chunk("mixed", seed, np.arange(4 * count + 64))  # ~37% are left; 4x is ample
    sets = {}
    for name, factors in (("W", w), ("C W", apply_to_factors(circuit(), w))):
        left = factors[partial_transpose_det(factors) <= SEPARABLE_DET_MARGIN][:count]
        if len(left) < count:
            raise RuntimeError(f"only {len(left)} of {len(factors)} draws are left by the screen; {count} asked")
        sets[name] = np.ascontiguousarray(left)
    return sets


def reference(w: np.ndarray) -> tuple[list, list]:
    """C and E of each factor in an (n, 4, 4) stack, as mpmath numbers at
    DIGITS significant digits, from the float64 entries taken exactly."""

    def h(x):
        return -sum(t * mp.log(t, 2) for t in (x, 1 - x) if t > 0)

    cs, es = [], []
    with mp.workdps(DIGITS):
        yy = mp.matrix(YY.tolist())
        for f in w:
            wm = mp.matrix([[mp.mpc(z) for z in row] for row in f.tolist()])
            lam = sorted(mp.svd_c(wm.T * yy * wm, compute_uv=False), reverse=True)
            c = max(mp.mpf(0), lam[0] - lam[1] - lam[2] - lam[3])
            cs.append(c)
            es.append(h((1 + mp.sqrt(1 - c * c)) / 2))
    return cs, es


def routes(w: np.ndarray) -> dict[str, tuple[np.ndarray, np.ndarray]]:
    """C and E of each factor in float64, by the kernel and by the SVD oracle."""
    oracle_c = concurrence_from_lambdas(np.linalg.svd(w.swapaxes(-1, -2) @ YY @ w, compute_uv=False))
    kernel_c = factor_concurrence(w)
    return {"kernel": (kernel_c, eof_from_concurrence(kernel_c)), "oracle": (oracle_c, eof_from_concurrence(oracle_c))}


def abs_errors(values: np.ndarray, exact: list) -> np.ndarray:
    """|value - exact| per state, the difference taken in mpmath."""
    return np.array([float(abs(v - x)) for v, x in zip(values.tolist(), exact)])


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--states", type=int, default=1000, help="states per set (default 1000)")
    parser.add_argument("--seed", type=int, default=11, help="sampling seed (default 11)")
    args = parser.parse_args(argv)
    for name, w in screened_states(args.seed, args.states).items():
        exact_c, exact_e = reference(w)
        for route, (c, e) in routes(w).items():
            parts = []
            for label, err in (("C", abs_errors(c, exact_c)), ("E", abs_errors(e, exact_e))):
                q50, q99 = np.percentile(err, [50, 99])
                parts.append(f"{label}: max {err.max():.2e} median {q50:.2e} p99 {q99:.2e}")
            print(f"{name:<3} {route:<6} " + " | ".join(parts))
    return 0


if __name__ == "__main__":
    sys.exit(main())
