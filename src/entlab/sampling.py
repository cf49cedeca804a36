"""Measure-correct random two-qubit states from seedable substreams.

Mixed states follow the product measure on state space: a Haar-random
eigenbasis (Ginibre matrix -> QR -> phase correction; plain QR alone is not
Haar) combined with eigenvalues drawn uniformly from the probability
3-simplex (sorted-uniform spacings, equivalent to a flat Dirichlet). Pure
states are Haar-uniform on the unit sphere via normalized complex Gaussians.

Randomness comes from counter-based Philox streams keyed by
(seed, stream_index): trial t of a run owns substream t, so sequences are
reproducible independently of execution order. The draw order of a trial,
shared by every sampler here and by the engine, is:

- pure: one (2, 4) block of standard normals, real part first;
- mixed: one (2, 4, 4) block of standard normals, real part first (the
  Ginibre matrix), then 3 uniforms on [0, 1) (the simplex spacings).

`haar_unitary` draws only the normal block and `simplex_point` only the
uniforms; both are batch-of-one calls of the batched builders. A
measure-zero draw (zero vector, zero diagonal entry of R) gives non-finite
entries, which the engine screens for and redraws.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError
from .gates import UnitaryGate
from .qstate import DensityMatrix, PureState

SIMPLEX_SUM_TOL = 1e-12
MIXED_DRAW = np.dtype([("ginibre", complex, (4, 4)), ("uniforms", float, 3)])  # a `mixed_draw` record


@dataclass
class RandomStream:
    """Deterministic substream of a 64-bit seeded Philox generator.

    Equal (seed, stream_index) pairs reproduce identical sequences; distinct
    stream_index values give statistically independent streams. Both must
    lie in [0, 2^64).
    """

    seed: int
    stream_index: int = 0
    _gen: np.random.Generator | None = field(default=None, repr=False, compare=False)

    @property
    def generator(self) -> np.random.Generator:
        if self._gen is None:
            # an explicit uint64 key: a plain list above 2^63 would pass through float64
            key = np.array([self.seed, self.stream_index], dtype=np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))
        return self._gen


@dataclass(frozen=True, eq=False)
class SimplexPoint:
    """Four weights on the probability simplex: each in [0, 1], summing to 1."""

    lambdas: np.ndarray

    def __post_init__(self):
        lam = np.asarray(self.lambdas, dtype=float).reshape(-1)
        if lam.shape != (4,):
            raise UsageError(f"simplex point needs 4 weights, got {lam.shape}")
        if lam.min() < 0.0 or lam.max() > 1.0 or abs(lam.sum() - 1.0) > SIMPLEX_SUM_TOL:
            raise UsageError("weights must lie in [0,1] and sum to 1")
        object.__setattr__(self, "lambdas", lam)


def _complex_normals(gen: np.random.Generator, shape: tuple[int, ...]) -> np.ndarray:
    z = gen.standard_normal((2, *shape))
    return z[0] + 1j * z[1]


def pure_state_vector(rng: RandomStream) -> np.ndarray:
    """Raw Haar-uniform unit vector (no validation)."""
    v = _complex_normals(rng.generator, (4,))
    return v / np.linalg.norm(v)


def mixed_draw(rng: RandomStream) -> tuple[np.ndarray, np.ndarray]:
    """Raw draws of one mixed trial: a 4x4 Ginibre matrix, then 3 uniforms."""
    gen = rng.generator
    return _complex_normals(gen, (4, 4)), gen.random(3)


def haar_phase_fix(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Rescale QR factor columns by the phases of R's diagonal so the result
    is Haar-distributed, not merely unitary."""
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitaries(ginibre: np.ndarray) -> np.ndarray:
    """Haar unitaries from an (n, 4, 4) stack of Ginibre matrices."""
    q, r = np.linalg.qr(ginibre)
    return haar_phase_fix(q, r)


def simplex_spacings(uniforms: np.ndarray) -> np.ndarray:
    """Uniform simplex points from an (n, 3) stack of uniforms on [0, 1)."""
    return np.diff(np.sort(uniforms, axis=-1), prepend=0.0, append=1.0, axis=-1)


def spectral_states(u: np.ndarray, lam: np.ndarray) -> np.ndarray:
    """The (n, 4, 4) stack of U diag(lambda) U^dag."""
    return (u * lam[:, None, :]) @ u.conj().transpose(0, 2, 1)


def haar_unitary(rng: RandomStream) -> UnitaryGate:
    """One 4x4 unitary distributed per the Haar measure on U(4)."""
    return UnitaryGate(haar_unitaries(_complex_normals(rng.generator, (1, 4, 4)))[0])


def simplex_point(rng: RandomStream) -> SimplexPoint:
    """Uniform point on the 3-simplex via sorted-uniform spacings."""
    return SimplexPoint(simplex_spacings(rng.generator.random((1, 3)))[0])


def mixed_state_matrix(rng: RandomStream) -> np.ndarray:
    """Raw density matrix of a product-measure mixed draw (no validation)."""
    g, u = mixed_draw(rng)
    return spectral_states(haar_unitaries(g[None]), simplex_spacings(u[None]))[0]


def random_mixed_state(rng: RandomStream) -> DensityMatrix:
    """Mixed two-qubit state distributed per the product measure."""
    m = mixed_state_matrix(rng)
    return DensityMatrix(0.5 * (m + m.conj().T))


def random_pure_state(rng: RandomStream) -> PureState:
    """Haar-uniform pure two-qubit state."""
    return PureState(pure_state_vector(rng))
