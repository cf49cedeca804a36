"""Measure-correct random two-qubit states from seedable substreams.

Mixed states follow the product measure on state space: a Haar-random
eigenbasis (Ginibre matrix -> QR -> phase correction; plain QR alone is not
Haar) combined with eigenvalues drawn uniformly from the probability
3-simplex (sorted-uniform spacings, equivalent to a flat Dirichlet). Pure
states are Haar-uniform on the unit sphere via normalized complex Gaussians.

Randomness comes from counter-based Philox streams keyed by
(seed, stream_index): trial t of a run owns substream t, so sequences are
reproducible independently of execution order. A `RandomStream` restarts
its one generator whenever it is moved to another substream, so trial t's
draws do not depend on whether its generator is fresh or reset.

This module alone turns random numbers into states, by one rule for both
ensembles. The per-trial step, `draw`, only draws: one `DRAW_RECORD[kind]`
record, which for pure trials is a (2, 4) block of standard normals, real
part first, and for mixed trials a (2, 4, 4) block (the Ginibre matrix)
followed by 3 uniforms on [0, 1) (the simplex spacings). States are built
once per chunk, by `build_states` on the stack of records; the scalar
samplers are batch-of-one calls of it. Each state is built as a factor W of
its density matrix, rho = W W^dag: a pure state's unit vector, or a mixed
state's W = U diag(sqrt(lambda)). The pure norm is summed in a fixed
order, sqrt(((r0^2 + r2^2) + (r1^2 + r3^2)) + ((i0^2 + i2^2) + (i1^2 + i3^2))),
the order OpenBLAS's ddot used when it computed this norm, so no BLAS kernel
choice enters the pure draw contract. A measure-zero draw (zero vector, zero
diagonal entry of R) gives a non-finite state, which the engine screens for
and redraws.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Literal

import numpy as np

from .errors import UsageError
from .gates import UnitaryGate

Kind = Literal["pure", "mixed"]

SIMPLEX_SUM_TOL = 1e-12
DRAW_RECORD = {  # the raw numbers of one trial, per kind, in draw order
    "pure": np.dtype([("normals", float, (2, 4))]),
    "mixed": np.dtype([("normals", float, (2, 4, 4)), ("uniforms", float, 3)]),
}


@dataclass
class RandomStream:
    """Deterministic substream of a 64-bit seeded Philox generator.

    Equal (seed, stream_index) pairs reproduce identical sequences; distinct
    stream_index values give statistically independent streams. Both must
    lie in [0, 2^64). Reading `generator` after either field changed puts
    the one generator at the start of the new substream; reading it again
    continues where the last draw stopped.
    """

    seed: int
    stream_index: int = 0
    _gen: np.random.Generator | None = field(default=None, init=False, repr=False, compare=False)
    _start: dict | None = field(default=None, init=False, repr=False, compare=False)  # a Philox state at counter 0
    _at: tuple[int, int] | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def generator(self) -> np.random.Generator:
        at = (self.seed, self.stream_index)
        if self._at != at:
            # an explicit uint64 key: a plain list above 2^63 would pass through float64
            key = np.array(at, dtype=np.uint64)
            if self._gen is None:
                self._gen = np.random.Generator(np.random.Philox(key=key))
                self._start = self._gen.bit_generator.state  # empty buffer, no pending 32-bit half
            else:
                self._start["state"]["key"] = key
                self._gen.bit_generator.state = self._start
            self._at = at
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


def draw(kind: Kind, rng: RandomStream) -> tuple[np.ndarray, ...]:
    """The raw numbers of one trial, the fields of a `DRAW_RECORD[kind]`
    record; generator draws and nothing else."""
    gen = rng.generator
    if kind == "pure":
        return (gen.standard_normal((2, 4)),)
    return gen.standard_normal((2, 4, 4)), gen.random(3)


def _complex(normals: np.ndarray) -> np.ndarray:
    """Complex Gaussians from an (n, 2, ...) stack of normals, real part first."""
    return normals[:, 0] + 1j * normals[:, 1]


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


def build_states(kind: Kind, draws: np.ndarray) -> np.ndarray:
    """The states of a stack of `DRAW_RECORD[kind]` records, each as a factor
    of its density matrix: (n, 4) unit vectors for pure draws, (n, 4, 4)
    factors W = U diag(sqrt(lambda)), rho = W W^dag, for mixed ones."""
    z = draws["normals"]
    if kind == "pure":
        sq = z * z
        halves = (sq[..., 0] + sq[..., 2]) + (sq[..., 1] + sq[..., 3])  # (n, 2): real, imaginary
        return _complex(z) / np.sqrt(halves[:, 0] + halves[:, 1])[:, None]
    return haar_unitaries(_complex(z)) * np.sqrt(simplex_spacings(draws["uniforms"]))[:, None, :]


def sample_chunk(kind: Kind, seed: int, streams: np.ndarray) -> np.ndarray:
    """One state per substream index in `streams`, drawn through one
    generator moved from substream to substream. A degenerate draw comes
    out non-finite, without a warning, for the caller to screen."""
    rng = RandomStream(seed)

    def trial(stream: int) -> tuple[np.ndarray, ...]:
        rng.stream_index = stream
        return draw(kind, rng)

    draws = np.fromiter(map(trial, streams.tolist()), dtype=DRAW_RECORD[kind], count=len(streams))
    with np.errstate(divide="ignore", invalid="ignore"):
        return build_states(kind, draws)


def pure_state_vector(rng: RandomStream) -> np.ndarray:
    """Raw Haar-uniform unit vector (no validation)."""
    return build_states("pure", np.array([draw("pure", rng)], dtype=DRAW_RECORD["pure"]))[0]


def mixed_state_matrix(rng: RandomStream) -> np.ndarray:
    """Raw density matrix W W^dag of a product-measure mixed draw (no validation)."""
    w = build_states("mixed", np.array([draw("mixed", rng)], dtype=DRAW_RECORD["mixed"]))[0]
    return w @ w.conj().T


def haar_unitary(rng: RandomStream) -> UnitaryGate:
    """One 4x4 unitary distributed per the Haar measure on U(4)."""
    return UnitaryGate(haar_unitaries(_complex(rng.generator.standard_normal((1, 2, 4, 4))))[0])


def simplex_point(rng: RandomStream) -> SimplexPoint:
    """Uniform point on the 3-simplex via sorted-uniform spacings."""
    return SimplexPoint(simplex_spacings(rng.generator.random((1, 3)))[0])
