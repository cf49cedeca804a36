"""Measure-correct random two-qubit states from seedable substreams.

Mixed states follow the product measure on state space: a Haar-random
eigenbasis (`haar_unitaries`) combined with eigenvalues drawn uniformly from
the probability 3-simplex (`simplex_spacings`). Pure states are Haar-uniform
on the unit sphere via normalized complex Gaussians.

Randomness comes from counter-based Philox4x64-10 streams keyed by
(seed, stream_index): trial t of a run owns substream t, so sequences are
reproducible independently of execution order. The draw contract is
entlab's own: trial t's raw numbers are one `DRAW_RECORD[kind]` record,
read from substream t as numpy 2.x's `Generator(Philox)` reads them. The
engine draws a whole chunk's records at once with `draw_chunk`; `draw`
gives one trial's record from a `RandomStream`, which the scalar samplers
use and the tests take as the contract's oracle.

This module alone turns random numbers into states, by one rule for both
ensembles: `build_states` on a stack of records, of which the scalar
samplers are batch-of-one calls. A measure-zero draw (a zero vector, or a
zero Ginibre column) gives a non-finite state, which the engine screens
for and redraws.
"""

from __future__ import annotations

import math
from typing import Literal

import numpy as np

from . import ziggurat_tables
from .errors import Frozen, require_integer
from .gates import UnitaryGate
from .linalg import sum_rows

Kind = Literal["pure", "mixed"]

DRAW_RECORD = {  # the raw numbers of one trial, per kind, in draw order
    "pure": np.dtype([("normals", float, (2, 4))]),
    "mixed": np.dtype([("normals", float, (2, 4, 4)), ("uniforms", float, 3)]),
}
SPARE_BLOCKS = 1  # Philox blocks of raw words drawn per trial beyond the fewest its record can take

# Philox4x64-10 (Salmon et al., SC'11): multipliers and Weyl key increments
_PHILOX_M = (0xD2E7470EE14C6C93, 0xCA5A826395121157)
_PHILOX_W = (0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B)
_U64 = (1 << 64) - 1
# numpy's ziggurat for standard normals (Marsaglia and Tsang, J. Stat. Softw. 5(8), 2000)
_FI = np.array([float.fromhex(h) for h in ziggurat_tables.FI_HEX])
# indexed by a word's low 9 bits, the layer and then the sign: -(m * w) == m * -w exactly
_KI9 = np.tile(np.array(ziggurat_tables.KI, dtype=np.uint64), 2)
_WI9 = np.array([float.fromhex(h) for h in ziggurat_tables.WI_HEX] * 2) * np.repeat([1.0, -1.0], 256)
_ZIG_R = 3.6541528853610087963519472518  # where the tail starts
_ZIG_INV_R = 0.27366123732975827203338247596
_EXP_SLACK = 1e-13  # relative gap beyond which np.exp and libm's exp decide a wedge test alike
_DOUBLE_UNIT = 1.0 / 9007199254740992.0  # 2^-53
# rows per block of ziggurat tries: a block's temporaries stay in cache and
# a chunk's peak memory small, while each numpy loop still runs over a
# contiguous block of thousands of words
_ZIGGURAT_ROWS = 1024
# trials per `_cgs2` call in `build_states`: the temporaries beside a mixed
# chunk's stack (three conjugated columns, one column's products) take half
# the memory they take for 8192 trials, in the same time
_CGS2_TRIALS = 4096


class RandomStream(Frozen):
    """Deterministic substream of a 64-bit seeded Philox generator.

    Equal (seed, stream_index) pairs reproduce identical sequences;
    distinct stream_index values give statistically independent streams.
    Both must lie in [0, 2^64). `generator` is built with the stream, at
    construction; each read continues where the last draw stopped.
    """

    def __init__(self, seed: int, stream_index: int = 0):
        require_integer("seed", seed, 0, _U64)
        require_integer("stream_index", stream_index, 0, _U64)
        key = np.array([seed, stream_index], dtype=np.uint64)  # a plain list above 2^63 would pass through float64
        self._set(seed=seed, stream_index=stream_index, _gen=np.random.Generator(np.random.Philox(key=key)))

    @property
    def generator(self) -> np.random.Generator:
        return self._gen


def draw(kind: Kind, rng: RandomStream) -> tuple[np.ndarray, ...]:
    """The raw numbers of one trial, the fields of a `DRAW_RECORD[kind]`
    record; generator draws and nothing else."""
    gen = rng.generator
    if kind == "pure":
        return (gen.standard_normal((2, 4)),)
    return gen.standard_normal((2, 4, 4)), gen.random(3)


def draw_chunk(kind: Kind, seed: int, streams: np.ndarray) -> np.ndarray:
    """The `DRAW_RECORD[kind]` record of each substream (seed, s), s in
    `streams`: what `draw(kind, RandomStream(seed, s))` returns, drawn for the
    whole chunk at once. A pure record is a (2, 4) block of standard normals,
    real part first; a mixed one a (2, 4, 4) block (the Ginibre matrix), then
    3 uniforms on [0, 1) (the simplex spacings). The Philox4x64-10 cipher runs
    over all substreams one counter block at a time, and numpy's ziggurat
    (tables in `ziggurat_tables`) parses the words of one block of rows at a
    time (`_parse_words`). Rows where a try fails the fast test go to
    `_slow_rows`, which decides each failed try's wedge or tail test once
    (with libm's exp and log1p where the decision needs them) and then
    follows each row's tries. The records are allocated after the cipher
    has run, so its temporaries and they are not held at once. Each trial gets
    SPARE_BLOCKS blocks of four raw words beyond the fewest its record can
    take; a trial whose rejections use up its words gets one more block and
    is parsed anew."""
    dtype = DRAW_RECORD[kind]
    normals = math.prod(dtype["normals"].shape)
    uniforms = math.prod(dtype["uniforms"].shape) if "uniforms" in dtype.names else 0
    raw = philox_words(seed, streams, 0, -(-(normals + uniforms) // 4) + SPARE_BLOCKS)
    records, rows = np.empty(len(streams), dtype), np.arange(len(streams))  # after the cipher's temporaries
    while True:
        short = _parse_words(records, rows, raw, normals, uniforms)
        if not short.any():
            return records
        rows = rows[short]
        raw = np.concatenate([raw[short], philox_words(seed, streams[rows], raw.shape[1] // 4, 1)], axis=1)


def philox_words(seed: int, streams: np.ndarray, first: int, blocks: int) -> np.ndarray:
    """Raw words 4 * first .. 4 * (first + blocks) - 1 of each substream
    (seed, s), s in `streams`, as an (n, 4 * blocks) uint64 array: the words
    numpy's `Philox(key=[seed, s]).random_raw()` returns. Block j is the
    Philox4x64-10 cipher of the counter (j + 1, 0, 0, 0), one block at a time
    over all substreams."""
    key1 = np.asarray(streams).astype(np.uint64)
    keys = [
        (np.full(1, (int(seed) + r * _PHILOX_W[0]) & _U64, np.uint64), key1 + np.uint64(r * _PHILOX_W[1] & _U64))
        for r in range(10)
    ]
    out = np.empty((key1.shape[0], 4 * blocks), np.uint64)
    zero = np.zeros(1, np.uint64)  # counter words as (1,) arrays: the first rounds stay per chunk, not per lane
    for j in range(blocks):
        c0, c1, c2, c3 = np.full(1, first + j + 1, np.uint64), zero, zero, zero
        for k0, k1 in keys:
            hi0, lo0 = _mulhilo(c0, _PHILOX_M[0])
            hi1, lo1 = _mulhilo(c2, _PHILOX_M[1])
            c0, c1, c2, c3 = hi1 ^ c1 ^ k0, lo1, hi0 ^ c3 ^ k1, lo0
        for w, c in enumerate((c0, c1, c2, c3)):
            out[:, 4 * j + w] = c
    return out


def _mulhilo(a: np.ndarray, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The high and low 64-bit words of a * m, for a uint64 array a and a
    constant m < 2^64; the high word is formed in 32-bit limbs."""
    lo32, s32 = np.uint64(0xFFFFFFFF), np.uint64(32)
    m_lo, m_hi = np.uint64(m & 0xFFFFFFFF), np.uint64(m >> 32)
    a_lo, a_hi = a & lo32, a >> s32
    t = a_hi * m_lo + ((a_lo * m_lo) >> s32)
    w = (t & lo32) + a_lo * m_hi
    return a_hi * m_hi + (t >> s32) + (w >> s32), a * np.uint64(m)


def _doubles(words: np.ndarray) -> np.ndarray:
    """numpy's next_double: the top 53 bits of each word, times 2^-53."""
    return (words >> np.uint64(11)).astype(float) * _DOUBLE_UNIT


def _ziggurat_try(words: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One try of numpy's `random_standard_normal` per word: the low 8 bits
    pick the layer, the next bit the sign and the next 52 the magnitude.
    Returns the signed values and whether each try is accepted at once."""
    low9 = (words & np.uint64(0x1FF)).view(np.int64)
    magnitude = words >> np.uint64(9)
    magnitude &= np.uint64(0xFFFFFFFFFFFFF)
    return magnitude.astype(float) * _WI9[low9], magnitude < _KI9[low9]


def _parse_words(records: np.ndarray, rows: np.ndarray, raw: np.ndarray, normals: int, uniforms: int) -> np.ndarray:
    """Fill records[rows] from the raw words of each row: `normals` standard
    normals, then `uniforms` doubles, consumed as numpy's `Generator`
    consumes them. Returns the mask of rows whose words ran out, whose
    records are left undefined. One block of _ZIGGURAT_ROWS rows at a time,
    so no temporary spans the chunk: the block's ziggurat tries, whose first
    `normals` are written as each row's normals, and stand where all of
    them pass the fast test. The block's other rows are held, with their
    tries, and walked by one
    `_slow_rows` call once _ZIGGURAT_ROWS of them, or the last block's, are
    in hand: its fixed cost is paid a few times per chunk, where one call
    per block would add ~2.5 ms to a mixed chunk."""
    shape = (-1, *records.dtype["normals"].shape)
    end, short, held = np.full(len(rows), normals), np.zeros(len(rows), bool), []  # end: the word after the normals
    for b in range(0, len(rows), _ZIGGURAT_ROWS):
        x, fast = _ziggurat_try(raw[b : b + _ZIGGURAT_ROWS])
        records["normals"][rows[b : b + _ZIGGURAT_ROWS]] = x[:, :normals].reshape(shape)  # a slow row's replaced below
        slow = np.flatnonzero(~fast[:, :normals].all(axis=1))
        held.append((b + slow, x[slow], fast[slow]))
        if sum(len(h[0]) for h in held) >= _ZIGGURAT_ROWS or b + _ZIGGURAT_ROWS >= len(rows):
            at, x, fast = map(np.concatenate, zip(*held))
            held = []
            z, end[at], short[at] = _slow_rows(raw[at], x, fast, normals)
            records["normals"][rows[at]] = z.reshape(shape)
        x = fast = z = None  # freed before the next block's tries
    short |= end + uniforms > raw.shape[1]
    ok = np.flatnonzero(~short)
    if uniforms:
        records["uniforms"][rows[ok]] = _doubles(raw[ok[:, None], end[ok, None] + np.arange(uniforms)])
    return short


def _slow_rows(raw: np.ndarray, x: np.ndarray, fast: np.ndarray, normals: int) -> tuple[np.ndarray, ...]:
    """numpy's `random_standard_normal`, `normals` times, on rows of raw
    words where some fast-path try fails (`x`, `fast`: `_ziggurat_try` of
    the words). A try's outcome depends only on the words from it onward, so
    each failed try is decided once, before any row is parsed: one in layer
    i > 0 reads one more double for the wedge test against exp(-x^2/2) and
    takes 2 words; one in layer 0 reads pairs of doubles until the tail
    test passes; one in the last word, or a tail that runs out of words,
    keeps nothing and ends its row. A row's path, the tries it makes, is
    then every word but those that a try on the path reads beyond its own.
    Such a try, a jump, is on the path unless an earlier jump on it read its
    word: found as a fixed point, from all jumps on, in one pass more than
    the longest chain of jumps that read each other's words. A row's normals
    are the first `normals` tries on its path that keep one, so its last
    normal is at word normals - 1 plus the number of words before it that
    give none. Returns each row's normals, the word after them, and whether
    its words ran out."""
    n, width = raw.shape
    words, kept = raw.ravel(), fast.ravel().copy()  # flat over the rows; per try: whether it keeps a normal
    reads = np.ones(n * width, np.min_scalar_type(width))  # per try: how many words it reads
    failed = np.flatnonzero(~fast)
    failed = failed[failed % width < width - 1]  # one in the last word keeps nothing and reads 1
    layer = (words[failed] & np.uint64(0xFF)).view(np.int64)
    wedge, lw = failed[layer != 0], layer[layer != 0]
    kept[wedge] = _below_density((_FI[lw - 1] - _FI[lw]) * _doubles(words[wedge + 1]) + _FI[lw], x.ravel()[wedge])
    reads[wedge] = 2
    for i in failed[layer == 0].tolist():
        row, col = divmod(i, width)
        value, stop = _tail(raw[row], col)
        if value is not None:
            x[row, col], kept[i] = value, True
        reads[i] = (width if value is None else stop) - col
    jumps = np.flatnonzero(reads > 1)  # the tries that read words beyond their own, in row order
    ends, on, before = jumps + reads[jumps], np.ones(jumps.size, bool), None
    while before is None or (on != before).any():  # a fixed point, reached in a few passes
        reach = np.maximum.accumulate(np.where(on, ends, 0))  # flat: no row reaches into the next
        before, on = on, jumps >= np.concatenate(([0], reach[:-1]))
    span = reads[jumps[on]].astype(np.intp) - 1  # the words each jump on a path reads beyond its own
    kept[np.repeat(jumps[on] + 1 - np.cumsum(span) + span, span) + np.arange(span.sum())] = False
    lost = np.flatnonzero(~kept)  # in row order: the words that give their row no normal
    ahead = lost % width - np.arange(lost.size) + np.searchsorted(lost, lost - lost % width)  # normals before each
    last = normals - 1 + np.bincount(lost[ahead < normals] // width, minlength=n)  # each row's last normal
    short = last >= width
    end = last + reads.reshape(n, width)[np.arange(n), np.minimum(last, width - 1)]
    picked = kept.reshape(n, width) & (np.arange(width) <= last[:, None])
    picked[short] = np.arange(width) < normals  # any `normals` words, for rows drawn again
    return x[picked].reshape(n, normals), end, short


def _below_density(y: np.ndarray, x: np.ndarray) -> np.ndarray:
    """y < exp(-x^2/2) as decided with libm's exp, which numpy's C code
    calls: np.exp decides wherever the two sides are not within a few ulps."""
    density = np.exp(-0.5 * x * x)
    below = y < density
    for i in np.flatnonzero(np.abs(y - density) <= _EXP_SLACK * density):
        below[i] = y[i] < math.exp(-0.5 * x[i] * x[i])
    return below


def _tail(words: np.ndarray, i: int) -> tuple[float | None, int]:
    """The tail of numpy's ziggurat for the failed layer-0 try at words[i]:
    the value and the word after the last one read, or None when the words
    run out first."""
    sign = (int(words[i]) >> 17) & 1  # bit 8 of the try's magnitude
    k = i + 1
    while k + 1 < len(words):
        xx = -_ZIG_INV_R * math.log1p(-((int(words[k]) >> 11) * _DOUBLE_UNIT))
        yy = -math.log1p(-((int(words[k + 1]) >> 11) * _DOUBLE_UNIT))
        k += 2
        if yy + yy > xx * xx:
            return (-(_ZIG_R + xx) if sign else _ZIG_R + xx), k
    return None, k


def _complex_stack(normals: np.ndarray) -> np.ndarray:
    """Complex Gaussians from an (n, 2, ...) stack of normals, real part
    first, as one contiguous (..., n) array, the trial axis last: one copy
    that interleaves the real and imaginary planes, with no complex
    temporary."""
    z = np.empty((*normals.shape[2:], len(normals)), complex)
    z.view(float).reshape(*z.shape, 2)[...] = normals.transpose(*range(2, normals.ndim), 0, 1)
    return z


def haar_phase_fix(q: np.ndarray, r: np.ndarray) -> np.ndarray:
    """Rescale QR factor columns by the phases of R's diagonal so the result
    is Haar-distributed, not merely unitary: with LAPACK's QR, the
    independent route to `haar_unitaries` that the tests check it against."""
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[..., None, :]


def haar_unitaries(ginibre: np.ndarray) -> np.ndarray:
    """Haar unitaries from a (..., d, d) stack of Ginibre matrices: `_cgs2`
    on a (row, column, ...) copy of the stack, of which the result is a view."""
    return np.moveaxis(_cgs2(np.array(np.moveaxis(ginibre, (-2, -1), (0, 1)), order="C")), (0, 1), (-2, -1))


def _cgs2(q: np.ndarray) -> np.ndarray:
    """Overwrite each matrix of a (row, column, ...) stack of Ginibre
    matrices with the Q of its QR factorisation whose R has a positive real
    diagonal, which is Haar-distributed (Mezzadri, Notices AMS 54, 592,
    2007), and return the stack. Classical Gram-Schmidt with one
    reorthogonalisation pass (CGS2) keeps Q orthogonal to machine precision
    (Giraud, Langou & Rozloznik, Comput. Math. Appl. 50, 1069, 2005), and
    divides each column by a positive norm, R's diagonal. Elementwise along
    the stack, with no LAPACK call per matrix, and in place: the one other
    array kept is each finished column's conjugate, taken once (taking it
    anew at each projection slows a single matrix by a few percent). A zero
    column makes Q non-finite."""
    conj = []  # the finished columns' conjugates, each taken once
    for j in range(q.shape[1]):
        v = q[:, j]
        for _ in range(2 if j else 0):
            r = [sum_rows(conj[k] * v) for k in range(j)]  # all from the same v: classical, not modified
            for k in range(j):
                v -= q[:, k] * r[k]
        v /= np.sqrt(sum_rows(v.real * v.real + v.imag * v.imag))
        conj.append(v.conj())
    return q


def simplex_spacings(uniforms: np.ndarray) -> np.ndarray:
    """Uniform simplex points from an (n, 3) stack of uniforms on [0, 1):
    sorted-uniform spacings, equivalent to a flat Dirichlet."""
    return np.diff(np.sort(uniforms, axis=-1), prepend=0.0, append=1.0, axis=-1)


def build_states(kind: Kind, draws: np.ndarray) -> np.ndarray:
    """The states of a stack of `DRAW_RECORD[kind]` records, each as a factor
    W of its density matrix, rho = W W^dag, in an (n, 4, k) view of a
    contiguous (4, k, n) array: k = 1 for pure draws, the unit vector being
    its own factor, and k = 4 for mixed ones, W = U diag(sqrt(lambda)). That
    array is the one complex stack the build makes, written from the normals'
    real and imaginary planes, then normalised, or orthonormalised by `_cgs2`
    (_CGS2_TRIALS trials a call) and scaled by sqrt(lambda), in place. The
    pure norm is summed in a fixed order,
    sqrt(((r0^2 + r2^2) + (r1^2 + r3^2)) + ((i0^2 + i2^2) + (i1^2 + i3^2))),
    the order OpenBLAS's ddot used when it computed this norm, so no BLAS
    kernel choice enters the pure draw contract; the mixed build calls no
    BLAS or LAPACK and sums in a fixed order too, so a state does not depend
    on the chunk it is built in."""
    z = _complex_stack(draws["normals"])  # (4, n) pure, (4, 4, n) mixed
    if kind == "pure":
        sq = np.square(draws["normals"])
        halves = (sq[..., 0] + sq[..., 2]) + (sq[..., 1] + sq[..., 3])  # (n, 2): real, imaginary
        z /= np.sqrt(halves[:, 0] + halves[:, 1])
        return z[:, None].transpose(2, 0, 1)
    for b in range(0, z.shape[-1], _CGS2_TRIALS):
        _cgs2(z[..., b : b + _CGS2_TRIALS])
    z *= np.sqrt(simplex_spacings(draws["uniforms"])).T
    return z.transpose(2, 0, 1)


def sample_chunk(kind: Kind, seed: int, streams: np.ndarray) -> np.ndarray:
    """One state per substream index in `streams`, drawn by one `draw_chunk`.
    A degenerate draw comes out non-finite, without a warning, for the
    caller to screen."""
    draws = draw_chunk(kind, seed, streams)
    with np.errstate(divide="ignore", invalid="ignore"):
        return build_states(kind, draws)


def pure_state_vector(rng: RandomStream) -> np.ndarray:
    """Raw Haar-uniform unit vector (no validation)."""
    return build_states("pure", np.array([draw("pure", rng)], dtype=DRAW_RECORD["pure"]))[0, :, 0]


def mixed_state_matrix(rng: RandomStream) -> np.ndarray:
    """Raw density matrix W W^dag of a product-measure mixed draw (no validation)."""
    w = build_states("mixed", np.array([draw("mixed", rng)], dtype=DRAW_RECORD["mixed"]))[0]
    return w @ w.conj().T


def haar_unitary(rng: RandomStream) -> UnitaryGate:
    """One 4x4 unitary distributed per the Haar measure on U(4)."""
    return UnitaryGate(_cgs2(_complex_stack(rng.generator.standard_normal((1, 2, 4, 4))))[..., 0])


def simplex_point(rng: RandomStream) -> np.ndarray:
    """Uniform point on the 3-simplex via sorted-uniform spacings, as a (4,) array."""
    return simplex_spacings(rng.generator.random((1, 3)))[0]
