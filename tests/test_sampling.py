import hashlib
import importlib.util
import math
import shutil
from pathlib import Path

import numpy as np
import pytest

from entlab import sampling, ziggurat_tables
from entlab.errors import UsageError
from entlab.experiment import RETRY_STRIDE
from entlab.qstate import DensityMatrix, PureState
from entlab.sampling import (
    DRAW_RECORD,
    RandomStream,
    draw,
    draw_chunk,
    haar_phase_fix,
    haar_unitaries,
    haar_unitary,
    mixed_state_matrix,
    pure_state_vector,
    sample_chunk,
    simplex_point,
    simplex_spacings,
)

from conftest import KS_COEFF_1PC, ks_statistic, mixed_matrices

# the pure draw contract to the last bit: vectors as (real, imaginary) float.hex pairs
GOLDEN_PURE = {
    (0, 0): [
        ("0x1.891f66ad89ea3p-5", "-0x1.82037d5d7fc1bp-7"),
        ("-0x1.11a7d9c7a5eb6p-1", "-0x1.4077721c44635p-3"),
        ("0x1.9935a8cbe7b61p-2", "-0x1.576f825d27f06p-2"),
        ("0x1.73aa83888b274p-2", "-0x1.109b053a9780dp-1"),
    ],
    (42, 8191): [
        ("0x1.e1dc5a0eb2708p-3", "-0x1.c01d38ed7d90dp-4"),
        ("-0x1.da4e3971bd1aap-2", "0x1.5a42f4f5f62d7p-1"),
        ("0x1.a8289fd44b76fp-4", "-0x1.1297abe441c6cp-4"),
        ("0x1.ae65b992b5d57p-4", "0x1.efdf5d5a9683ep-2"),
    ],
    (2**64 - 1, 5 + 3 * RETRY_STRIDE): [
        ("0x1.df8633b444f45p-4", "0x1.782c8ae327b0cp-2"),
        ("-0x1.2701ce02fa8d1p-2", "0x1.954a073161303p-3"),
        ("-0x1.87a3416f6f526p-2", "-0x1.427eedfe5910dp-1"),
        ("0x1.b982606f61a0ap-2", "0x1.0b356db5b1cd7p-6"),
    ],
}


# the mixed draw contract: per (seed, substream), the 3 uniforms as float.hex
# and the sha256 of the 32 normals as little-endian float64
GOLDEN_MIXED = {
    (0, 0): (
        ["0x1.f63610021aa76p-2", "0x1.3eebb112cd6ebp-1", "0x1.16072e2462632p-2"],
        "9f066743e7e42b00b5a54a79136080e8689d42c74369af5db9c4282642a0908c",
    ),
    (42, 8191): (
        ["0x1.3bb9e4c165a08p-3", "0x1.7bfb666d9a670p-5", "0x1.d27eb75f5ea20p-6"],
        "7bdc1474c8cfafc67a621acf0e2e6673dd38136ccd21d1f0b12381a699cde8ae",
    ),
    (2**64 - 1, 5 + 3 * RETRY_STRIDE): (
        ["0x1.f3bb204835ec2p-1", "0x1.cd1da3c47af7ap-2", "0x1.df233ecd56e2bp-1"],
        "80865675b6c6046a442445ee68050e97f066a786940dd1d63232181fc0693472",
    ),
}


def reset_draws(seed: int, count: int, draw) -> np.ndarray:
    """`draw(generator)` on substreams 0..count-1 of `seed`, one stream each."""
    return np.array([draw(RandomStream(seed, i).generator) for i in range(count)])


class TestRandomStream:
    def test_reproducible(self):
        a = RandomStream(42, 7).generator.random(100)
        b = RandomStream(42, 7).generator.random(100)
        assert np.array_equal(a, b)

    def test_reading_the_generator_changes_no_field(self):
        """The generator is built with the stream: reading it, and drawing
        from it, leave the frozen stream's fields as they were."""
        stream = RandomStream(1, 2)
        before = dict(vars(stream))
        stream.generator.random(3)
        assert vars(stream) == before

    def test_substreams_differ(self):
        a = RandomStream(42, 0).generator.random(100)
        b = RandomStream(42, 1).generator.random(100)
        assert not np.array_equal(a, b)

    def test_seeds_differ(self):
        # includes seeds above 2^53, which a float64 key would merge
        for s, t in ((1, 2), (2**64 - 1, 2**64 - 2), (2**63, 2**63 + 1)):
            a = RandomStream(s, 0).generator.random(100)
            b = RandomStream(t, 0).generator.random(100)
            assert not np.array_equal(a, b)

    @pytest.mark.parametrize("leftover", ["partial-block", "pending-half"])
    @pytest.mark.parametrize("seed", [0, 2**63 + 12345, 2**64 - 1])
    def test_reset_matches_fresh_stream(self, seed, leftover):
        """A stream made after a used one for another substream (streams are
        frozen, so by the constructor) draws what one made before any draw
        does, even when the used one's generator was left mid-buffer."""
        targets = ((seed, 0), (seed, 5 + 3 * RETRY_STRIDE), (1, 2**64 - 1))
        fresh_streams = [RandomStream(*at) for at in targets]  # made before any draw
        rng = RandomStream(seed, 12)  # the previous trial
        gen = rng.generator
        if leftover == "partial-block":
            gen.random(3)  # 3 of the 4 words of a Philox block
            assert gen.bit_generator.state["buffer_pos"] == 3
        else:
            gen.integers(0, 2**32, dtype=np.uint32)  # keeps the other 32 bits
            assert gen.bit_generator.state["has_uint32"] == 1
        for (to_seed, to_index), fresh in zip(targets, fresh_streams, strict=True):
            moved = RandomStream(to_seed, to_index)
            assert repr(moved.generator.bit_generator.state) == repr(fresh.generator.bit_generator.state)
            for draw in (
                lambda g: g.integers(0, 2**32, size=3, dtype=np.uint32),
                lambda g: g.standard_normal((2, 4, 4)),
                lambda g: g.random(3),
            ):
                assert np.array_equal(draw(moved.generator), draw(fresh.generator))

    def test_frozen(self):
        rng = RandomStream(1, 4)
        with pytest.raises(AttributeError):
            rng.stream_index = 5
        assert rng.stream_index == 4

    @pytest.mark.parametrize(
        "seed,index", [(-1, 0), (2**64, 0), (0, -1), (0, 2**64), (1.5, 0), (0, 2.0), (True, 0), (0, True)]
    )
    def test_rejects_out_of_range(self, seed, index):
        # at construction: not on the first draw as an OverflowError from
        # numpy, and a float or a bool is not taken for another stream's key
        with pytest.raises(UsageError, match="must be an integer in"):
            RandomStream(seed, index)
        RandomStream(2**64 - 1, np.uint64(2**64 - 1))  # the largest accepted pair

    def test_second_read_keeps_position(self):
        rng = RandomStream(3, 9)
        first = rng.generator.random(5)
        second = rng.generator.random(5)  # continues, as a mixed trial's two draws need
        assert np.array_equal(np.concatenate([first, second]), RandomStream(3, 9).generator.random(10))

    def test_identical_state_sequences(self):
        a = [mixed_state_matrix(RandomStream(5, i)) for i in range(10)]
        b = [mixed_state_matrix(RandomStream(5, i)) for i in range(10)]
        for x, y in zip(a, b):
            assert np.array_equal(x, y)


def oracle_records(kind, seed: int, streams: np.ndarray) -> np.ndarray:
    """The draw contract's reference: `draw` on a fresh numpy `Generator`
    per substream."""
    return np.array([draw(kind, RandomStream(seed, s)) for s in streams.tolist()], dtype=DRAW_RECORD[kind])


def assert_records_equal(got: np.ndarray, want: np.ndarray):
    assert got.dtype == want.dtype and got.shape == want.shape
    for name in want.dtype.names:
        assert np.array_equal(got[name], want[name]), name


ORACLE_SEEDS = [0, 7, 11, 2**63 + 12345, 2**64 - 1]


def oracle_streams(count: int) -> np.ndarray:
    """`count` first substreams, retry substreams t + k * RETRY_STRIDE for
    k = 1 and 3, and the last substream."""
    ks = [np.arange(count, dtype=np.uint64)]
    ks += [np.arange(count // 4, dtype=np.uint64) + np.uint64(k * RETRY_STRIDE) for k in (1, 3)]
    return np.concatenate(ks + [np.array([2**64 - 1], dtype=np.uint64)])


class TestDrawChunk:
    """The chunk-level raw draw against numpy's `Generator(Philox)`, the
    oracle of the draw contract."""

    @pytest.mark.parametrize("kind,count", [("pure", 6000), ("mixed", 2000)])
    def test_matches_generator(self, monkeypatch, kind, count):
        tails, wedges = [], []
        tail, below_density = sampling._tail, sampling._below_density

        def traced_tail(words, i):
            tails.append(tail(words, i))
            return tails[-1]

        def traced_wedge(y, x):
            wedges.append(below_density(y, x))
            return wedges[-1]

        monkeypatch.setattr(sampling, "_tail", traced_tail)
        monkeypatch.setattr(sampling, "_below_density", traced_wedge)
        streams, layers = oracle_streams(count), set()
        tries = math.prod(DRAW_RECORD[kind]["normals"].shape)  # the first words are all tries
        for seed in ORACLE_SEEDS:
            assert_records_equal(draw_chunk(kind, seed, streams), oracle_records(kind, seed, streams))
            for s in streams.tolist()[:200]:
                words = np.random.Philox(key=np.array([seed, s], dtype=np.uint64)).random_raw(tries)
                layers.update((words & np.uint64(0xFF)).tolist())
        # every layer served a try, and both slow paths ran and were taken
        assert layers == set(range(256))
        wedge = np.concatenate(wedges)
        assert wedge.any() and not wedge.all()
        assert any(value is not None for value, _ in tails)

    def test_int64_streams_as_the_engine_passes_them(self):
        streams = np.arange(8192, 8192 + 700)
        for kind in ("pure", "mixed"):
            assert_records_equal(draw_chunk(kind, 42, streams), oracle_records(kind, 42, streams))

    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_trial_past_its_margin_is_extended(self, monkeypatch, kind):
        # no margin: most trials with a slow-path try run out of words
        blocks, philox_words = [], sampling.philox_words

        def recorded(seed, streams, first, count):
            blocks.append((first, len(streams)))
            return philox_words(seed, streams, first, count)

        monkeypatch.setattr(sampling, "SPARE_BLOCKS", 0)
        monkeypatch.setattr(sampling, "philox_words", recorded)
        streams = oracle_streams(1000)
        for seed in (7, 2**64 - 1):
            assert_records_equal(draw_chunk(kind, seed, streams), oracle_records(kind, seed, streams))
        firsts = {first for first, _ in blocks}
        assert len(firsts) >= 3  # some trials were extended more than once
        assert all(n < len(streams) for first, n in blocks if first > 0)  # and only those

    def test_philox_words_match_numpy(self):
        streams = np.array([0, 1, 5 + 3 * RETRY_STRIDE, 2**63, 2**64 - 1], dtype=np.uint64)
        for seed in ORACLE_SEEDS:
            got = sampling.philox_words(seed, streams, 2, 3)
            for row, s in zip(got, streams.tolist(), strict=True):
                want = np.random.Philox(key=np.array([seed, s], dtype=np.uint64)).random_raw(20)[8:]
                assert np.array_equal(row, want)

    def test_wedge_decided_by_libm_exp_near_the_boundary(self):
        # at these x, numpy 2.4's SIMD exp on x86-64 rounds exp(-x^2/2) one
        # ulp above glibc's (the first) or below it (the rest); math.exp decides
        apart = ("0x1.f4f591028228ap-5", "0x1.826363e89026cp+1", "0x1.460c6214c12bep+1")
        x = np.array([float.fromhex(h) for h in apart] + [0.3, 1.1, 3.5])
        edge = np.array([math.exp(-0.5 * v * v) for v in x.tolist()])
        for y, want in ((edge, False), (np.nextafter(edge, 0.0), True), (np.nextafter(edge, 1.0), False)):
            assert sampling._below_density(y, x).tolist() == [want] * len(x)


# numpy's ziggurat constants (distributions/ziggurat_constants.h)
NOR_R = 3.6541528853610087963519472518
NOR_INV_R = 0.27366123732975827203338247596
WI = [float.fromhex(h) for h in ziggurat_tables.WI_HEX]
FI = [float.fromhex(h) for h in ziggurat_tables.FI_HEX]
MAGNITUDE = 2**52 - 1  # the 52 bits of a try's magnitude, above its layer and sign


def reference_normals(words, count: int):
    """numpy's `random_standard_normal`, `count` times, on one row of raw
    uint64 words, written after numpy's distributions.c in Python ints and
    `math`: the normals and the number of words read, or None where the
    words run out first."""
    pos = 0

    def word() -> int:
        nonlocal pos
        if pos == len(words):
            raise IndexError
        pos += 1
        return int(words[pos - 1])

    def double() -> float:
        return (word() >> 11) * 2.0**-53

    out = []
    try:
        while len(out) < count:
            r = word()
            idx, sign, rabs = r & 0xFF, (r >> 8) & 1, (r >> 9) & MAGNITUDE
            x = -(rabs * WI[idx]) if sign else rabs * WI[idx]
            if rabs < ziggurat_tables.KI[idx]:
                out.append(x)
            elif idx == 0:
                while True:
                    xx = -NOR_INV_R * math.log1p(-double())
                    yy = -math.log1p(-double())
                    if yy + yy > xx * xx:
                        out.append(-(NOR_R + xx) if (rabs >> 8) & 1 else NOR_R + xx)
                        break
            elif (FI[idx - 1] - FI[idx]) * double() + FI[idx] < math.exp(-0.5 * x * x):
                out.append(x)
    except IndexError:
        return None
    return out, pos


def try_word(layer: int, fails: bool) -> int:
    """A raw word whose ziggurat try is in `layer`, positive, and passes the
    fast test (a small magnitude) or fails it (the largest magnitude)."""
    return ((MAGNITUDE if fails else 1000) << 9) | layer


FAST, WEDGE, TAIL = try_word(5, False), try_word(100, True), try_word(0, True)
LOW, HIGH = 0, 2**64 - 1  # as a double 0 and 1 - 2^-53: a wedge test at u = 0 keeps, at HIGH rejects
# a tail pair (LOW, HIGH) passes the tail test; (HIGH, LOW) fails it


class TestSlowRows:
    """`_slow_rows` against a scalar reference of numpy's normal sampler."""

    def test_reference_matches_generator(self):
        # a few hundred substreams, and some whose first try goes to the tail
        first = sampling.philox_words(3, np.arange(40_000), 0, 1)[:, 0].tolist()
        tail_first = [s for s, w in enumerate(first) if w & 0xFF == 0 and (w >> 9) & MAGNITUDE >= ziggurat_tables.KI[0]]
        assert len(tail_first) >= 5
        for seed, streams in ((3, tail_first[:20]), (3, range(300)), (2**64 - 1, range(300))):
            for s in streams:
                key = np.array([seed, s], dtype=np.uint64)
                got = reference_normals(np.random.Philox(key=key).random_raw(80), 32)
                assert got is not None
                assert got[0] == np.random.Generator(np.random.Philox(key=key)).standard_normal(32).tolist()

    @pytest.mark.parametrize(
        "row",
        [
            [FAST, WEDGE, HIGH, TAIL],  # a failed try in the last word
            [FAST, FAST, WEDGE, LOW],  # a wedge kept with the row's last word
            [FAST, FAST, WEDGE, HIGH],  # ... and rejected
            [FAST, WEDGE, HIGH, FAST, FAST, WEDGE],  # a rejected wedge, then fast tries
            [FAST, TAIL, HIGH, LOW, HIGH, LOW],  # a tail that runs out on a pair
            [FAST, FAST, TAIL, HIGH, LOW, FAST],  # ... with one word left over, which a try would keep
            [TAIL, HIGH, LOW, LOW, HIGH, FAST, FAST],  # a tail kept on its second pair
            [FAST, WEDGE, LOW, WEDGE, HIGH, TAIL, LOW, HIGH],  # every kind of try, a tail kept with the last word
        ],
        ids=["last-word", "wedge-last-kept", "wedge-last-rejected", "wedge-rejected-then-fast",
             "tail-runs-out", "tail-runs-out-odd", "tail-second-pair", "mixed"],
    )
    def test_hand_built_rows(self, row):
        self.assert_matches_reference(np.array([row], dtype=np.uint64), 3)

    def test_random_rows(self):
        raw = sampling.philox_words(5, np.arange(20_000), 0, 3)  # 12 words for 8 normals: some rows run out
        _, fast = sampling._ziggurat_try(raw)
        self.assert_matches_reference(raw[~fast[:, :8].all(axis=1)], 8)

    @staticmethod
    def assert_matches_reference(raw: np.ndarray, normals: int):
        x, fast = sampling._ziggurat_try(raw)
        z, end, short = sampling._slow_rows(raw, x, fast, normals)
        assert z.shape == (len(raw), normals)
        for row, zs, e, s in zip(raw, z.tolist(), end.tolist(), short.tolist(), strict=True):
            want = reference_normals(row, normals)
            assert s == (want is None)
            if want is not None:
                assert (zs, e) == want


def _extraction_tool():
    path = Path(__file__).resolve().parent.parent / "tools" / "extract_ziggurat_tables.py"
    spec = importlib.util.spec_from_file_location("extract_ziggurat_tables", path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _numpy_tables(tool) -> dict[str, tuple]:
    """The tables the tool extracts from this numpy's static library; skips
    where the library or `ar` is missing."""
    archive = tool.default_archive()
    if not archive.exists():
        pytest.skip(f"numpy ships no {archive.name} here to extract the tables from")
    if shutil.which("ar") is None:
        pytest.skip("no `ar` on PATH to unpack numpy's static library")
    return tool.extract(archive)


def test_ziggurat_tables_match_numpy_library():
    tables = _numpy_tables(_extraction_tool())
    assert tables["ki"] == ziggurat_tables.KI
    assert [x.hex() for x in tables["wi"]] == list(ziggurat_tables.WI_HEX)
    assert [x.hex() for x in tables["fi"]] == list(ziggurat_tables.FI_HEX)


def test_ziggurat_table_module_is_the_tools_output():
    """The tool, run on this numpy's library, writes the committed table
    module byte for byte."""
    tool = _extraction_tool()
    rendered = tool.render(_numpy_tables(tool), np.__version__)
    assert rendered == Path(ziggurat_tables.__file__).read_text()


@pytest.fixture(scope="module")
def ginibre_draws():
    z = draw_chunk("mixed", 32, np.arange(100_000))["normals"]  # each substream's first 32 normals
    return z[:, 0] + 1j * z[:, 1]


@pytest.fixture(scope="module")
def haar_draws(ginibre_draws):
    return haar_unitaries(ginibre_draws)


def qr_haar(ginibre: np.ndarray) -> np.ndarray:
    """The independent route: LAPACK's QR, then R's diagonal phases moved into Q."""
    return haar_phase_fix(*np.linalg.qr(ginibre))


@pytest.fixture(scope="module")
def simplex_draws():
    return simplex_spacings(reset_draws(34, 100_000, lambda g: g.random(3)))


@pytest.fixture(scope="module")
def mixed_mats():
    return mixed_matrices(37, 100_000)


class TestHaarUnitary:
    def test_unitary_every_draw(self):
        for i in range(50):
            u = haar_unitary(RandomStream(31, i)).matrix
            assert np.max(np.abs(u.conj().T @ u - np.eye(4))) <= 1e-12

    def test_matches_qr_with_phase_fix(self, ginibre_draws, haar_draws):
        assert np.max(np.abs(haar_draws - qr_haar(ginibre_draws))) <= 1e-12

    @pytest.mark.parametrize("cond", [1e4, 1e8, 1e12])
    def test_unitary_on_ill_conditioned_stacks(self, cond):
        # A diag(s) B with Haar A, B and singular values from 1 down to 1/cond
        rng = np.random.default_rng(int(np.log10(cond)))
        a, b = qr_haar(rng.standard_normal((2, 20_000, 4, 4)) + 1j * rng.standard_normal((2, 20_000, 4, 4)))
        g = (a * np.logspace(0, -np.log10(cond), 4)) @ b
        assert np.median(np.linalg.cond(g)) == pytest.approx(cond, rel=1e-3)
        u = haar_unitaries(g)
        assert np.max(np.abs(u.conj().swapaxes(-1, -2) @ u - np.eye(4))) <= 1e-12

    def test_each_unitary_independent_of_its_stack(self, ginibre_draws):
        # fixed-order sums: a chunk's states do not depend on the chunk's size
        stack = haar_unitaries(ginibre_draws[:300])
        assert all(np.array_equal(haar_unitaries(g[None])[0], u) for g, u in zip(ginibre_draws[:300], stack))
        assert np.array_equal(haar_unitaries(ginibre_draws[:2, :2, :2])[1], haar_unitaries(ginibre_draws[1, :2, :2]))

    def test_entry_second_moment(self, haar_draws):
        # Haar moment E|U_ij|^2 = 1/N
        means = np.mean(np.abs(haar_draws) ** 2, axis=0)
        assert np.max(np.abs(means - 0.25)) <= 0.003

    def test_corner_modulus_squared_is_beta_1_3(self, haar_draws):
        # |U_11|^2 ~ Beta(1, 3) for N=4: CDF 1 - (1-x)^3
        s = np.abs(haar_draws[:, 0, 0]) ** 2
        d = ks_statistic(s, lambda x: 1 - (1 - x) ** 3)
        assert d <= KS_COEFF_1PC / np.sqrt(s.size)

    def test_left_invariance(self, haar_draws):
        # fixed rotation must not change the |U_11| distribution
        v = haar_unitary(RandomStream(33, 0)).matrix
        rotated = np.abs((v @ haar_draws[:50_000])[:, 0, 0])
        plain = np.abs(haar_draws[50_000:, 0, 0])
        # two-sample KS against the Beta-derived CDF of each half
        d = ks_statistic(rotated, lambda x: 1 - (1 - np.clip(x**2, 0, 1)) ** 3)
        assert d <= KS_COEFF_1PC / np.sqrt(rotated.size)
        d2 = ks_statistic(plain, lambda x: 1 - (1 - np.clip(x**2, 0, 1)) ** 3)
        assert d2 <= KS_COEFF_1PC / np.sqrt(plain.size)


class TestSimplexPoint:
    def test_sums_to_one(self, simplex_draws):
        assert np.max(np.abs(simplex_draws.sum(axis=1) - 1.0)) <= 1e-12

    def test_component_means(self, simplex_draws):
        assert np.max(np.abs(simplex_draws.mean(axis=0) - 0.25)) <= 0.003

    def test_mean_maximum(self, simplex_draws):
        # order statistics of uniform spacings: E[max] = (1/4)(1 + 1/2 + 1/3 + 1/4)
        assert abs(simplex_draws.max(axis=1).mean() - 25 / 48) <= 0.003

    def test_mean_maximum_against_independent_dirichlet(self, simplex_draws):
        alt = np.random.default_rng(99).dirichlet(np.ones(4), size=100_000)
        assert abs(simplex_draws.max(axis=1).mean() - alt.max(axis=1).mean()) <= 0.006


class TestMixedStates:
    def test_valid_density_matrices(self):
        for i in range(100):
            DensityMatrix(mixed_state_matrix(RandomStream(35, i)))  # constructor validates

    def test_spectrum_matches_simplex_draw(self):
        for i in range(100):
            rho = DensityMatrix(mixed_state_matrix(RandomStream(36, i)))
            # replay the same substream to recover the lambda draw
            replay = RandomStream(36, i)
            haar_unitary(replay)
            lam = simplex_point(replay)
            eigs = np.sort(np.linalg.eigvalsh(rho.matrix))[::-1]
            assert np.max(np.abs(eigs - np.sort(lam)[::-1])) <= 1e-10

    @pytest.mark.parametrize("at", list(GOLDEN_MIXED), ids=["0-0", "42-8191", "max-retry3"])
    def test_draw_contract_golden(self, at):
        # the raw record, not the state
        seed, stream = at
        (chunk,) = draw_chunk("mixed", seed, np.array([stream], dtype=np.uint64))
        hexes, digest = GOLDEN_MIXED[at]
        for normals, uniforms in (draw("mixed", RandomStream(*at)), chunk.tolist()):
            assert [x.hex() for x in np.asarray(uniforms).tolist()] == hexes
            assert np.shape(normals) == (2, 4, 4)
            assert hashlib.sha256(np.asarray(normals, dtype="<f8").tobytes()).hexdigest() == digest

    def test_mean_purity(self, mixed_mats):
        # flat Dirichlet second moment: E[sum lambda^2] = 2/(N+1) = 0.4
        pur = np.einsum("nij,nji->n", mixed_mats, mixed_mats).real
        assert abs(pur.mean() - 0.4) <= 0.005

    def test_mean_purity_against_independent_dirichlet(self):
        lam = np.random.default_rng(77).dirichlet(np.ones(4), size=100_000)
        assert abs((lam**2).sum(axis=1).mean() - 0.4) <= 0.005

    def test_majority_separable(self, mixed_mats):
        from entlab.entanglement import concurrence_batch

        conc = concurrence_batch(mixed_mats[:20_000])
        assert np.mean(conc <= 1e-9) > 0.5


class TestPureStates:
    def test_unit_norm_every_draw(self):
        for i in range(100):
            psi = PureState(pure_state_vector(RandomStream(38, i)))
            assert abs(np.linalg.norm(psi.amplitudes) - 1.0) <= 1e-12

    @pytest.mark.parametrize("at", list(GOLDEN_PURE), ids=["0-0", "42-8191", "max-retry3"])
    def test_draw_contract_golden(self, at):
        seed, stream = at
        expected = np.array([complex(float.fromhex(re), float.fromhex(im)) for re, im in GOLDEN_PURE[at]])
        assert np.array_equal(sample_chunk("pure", seed, np.array([stream]))[0, :, 0], expected)
        assert np.array_equal(pure_state_vector(RandomStream(seed, stream)), expected)

    def test_norm_summed_in_fixed_order(self):
        # the order `build_states` states, in Python floats; a running
        # or pairwise sum of the same squares differs in the last bit on some draws
        z = reset_draws(41, 2000, lambda g: g.standard_normal((2, 4)))
        norms = [
            math.sqrt(((r0 * r0 + r2 * r2) + (r1 * r1 + r3 * r3)) + ((i0 * i0 + i2 * i2) + (i1 * i1 + i3 * i3)))
            for (r0, r1, r2, r3), (i0, i1, i2, i3) in z.tolist()
        ]
        expected = (z[:, 0] + 1j * z[:, 1]) / np.array(norms)[:, None]
        assert np.array_equal(sample_chunk("pure", 41, np.arange(2000))[..., 0], expected)

    def test_amplitude_symmetry(self):
        probs = np.abs(sample_chunk("pure", 39, np.arange(100_000))[..., 0]) ** 2
        assert np.max(np.abs(probs.mean(axis=0) - 0.25)) <= 0.003

    def test_mean_eof_consistency(self):
        # light version of the 1/(3 ln 2) check; the acceptance suite runs
        # the full-size one
        from entlab.entanglement import concurrence_batch, eof_from_concurrence

        vecs = sample_chunk("pure", 40, np.arange(100_000))[..., 0]
        rhos = vecs[:, :, None] * vecs.conj()[:, None, :]
        assert abs(eof_from_concurrence(concurrence_batch(rhos)).mean() - 1 / (3 * np.log(2))) <= 0.01
