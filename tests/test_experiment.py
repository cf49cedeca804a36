import concurrent.futures

import numpy as np
import pytest

from entlab import experiment
from entlab.entanglement import eof_from_concurrence, pure_concurrence_oracle
from entlab.errors import UsageError
from entlab.experiment import (
    CHUNK_SIZE,
    RETRY_STRIDE,
    EnsembleResult,
    EnsembleSpec,
    _chunk_task,
    conditional_mean,
    entanglement_histogram,
    histogram_delta,
    run_ensemble,
)
from entlab.gates import circuit
from entlab.qstate import PureState, ket
from entlab.sampling import RandomStream, mixed_draw, mixed_state_matrix, pure_state_vector

from conftest import definition_concurrence, definition_eof, poison_draws

# the definition route loses half its digits on rank-1 (pure) states
REFERENCE_TOL = {"pure": 1e-6, "mixed": 1e-10}


def result(e0, ef) -> EnsembleResult:
    return EnsembleResult(e0=np.asarray(e0, dtype=float), ef=np.asarray(ef, dtype=float))


def forced_trial(monkeypatch, kind, draw) -> tuple[float, float]:
    """(E_0, E_F) of one trial run by the engine, with its per-trial draw
    replaced by `draw`, the way `conftest.poison_draws` replaces it."""
    monkeypatch.setattr(experiment, "pure_state_vector" if kind == "pure" else "mixed_draw", draw)
    e0, ef, failures = _chunk_task(kind, 1, 0, 1)
    assert failures == 0
    return e0[0], ef[0]


def reference_trial(kind, seed: int, stream: int) -> np.ndarray:
    """(E_0, E_F) of the trial drawn from `stream`, by Wootters' definition:
    shares the draw with the engine but none of its kernel."""
    rng = RandomStream(seed, stream)
    if kind == "pure":
        v = pure_state_vector(rng)
        rho = np.outer(v, v.conj())
    else:
        rho = mixed_state_matrix(rng)
    u = circuit().matrix
    return definition_eof(definition_concurrence(np.stack([rho, u @ rho @ u.conj().T])))


class TestRunTrial:
    """One trial through the engine's `_chunk_task`, on forced or sampled draws."""

    def test_forced_ground_state(self, monkeypatch):
        e0, ef = forced_trial(monkeypatch, "pure", lambda rng: ket("00").amplitudes)
        assert e0 == pytest.approx(0.0, abs=1e-12)
        assert ef == pytest.approx(1.0, abs=1e-9)

    def test_forced_maximally_mixed(self, monkeypatch):
        # uniforms (1/4, 1/2, 3/4) space the simplex evenly, so rho = U (I/4) U^dag
        forced = forced_trial(monkeypatch, "mixed", lambda rng: (mixed_draw(rng)[0], np.array([0.25, 0.5, 0.75])))
        assert forced == (0.0, 0.0)

    def test_forced_bell_state(self, monkeypatch):
        bell = np.array([1, 0, 0, 1], dtype=complex) / np.sqrt(2)
        e0, ef = forced_trial(monkeypatch, "pure", lambda rng: bell)
        assert e0 == pytest.approx(1.0, abs=1e-9)
        # cross-check the final EoF against the pure-state closed form
        expected = eof_from_concurrence(pure_concurrence_oracle(PureState(circuit().matrix @ bell)))
        assert ef == pytest.approx(expected, abs=1e-9)

    def test_sampled_trials_consistent(self):
        e0, ef, failures = _chunk_task("pure", 2, 0, 50)
        assert failures == 0
        assert np.all((e0 >= 0) & (e0 <= 1)) and np.all((ef >= 0) & (ef <= 1))
        for t in range(50):
            assert (e0[t], ef[t]) == pytest.approx(reference_trial("pure", 2, t), abs=REFERENCE_TOL["pure"])


class TestEnsembleSpec:
    def test_rejects_zero_trials(self):
        with pytest.raises(UsageError):
            EnsembleSpec("pure", 0, 1)

    def test_rejects_unknown_kind(self):
        with pytest.raises(UsageError):
            EnsembleSpec("thermal", 10, 1)

    def test_seed_range(self):
        EnsembleSpec("pure", 10, 0)
        EnsembleSpec("pure", 10, 2**64 - 1)
        for seed in (-1, 2**64, 2**64 + 5):
            with pytest.raises(UsageError, match="seed"):
                EnsembleSpec("pure", 10, seed)


class TestRunEnsemble:
    def test_single_trial(self):
        res = run_ensemble(EnsembleSpec("mixed", 1, 3))
        assert len(res) == 1

    def test_deterministic(self):
        a = run_ensemble(EnsembleSpec("mixed", 2000, 4))
        b = run_ensemble(EnsembleSpec("mixed", 2000, 4))
        assert np.array_equal(a.e0, b.e0)
        assert np.array_equal(a.ef, b.ef)
        assert np.array_equal(a.delta, b.delta)

    def test_worker_count_does_not_change_results(self):
        # chunk edges, and (at 1 and CHUNK_SIZE trials) more workers than chunks
        for trials in (1, CHUNK_SIZE, 20_000, 2 * CHUNK_SIZE + 5):
            spec = EnsembleSpec("pure", trials, 5)
            seq = run_ensemble(spec, workers=1)
            assert len(seq) == trials
            for workers in (2, 3):
                par = run_ensemble(spec, workers=workers)
                assert np.array_equal(seq.e0, par.e0)
                assert np.array_equal(seq.ef, par.ef)

    def test_pool_no_larger_than_chunk_count(self, monkeypatch):
        requested = []

        class RecordingPool(concurrent.futures.ThreadPoolExecutor):
            def __init__(self, max_workers):
                requested.append(max_workers)
                super().__init__(max_workers)

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        res = run_ensemble(EnsembleSpec("pure", 2 * CHUNK_SIZE, 5), workers=4)
        assert requested == [2]  # two chunks: a third and fourth process would sit idle
        assert len(res) == 2 * CHUNK_SIZE

    def test_matches_scalar_trials(self):
        res = run_ensemble(EnsembleSpec("mixed", 64, 6))
        for t in (0, 17, 63):
            assert (res.e0[t], res.ef[t]) == pytest.approx(reference_trial("mixed", 6, t), abs=REFERENCE_TOL["mixed"])

    def test_bounds_and_purity_preservation(self):
        res = run_ensemble(EnsembleSpec("pure", 1000, 7))
        assert np.all((res.e0 >= 0) & (res.e0 <= 1))
        assert np.all((res.ef >= 0) & (res.ef <= 1))
        assert np.all((res.delta >= -1) & (res.delta <= 1))
        # pure inputs stay pure, so the closed-form oracle applies to every trial
        u = circuit().matrix
        for t in range(1000):
            v = u @ pure_state_vector(RandomStream(7, t))
            expected = eof_from_concurrence(2 * abs(v[0] * v[3] - v[1] * v[2]))
            assert res.ef[t] == pytest.approx(expected, abs=1e-9)


class TestRetryPath:
    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("kind", ["pure", "mixed"])
    def test_nonfinite_draw_takes_retry_substream(self, monkeypatch, kind):
        clean = _chunk_task(kind, 3, 0, 10)
        poison_draws(monkeypatch, {5})
        e0, ef, failures = _chunk_task(kind, 3, 0, 10)
        assert failures == 1
        ref = reference_trial(kind, 3, 5 + RETRY_STRIDE)
        assert (e0[5], ef[5]) == pytest.approx(ref, abs=REFERENCE_TOL[kind])
        others = np.arange(10) != 5
        assert np.array_equal(e0[others], clean[0][others])
        assert np.array_equal(ef[others], clean[1][others])


class TestHistogramDelta:
    def test_single_zero_record(self):
        h = histogram_delta(result([0.3], [0.3]), 100)
        assert h.counts.sum() == 1
        assert h.counts[h.bin_index(0.0)] == 1

    def test_extremes_two_bins(self):
        h = histogram_delta(result([1.0, 0.0], [0.0, 1.0]), 2)
        assert list(h.counts) == [1, 1]

    def test_rejects_single_bin(self):
        with pytest.raises(UsageError):
            histogram_delta(result([0.0], [0.0]), 1)

    def test_mode_at_zero_for_sampled_ensembles(self):
        res = run_ensemble(EnsembleSpec("mixed", 20_000, 9))
        h = histogram_delta(res, 100)
        assert int(np.argmax(h.counts)) == h.bin_index(0.0)

    def test_density_normalization(self):
        res = run_ensemble(EnsembleSpec("mixed", 2000, 10))
        h = histogram_delta(res, 50)
        assert h.densities().sum() * h.bin_width == pytest.approx(1.0, abs=1e-12)


def edge_values(lo: float, bins: int) -> np.ndarray:
    """Every bin edge over [lo, 1], and the in-range values one ulp either side."""
    edges = np.linspace(lo, 1.0, bins + 1)
    near = np.concatenate([edges, np.nextafter(edges, -2.0), np.nextafter(edges, 2.0)])
    return np.unique(np.clip(near, lo, 1.0))


class TestBinRule:
    """Each value is counted in the bin that `bin_index` names."""

    BINS = (2, 3, 7, 50, 100, 186, 399)

    def test_delta_histogram(self):
        for bins in self.BINS:
            for x in edge_values(-1.0, bins):
                h = histogram_delta(result([0.0], [x]), bins)
                assert h.counts[h.bin_index(x)] == 1, (bins, x)

    def test_e0_histogram_and_conditional_mean(self):
        for bins in self.BINS:
            for x in edge_values(0.0, bins):
                rec = result([x], [x])
                h = entanglement_histogram(rec, bins)
                assert h.counts[h.bin_index(x)] == 1, (bins, x)
                assert conditional_mean(rec, bins, min_count=1).counts[h.bin_index(x)] == 1, (bins, x)


class TestEntanglementHistogram:
    def test_mixed_mode_in_first_bin(self):
        res = run_ensemble(EnsembleSpec("mixed", 20_000, 11))
        h = entanglement_histogram(res, 50)
        assert int(np.argmax(h.counts)) == 0

    def test_pure_mode_interior(self):
        res = run_ensemble(EnsembleSpec("pure", 20_000, 12))
        h = entanglement_histogram(res, 50)
        mode = int(np.argmax(h.counts))
        assert 0 < mode < 49


class TestConditionalMean:
    def test_all_mass_in_first_bin(self):
        prof = conditional_mean(result([0.0] * 5, [1.0] * 5), 10, min_count=1)
        assert prof.mean_ef[0] == pytest.approx(1.0)
        assert np.all(np.isnan(prof.mean_ef[1:]))

    def test_occupancy_threshold(self):
        prof = conditional_mean(result([0.0] * 99, [0.5] * 99), 10, min_count=100)
        assert not prof.occupied[0]
        assert np.isnan(prof.mean_ef[0])

    def test_rejects_single_bin(self):
        with pytest.raises(UsageError):
            conditional_mean(result([0.0], [0.0]), 1)

    def test_top_edge_lands_in_last_bin(self):
        prof = conditional_mean(result([1.0], [0.2]), 10, min_count=1)
        assert prof.counts[-1] == 1
