"""End-to-end acceptance checks at full Monte Carlo scale.

Each test prints one PASS line on success so `pytest -s` gives a one-line
verdict per criterion. The big ensembles (10^6 trials, seed 42) are shared
module-scoped fixtures; expect a few minutes of wall time for this module.
"""

import numpy as np
import pytest

from entlab.entanglement import concurrence, concurrence_batch, eof
from entlab.experiment import (
    EnsembleSpec,
    Histogram,
    conditional_mean,
    histogram_delta,
    run_ensemble,
)
from entlab.gates import apply, circuit
from entlab.qstate import DensityMatrix, densify, ket
from entlab.sampling import RandomStream, haar_unitary, mixed_state_matrix, pure_state_vector, simplex_point

SEED = 42
TRIALS = 1_000_000
MEAN_PURE_EOF = 1 / (3 * np.log(2))  # 0.48089834696...

INV_SQRT2 = 1 / np.sqrt(2)
BELL_TARGETS = {
    "00": np.array([-1, 0, 0, 1]) * INV_SQRT2,
    "01": np.array([0, -1, 1, 0]) * INV_SQRT2,
    "10": np.array([1, 0, 0, 1]) * INV_SQRT2,
    "11": np.array([0, 1, 1, 0]) * INV_SQRT2,
}


@pytest.fixture(scope="module")
def pure_run():
    return run_ensemble(EnsembleSpec("pure", TRIALS, SEED))


@pytest.fixture(scope="module")
def mixed_run():
    return run_ensemble(EnsembleSpec("mixed", TRIALS, SEED))


def central_density(hist: Histogram) -> float:
    """Density at delta = 0. Zero sits on a bin edge for even bin counts, so
    the central density is measured over the pair of bins flanking it."""
    i = hist.bin_index(0.0)
    if np.isclose(hist.edges[i], 0.0) and i > 0:
        counts = hist.counts[i - 1] + hist.counts[i]
        return counts / (hist.total * 2 * hist.bin_width)
    return hist.counts[i] / (hist.total * hist.bin_width)


def central_bins(hist: Histogram) -> set[int]:
    i = hist.bin_index(0.0)
    return {i - 1, i} if np.isclose(hist.edges[i], 0.0) and i > 0 else {i}


def diagonal_crossing(profile) -> float:
    """Largest bin center whose conditional mean exceeds it, or -inf."""
    centers = profile.centers
    above = [c for c, m, occ in zip(centers, profile.mean_ef, profile.occupied) if occ and m > c]
    return max(above, default=float("-inf"))


def test_criterion_1_bell_basis_exactness():
    u = circuit()
    for bits, target in BELL_TARGETS.items():
        out = u.matrix @ ket(bits).amplitudes
        # global phase alignment before comparing amplitudes
        k = int(np.argmax(np.abs(target)))
        out = out * (target[k] / out[k]) * abs(out[k] / target[k])
        assert np.max(np.abs(out - target)) <= 1e-12
        assert eof(apply(u, densify(ket(bits)))) == pytest.approx(1.0, abs=1e-9)
    print("PASS criterion 1: circuit maps the product basis onto the Bell basis")


def test_criterion_2_pure_mean_entanglement(pure_run):
    mean_e0 = float(pure_run.e0.mean())
    assert abs(mean_e0 - MEAN_PURE_EOF) <= 0.005
    print(f"PASS criterion 2: pure mean E0 = {mean_e0:.5f} vs 1/(3 ln 2) = {MEAN_PURE_EOF:.5f}")


def test_criterion_3_delta_peak_ordering(pure_run, mixed_run):
    hp = histogram_delta(pure_run, 100)
    hm = histogram_delta(mixed_run, 100)
    for hist in (hp, hm):
        center = central_bins(hist)
        best_center = max(int(hist.counts[i]) for i in center)
        best_other = max(int(hist.counts[i]) for i in range(hist.bin_count) if i not in center)
        assert best_center >= best_other, "delta histogram mode is away from 0"
    dp, dm = central_density(hp), central_density(hm)
    assert dm > dp
    print(f"PASS criterion 3: central P(dE) density mixed {dm:.2f} > pure {dp:.2f}, both modal")


def test_criterion_4_conditional_profiles(pure_run, mixed_run):
    # (a) pure: mean final entanglement beats E0 below 0.45 and decreases
    # with E0. The monotonicity check uses 20 bins: with 10^6 samples the
    # per-bin noise is well under the profile's slope at that width, which
    # keeps adjacent-pair violations inside the 2% allowance.
    fine = conditional_mean(pure_run, 50)
    for c, m, occ in zip(fine.centers, fine.mean_ef, fine.occupied):
        if occ and c < 0.45:
            assert m > c
    coarse = conditional_mean(pure_run, 20)
    means = coarse.mean_ef[coarse.occupied]
    violations = int(np.sum(np.diff(means) > 0))
    assert violations / max(1, means.size - 1) < 0.02
    # (b) mixed: starts essentially unentangled and crosses the diagonal
    # far earlier than the pure ensemble
    mixed_fine = conditional_mean(mixed_run, 50)
    assert mixed_fine.occupied[0] and mixed_fine.mean_ef[0] < 0.05
    assert np.nanmax(mixed_fine.mean_ef) > mixed_fine.mean_ef[0]
    cross_mixed = diagonal_crossing(mixed_fine)
    cross_pure = diagonal_crossing(fine)
    assert cross_mixed < cross_pure
    print(
        f"PASS criterion 4: pure profile non-increasing ({violations} violations), "
        f"diagonal crossing mixed {cross_mixed:.2f} < pure {cross_pure:.2f}"
    )


def test_criterion_5a_pure_oracle_agreement():
    vecs = np.array([pure_state_vector(RandomStream(SEED, i)) for i in range(10_000)])
    rhos = vecs[:, :, None] * vecs.conj()[:, None, :]
    spectral = concurrence_batch(rhos)
    closed = 2 * np.abs(vecs[:, 0] * vecs[:, 3] - vecs[:, 1] * vecs[:, 2])
    dev = float(np.max(np.abs(spectral - closed)))
    assert dev <= 1e-9
    print(f"PASS criterion 5a: pure concurrence vs 2|ad-bc|, max deviation {dev:.2e}")


def test_criterion_5b_ppt_agreement():
    mats = np.empty((10_000, 4, 4), dtype=complex)
    for i in range(10_000):
        mats[i] = mixed_state_matrix(RandomStream(SEED, i))
    conc = concurrence_batch(mats)
    pt = mats.reshape(-1, 2, 2, 2, 2).transpose(0, 1, 4, 3, 2).reshape(-1, 4, 4)
    min_eig = np.linalg.eigvalsh(0.5 * (pt + pt.conj().transpose(0, 2, 1)))[:, 0]
    clear = ~((np.abs(min_eig) < 1e-6) | ((conc > 0.0) & (conc < 1e-6)))
    disagreements = int(np.sum((min_eig[clear] < -1e-9) != (conc[clear] > 1e-9)))
    assert disagreements == 0
    print(f"PASS criterion 5b: PPT vs concurrence verdicts, 0 disagreements on {int(clear.sum())} states")


def test_criterion_5c_werner_concurrence():
    psi = np.array([0, 1, -1, 0], dtype=complex) * INV_SQRT2
    singlet = np.outer(psi, psi.conj())
    worst = 0.0
    for x in (0.0, 0.2, 1 / 3, 0.5, 0.8, 1.0):
        rho = DensityMatrix(x * singlet + (1 - x) * np.eye(4) / 4)
        closed = max(0.0, (3 * x - 1) / 2)
        worst = max(worst, abs(concurrence(rho) - closed))
        # validate the closed form itself by brute-force general eigenvalues
        from entlab.entanglement import rho_tilde

        lam = np.sort(np.sqrt(np.abs(np.linalg.eigvals(rho.matrix @ rho_tilde(rho)))))[::-1]
        assert max(0.0, lam[0] - lam[1] - lam[2] - lam[3]) == pytest.approx(closed, abs=1e-9)
    assert worst <= 1e-9
    print(f"PASS criterion 5c: Werner concurrence vs (3x-1)/2, max deviation {worst:.2e}")


def test_criterion_6_measure_correctness():
    n = 100_000
    mats = np.empty((n, 4, 4), dtype=complex)
    for i in range(n):
        mats[i] = mixed_state_matrix(RandomStream(SEED + 1, i))
    purity = np.einsum("nij,nji->n", mats, mats).real.mean()
    assert abs(purity - 0.4) <= 0.005

    moments = np.zeros((4, 4))
    for i in range(n):
        moments += np.abs(haar_unitary(RandomStream(SEED + 2, i)).matrix) ** 2
    moments /= n
    haar_dev = float(np.max(np.abs(moments - 0.25)))
    assert haar_dev <= 0.003

    mean_max = np.mean([simplex_point(RandomStream(SEED + 3, i)).max() for i in range(n)])
    assert abs(mean_max - 25 / 48) <= 0.003
    print(
        f"PASS criterion 6: mean purity {purity:.4f} (0.400), Haar moment dev {haar_dev:.4f}, "
        f"simplex mean-max {mean_max:.4f} (25/48 = {25 / 48:.4f})"
    )


def test_criterion_7_cli_determinism(tmp_path):
    from entlab.cli import RunConfig, execute

    def run(tag, workers):
        cfg = RunConfig(
            ensemble="mixed",
            trials=20_000,
            seed=SEED,
            delta_bins=100,
            e0_bins=50,
            workers=workers,
            output_dir=str(tmp_path / tag),
            formats=("csv", "json"),
        )
        assert execute(cfg) == 0
        return {
            name: (tmp_path / tag / name).read_bytes()
            for name in ("delta_hist.csv", "e0_hist.csv", "conditional_mean.csv")
        }

    first = run("a", workers=1)
    second = run("b", workers=1)
    parallel = run("c", workers=2)
    assert first == second == parallel
    print("PASS criterion 7: CSV outputs byte-identical across reruns and worker counts")
