"""Whole distributions of sampled entanglement against the literature and a
closed form. A wrong normal tail, a lost Haar phase fix or a biased simplex
shifts these before it shifts a mean."""

import numpy as np
import pytest

from entlab.entanglement import factor_concurrence
from entlab.experiment import EnsembleResult, EnsembleSpec, histogram_delta, run_ensemble
from entlab.sampling import sample_chunk

from conftest import KS_COEFF_1PC, SEPARABLE_FRACTION, ks_statistic

TRIALS = 100_000


def test_mixed_separable_fraction():
    # E_0 is exactly 0 for a separable state; the standard error here is 0.0015.
    # The circuit is unitary, so it leaves the product measure as it is: E_F's
    # separable share is the same, and checks the kernel's screen on C W.
    res = run_ensemble(EnsembleSpec("mixed", TRIALS, 5))
    assert abs(np.mean(res.e0 == 0.0) - SEPARABLE_FRACTION) <= 0.01
    assert abs(np.mean(res.ef == 0.0) - SEPARABLE_FRACTION) <= 0.01


def test_pure_concurrence_distribution():
    # Haar-random pure states: density 3C sqrt(1 - C^2), CDF 1 - (1 - C^2)^(3/2)
    c = factor_concurrence(sample_chunk("pure", 5, np.arange(TRIALS)))
    assert ks_statistic(c, lambda x: 1 - (1 - x * x) ** 1.5) <= KS_COEFF_1PC / np.sqrt(TRIALS)


# per ensemble and delta E bin count at 2^18 trials, seed 42: the mirror
# pairs holding a trial, and the 1e-4 upper quantile of chi^2 at that many
# degrees of freedom
MIRROR_PAIRS = {
    ("pure", 21): (10, 35.56),
    ("pure", 100): (49, 94.60),
    ("mixed", 21): (9, 33.72),
    ("mixed", 100): (41, 83.47),
}


def mirror_chi2(result: EnsembleResult, bin_count: int) -> tuple[float, int]:
    """chi^2 of the delta E histogram against its mirror image, summed over
    the bin pairs (i, n - 1 - i) that hold a trial, and the number of those
    pairs. At an even bin count the pair beside 0 is left out: the binning
    rule puts every delta E = 0 in the bin right of 0."""
    counts = histogram_delta(result, bin_count).counts
    half = bin_count // 2 - (bin_count % 2 == 0)
    a, b = counts[:half], counts[::-1][:half]
    held = a + b > 0
    return float(np.sum((a - b)[held] ** 2 / (a + b)[held])), int(held.sum())


@pytest.mark.parametrize("kind", ["pure", "mixed"])
def test_delta_distribution_is_symmetric(kind):
    """P(delta E) = P(-delta E) exactly. The circuit U = CNOT (h x I) has
    U^dag = V U V with V = h x I local, the product measure is invariant
    under unitary conjugation and E under local unitaries, so (E_0, E_F) is
    exchangeable. A run that treats E_0 and E_F differently fails, as one
    that adds 0.01 to every nonzero E_F does, by a factor of 3 or more."""
    result = run_ensemble(EnsembleSpec(kind, 2**18, 42), workers=2)
    shifted = EnsembleResult(result.e0, np.where(result.ef > 0, result.ef + 0.01, result.ef))
    for bin_count in (21, 100):
        pairs, quantile = MIRROR_PAIRS[kind, bin_count]
        chi2, held = mirror_chi2(result, bin_count)
        assert held == pairs and chi2 < quantile, (bin_count, chi2)
        assert mirror_chi2(shifted, bin_count)[0] > 3 * quantile, bin_count
