"""Whole distributions of sampled entanglement against the literature and a
closed form. A wrong normal tail, a lost Haar phase fix or a biased simplex
shifts these before it shifts a mean."""

import numpy as np

from entlab.entanglement import factor_concurrence
from entlab.experiment import EnsembleSpec, run_ensemble
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
