"""Where the paper's near-optimality claim holds.

The paper calls the linear vector "very close to" the maximum-entropy
optimum.  Measured against the independent geometric oracle, that holds
at small n and central orness only: the relative entropy gap
(H_opt - H_linear) / H_opt grows with n and towards the extremes.  The
pinned table is the README's, to the three significant digits it
prints; a change to either side of the comparison shows here.
"""

import numpy as np
import pytest

from owakit import OrnessTarget, WeightVector, dispersion, linear_weights
from oracle import maxent_geometric_oracle

NS = (3, 5, 10, 100, 1000, 10**4)
ORNESS = [k / 100 for k in range(10, 91)]
BETAS = (1.0, 1.25, 1.5)
BANDS = ((0.4, 0.6), (0.3, 0.7), (0.2, 0.8), (0.1, 0.9))

# Worst relative gap in percent at beta = 1.5 over each orness band, by n.
WORST_GAP_PCT = {
    3: (1.76, 2.99, 3.11, 3.11),
    5: (0.125, 0.17, 1.25, 5.22),
    10: (0.144, 1.86, 6.79, 17.6),
    100: (2.25, 9.9, 23.3, 44.7),
    1000: (4.11, 14.7, 31.2, 55.1),
    10**4: (5.28, 17.4, 35.2, 59.9),
}


@pytest.mark.parametrize("n", NS)
def test_linear_never_beats_the_optimum_and_the_gap_is_pinned(n):
    worst = np.zeros(len(BANDS))
    for a in ORNESS:
        h_opt = dispersion(WeightVector(maxent_geometric_oracle(a, n)))
        h = {beta: dispersion(linear_weights(OrnessTarget(a, beta), n)) for beta in BETAS}
        # At orness 0.5 both vectors are uniform and differ by rounding.
        assert h_opt >= max(h.values()) - 1e-12, a
        gap = (h_opt - h[1.5]) / h_opt
        for i, (lo, hi) in enumerate(BANDS):
            if lo <= a <= hi:
                worst[i] = max(worst[i], gap)
    assert tuple(float(f"{100 * g:.3g}") for g in worst) == WORST_GAP_PCT[n]
