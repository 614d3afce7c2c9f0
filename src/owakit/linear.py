"""Closed-form linear OWA weight family.

One weight carries the undistributed mass 1 - Delta; the remaining n - 1
weights lie on a straight line K*i + b.  :func:`_coefficients` is the one
closed form (no iteration) for K, b and Delta, used by the weights and by
:func:`linear_coefficients`.  Orness above 0.5 mirrors the and-like solution.
"""

from dataclasses import dataclass

import numpy as np

from .core import DEFAULT_BETA, WEIGHT_SUM_TOL, OrnessTarget, WeightVector
from .core import _check_alpha, _check_beta, _check_n


@dataclass(frozen=True)
class LinearCoefficients:
    """Slope/intercept of the weight line plus the distributed mass."""

    K: float
    b: float
    delta: float


def _f(alpha: float, beta: float) -> float:
    # beta = 1 gives f = 2*alpha exactly, with no power evaluated.
    return 2.0 * alpha if beta == 1.0 else 1.0 - (1.0 - 2.0 * alpha) ** beta


def _coefficients(alpha: float, n: int, f: float):
    """(K, b, Delta) for n >= 3 at and-like orness ``alpha`` with f(alpha) = ``f``."""
    K = 6.0 * (f - 2.0 * alpha) / (n * (n - 2))
    return K, f / n - K * n / 2.0, f * (n - 1) / n


def f_alpha(alpha: float, beta: float = DEFAULT_BETA) -> float:
    """Mass-shaping function 1 - (1 - 2*alpha)**beta on [0, 0.5].

    Monotone increasing with f(0) = 0 and f(0.5) = 1.  beta in [1, 1.5]
    keeps 2*alpha <= f(alpha) <= 3*alpha, which is exactly the condition
    for all weights to come out non-negative.  At beta = 1 it is 2*alpha.
    """
    return _f(_check_alpha(alpha), _check_beta(beta))


def linear_coefficients(alpha: float, n: int, beta: float = DEFAULT_BETA) -> LinearCoefficients:
    """Closed-form (K, b, Delta) at and-like orness ``alpha``: the weights
    are K*i + b for i = 1..n-1, then 1 - Delta.

    Requires an integer n >= 3: the closed form divides by n*(n - 2).
    Sizes 1 and 2 are special-cased in :func:`linear_weights`.
    """
    n = _check_n(n, 1)
    if n < 3:
        raise ValueError(
            f"n must be >= 3 for the closed form (got {n}); "
            "linear_weights handles n = 1 and n = 2 directly"
        )
    alpha = _check_alpha(alpha)
    return LinearCoefficients(*_coefficients(alpha, n, _f(alpha, _check_beta(beta))))


def _weight_array(orness: np.ndarray, n: int, beta: float) -> np.ndarray:
    """Weights of size ``n``, one row per value of the 1-d array ``orness``
    (no validation).  Each row is computed on its own: row i equals the
    one-row result for ``orness[i]`` bit for bit."""
    if n == 1:
        return np.ones((orness.size, 1))
    if n == 2:
        return np.stack([orness, 1.0 - orness], axis=1)
    # Row by row from the scalar closed form: that keeps Python's float **
    # (numpy's array power differs in the last bit), and on a short grid
    # or a single value it costs less than broadcasting over the rows.
    steps = np.arange(1.0, n + 1)
    w = np.empty((orness.size, n))
    for row, a in zip(w, orness.tolist()):
        alpha = a if a <= 0.5 else 1.0 - a
        K, b, delta = _coefficients(alpha, n, _f(alpha, beta))
        np.multiply(steps, K, out=row)
        row += b
        row[n - 1] = 1.0 - delta
        if a > 0.5:
            row[:] = row[::-1]
        # Rounding can leave a weight a hair below zero: clip such a row
        # and renormalize it; WeightVector rejects anything further below.
        # The rounded line K*i + b is monotone in i and 1 - delta > 0, so
        # the least weight sits at i = 1 or i = n - 1.
        if -WEIGHT_SUM_TOL < min(K + b, K * (n - 1) + b) < 0.0:
            np.maximum(row, 0.0, out=row)
            row /= row.sum()
    return w


def linear_weights(target, n: int) -> WeightVector:
    """Weights of size ``n`` whose orness equals the request exactly.

    ``target`` is an :class:`OrnessTarget` or a bare orness float (beta
    then defaults to ``DEFAULT_BETA``).  Orness <= 0.5 builds the and-like
    line directly; orness > 0.5 builds the line for 1 - orness and
    reverses it, which keeps the family symmetric about 0.5.
    """
    if not isinstance(target, OrnessTarget):
        target = OrnessTarget(target)
    n = _check_n(n, 1)
    return WeightVector(_weight_array(np.array([target.orness], dtype=float), n, target.beta)[0])
