"""Closed-form linear OWA weight family.

One weight carries the undistributed mass 1 - Delta; the remaining n - 1
weights lie on a straight line K*i + b whose slope and intercept come out
of a 2x2 linear system with an explicit solution, so no iteration is ever
needed.  Orness above 0.5 is handled by mirroring the and-like solution.
"""

from dataclasses import dataclass

import numpy as np

from .core import WEIGHT_SUM_TOL, OrnessTarget, WeightVector, _check_n


@dataclass(frozen=True)
class LinearCoefficients:
    """Slope/intercept of the weight line plus the distributed mass.

    ``m`` is n - 1, the number of weights on the line; ``f_value`` is the
    shaping function evaluated at the (and-like) orness.
    """

    K: float
    b: float
    delta: float
    m: int
    f_value: float


def f_alpha(alpha: float, beta: float = 1.5) -> float:
    """Mass-shaping function 1 - (1 - 2*alpha)**beta on [0, 0.5].

    Monotone increasing with f(0) = 0 and f(0.5) = 1.  beta in [1, 1.5]
    keeps 2*alpha <= f(alpha) <= 3*alpha, which is exactly the condition
    for all weights to come out non-negative.
    """
    if not 0.0 <= alpha <= 0.5:
        raise ValueError(f"alpha must be in [0, 0.5]; got {alpha}")
    if not 1.0 <= beta <= 1.5:
        raise ValueError(f"beta must be in [1.0, 1.5]; got {beta}")
    return 1.0 - (1.0 - 2.0 * alpha) ** beta


def linear_coefficients(alpha: float, n: int, beta: float = 1.5) -> LinearCoefficients:
    """Closed-form (K, b) for the weight line at and-like orness ``alpha``.

    Requires n >= 3: the closed form divides by n*(n - 2).  Sizes 1 and 2
    are special-cased in :func:`linear_weights`.
    """
    if n < 3:
        raise ValueError(
            f"n must be >= 3 for the closed form (got {n}); "
            "linear_weights handles n = 1 and n = 2 directly"
        )
    f = f_alpha(alpha, beta)
    K = 6.0 * (f - 2.0 * alpha) / (n * (n - 2))
    b = f / n - K * n / 2.0
    delta = f * (n - 1) / n
    return LinearCoefficients(K=K, b=b, delta=delta, m=n - 1, f_value=f)


def _weight_array(orness: float, n: int, beta: float) -> np.ndarray:
    """Plain-array fast path shared by linear_weights and the benchmark."""
    if n == 1:
        return np.ones(1)
    if n == 2:
        return np.array([orness, 1.0 - orness])
    alpha = orness if orness <= 0.5 else 1.0 - orness
    w = np.empty(n)
    if beta == 1.0:
        # f(a) = 2a exactly: the line is flat (K = 0), so the fill is a
        # constant and no power evaluation is needed at all.
        w[: n - 1] = 2.0 * alpha / n
        w[n - 1] = 1.0 - 2.0 * alpha * (n - 1) / n
    else:
        f = 1.0 - (1.0 - 2.0 * alpha) ** beta
        K = 6.0 * (f - 2.0 * alpha) / (n * (n - 2))
        b = f / n - K * n / 2.0
        w[: n - 1] = K * np.arange(1, n) + b
        w[n - 1] = 1.0 - f * (n - 1) / n
    if orness > 0.5:
        w = w[::-1]
    return w


def linear_weights(target, n: int) -> WeightVector:
    """Weights of size ``n`` whose orness equals the request exactly.

    ``target`` is an :class:`OrnessTarget` or a bare orness float (beta
    then defaults to 1.5).  Orness <= 0.5 builds the and-like line
    directly; orness > 0.5 builds the line for 1 - orness and reverses
    it, which keeps the family symmetric about 0.5.
    """
    if not isinstance(target, OrnessTarget):
        target = OrnessTarget(float(target))
    n = _check_n(n, 1)
    w = _weight_array(target.orness, n, target.beta)
    # Rounding can leave a weight a hair below zero; WeightVector rejects
    # anything further below.
    if -WEIGHT_SUM_TOL < w.min() < 0.0:
        w = np.maximum(w, 0.0)
        w = w / w.sum()
    return WeightVector(w)
