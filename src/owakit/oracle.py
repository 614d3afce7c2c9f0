"""Slow, independent cross-checks for the fast implementations.

Nothing here shares a code path with the production modules: the 2x2
system is assembled from power sums computed by explicit loops and solved
by Cramer's rule, the entropy maximizer is found by brute grid search
over the constrained simplex slice, and for larger n by bisection on the
rate of its known geometric form.  Deliberately simple; used by the test
suite and to derive frozen expected values.
"""

from dataclasses import dataclass
from itertools import product

import numpy as np

_DET_TOL = 1e-14


@dataclass(frozen=True)
class System2x2:
    """A 2x2 linear system a*x = r."""

    a11: float
    a12: float
    a21: float
    a22: float
    r1: float
    r2: float

    def solve(self):
        det = self.a11 * self.a22 - self.a12 * self.a21
        if abs(det) <= _DET_TOL:
            raise ArithmeticError(f"system is singular (det={det:.3g})")
        x = (self.r1 * self.a22 - self.a12 * self.r2) / det
        y = (self.a11 * self.r2 - self.r1 * self.a21) / det
        return x, y


def solve_system_oracle(alpha: float, n: int, beta: float = 1.5):
    """(K, b) for the weight line, via the raw constraint system.

    Assembles the weight-sum and orness constraints using power sums
    accumulated by explicit loops and solves with Cramer's rule, so it is
    independent of the closed-form expressions it is used to verify.
    """
    if n < 3:
        raise ValueError(f"n must be >= 3; got {n}")
    if not 0.0 <= alpha <= 0.5:
        raise ValueError(f"alpha must be in [0, 0.5]; got {alpha}")
    m = n - 1
    sum_i = 0.0
    sum_i2 = 0.0
    for i in range(1, m + 1):
        sum_i += i
        sum_i2 += i * i
    f = 1.0 - (1.0 - 2.0 * alpha) ** beta
    delta = f * m / n
    # Row 1: sum of the line weights equals delta.
    # Row 2: (1/m) * sum (n - i)(K i + b) equals alpha.
    system = System2x2(
        a11=sum_i,
        a12=float(m),
        a21=(n * sum_i - sum_i2) / m,
        a22=(n * m - sum_i) / m,
        r1=delta,
        r2=alpha,
    )
    return system.solve()


def _slice_dispersion(w: np.ndarray) -> np.ndarray:
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(w > 0.0, w * np.log(np.clip(w, 1e-300, None)), 0.0)
    return -terms.sum(axis=-1)


def _complete_weights(free: np.ndarray, orness: float, n: int) -> np.ndarray:
    """Fill the last two weights from the two equality constraints.

    ``free`` has shape (..., n-2) holding w_1..w_{n-2}.  The orness
    constraint only involves w_{n-1} among the remaining pair (its
    coefficient is 1, w_n's is 0), so both close in closed form.
    """
    coef = np.arange(n - 1, 1, -1, dtype=float)  # n - i for i = 1..n-2
    w_second_last = (n - 1) * orness - free @ coef
    w_last = 1.0 - free.sum(axis=-1) - w_second_last
    return np.concatenate(
        [free, w_second_last[..., None], w_last[..., None]], axis=-1
    )


def maxent_oracle(orness: float, n: int, grid_steps: int = 100):
    """Best-dispersion weight vector found by grid search plus refinement.

    Supports n in {2, ..., 5} only; the search is exponential in n and is
    meant for desk-scale verification.  Deterministic: fixed grids, ties
    broken by first occurrence.  Returns a plain numpy array summing to 1
    with the requested orness satisfied exactly by construction.  Raises
    ``ArithmeticError`` when the grid reaches no feasible point, which
    can happen at extreme orness (e.g. 0.97 at n = 4).
    """
    if not 0.0 < orness < 1.0:
        raise ValueError(f"orness must be in (0, 1); got {orness}")
    if not 2 <= n <= 5:
        raise ValueError(f"n must be in 2..5; got {n}")
    if grid_steps < 100:
        raise ValueError(f"grid_steps must be >= 100; got {grid_steps}")
    if n == 2:
        return np.array([orness, 1.0 - orness])

    d = n - 2
    center = np.full(d, 0.5)
    half = 0.5
    best = None
    best_disp = -np.inf
    points_per_dim = grid_steps + 1 if d == 1 else max(21, grid_steps // (10 ** (d - 1)) + 1)
    for _ in range(10):
        axes = [
            np.linspace(max(0.0, c - half), min(1.0, c + half), points_per_dim)
            for c in center
        ]
        free = np.array(list(product(*axes)))
        w = _complete_weights(free, orness, n)
        feasible = (w >= 0.0).all(axis=-1) & (w <= 1.0).all(axis=-1)
        if feasible.any():
            disp = np.where(feasible, _slice_dispersion(w), -np.inf)
            i = int(np.argmax(disp))
            if disp[i] > best_disp:
                best_disp = float(disp[i])
                best = w[i]
                center = free[i]
        half /= 8.0
        points_per_dim = 17
    if best is None:
        raise ArithmeticError(f"no feasible grid point at orness={orness} n={n}")
    return best


def _geometric_log_weights(t: float, n: int) -> np.ndarray:
    # log w_i for w_i proportional to exp(-t*i), normalised by log-sum-exp.
    z = -t * np.arange(n, dtype=float)
    top = z.max()
    return z - (top + np.log(np.exp(z - top).sum()))


def maxent_geometric_oracle(orness: float, n: int) -> np.ndarray:
    """Maximum-entropy weights for any n >= 2, from their known form.

    The optimum is geometric, w_i proportional to exp(-t*i) for
    i = 0..n-1 (O'Hagan 1988; Fuller & Majlender 2001), and its orness
    rises monotonically with the rate t.  So t is found by bisection on
    the orness, to the last representable digit; the weights are
    normalised in log-sum-exp form, so no power over- or underflows
    before the final ``exp``.
    """
    if not 0.0 < orness < 1.0:
        raise ValueError(f"orness must be in (0, 1); got {orness}")
    if n < 2:
        raise ValueError(f"n must be >= 2; got {n}")
    position = np.arange(n - 1, -1, -1, dtype=float) / (n - 1)

    def orness_at(t):
        return float(np.exp(_geometric_log_weights(t, n)) @ position)

    lo, hi = -1.0, 1.0
    while orness_at(lo) > orness:
        lo *= 2.0
    while orness_at(hi) < orness:
        hi *= 2.0
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            break
        if orness_at(mid) < orness:
            lo = mid
        else:
            hi = mid
    t = lo if abs(orness_at(lo) - orness) <= abs(orness_at(hi) - orness) else hi
    return np.exp(_geometric_log_weights(t, n))
