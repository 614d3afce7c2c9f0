"""Comparison methods: Yager's exponential family and maximum-entropy weights.

The exponential family fixes a geometric shape for the weights and needs
its internal parameter calibrated ("preset") to hit a requested orness;
calibration here is a dyadic bisection on the monotone
parameter-to-orness map, run for a whole grid of requested values at
once (a few numpy passes per halving), or value by value below a small
grid size.  Each halving is decided by the closed-form orness of the
geometric series; only where that lies within a margin of the target
does the midpoint row's ``orness`` decide instead.

The maximum-entropy method maximizes dispersion subject to the orness
constraint.  The optimum has geometric structure, which reduces the whole
problem to one polynomial equation in the first weight.  One scan of the
polynomial over all of a grid's values brackets each root, and a
safeguarded Newton/bisection hybrid solves each value.  Where the
polynomial overflows (large n) and no root can be bracketed, the first
weight is found instead by bisection on the achieved orness of the
rebuilt geometric vector.  Near extreme orness and large n the problem becomes
ill-conditioned (catastrophic cancellation between terms of order
A**(n-1)); results that fail validation raise a flagged error instead of
returning garbage.
"""

import math
from dataclasses import dataclass

import numpy as np

from .core import WeightVector, _check_n, _check_number, _check_orness, _orness_rows
from .core import orness as _orness  # the public calls' parameter shadows the name

# Successful results must reproduce the requested orness this closely.
ORNESS_TOL = 1e-9

# Halvings of the exponential parameter's bracket [0, 1]: 2^-40 <= 1e-12,
# so every calibrated parameter is pinned to within 1e-12.
_HALVINGS = 40
# A halving is decided by the closed-form orness unless that lies within
# this margin of the target; then the midpoint row's orness by
# core._orness_rows decides.  The closed form is good to a few ulps; cell j
# of a row's running product to about sqrt(j) ulps, or j/2 where every step
# rounds one way (1 - a of few bits), so the last cell is libm's.  Worst
# |closed - _orness_rows| over every midpoint visited: 1.2e-15 at n <= 1000
# (k/1000), 3.6e-15 at 10^4 (k/100), 6.4e-14 at 10^7; >= 56x to n = 10^4.
_SCREEN_MARGIN = 2e-13
_NEWTON_XTOL = 1e-15
_NEWTON_MAX_ITER = 120
_BRACKET_SCAN_POINTS = 400
_SCAN_STEPS = np.arange(_BRACKET_SCAN_POINTS, dtype=float)
# Values per bracket scan: a block's arrays stay about 200 KB, so a long
# grid costs no more memory than a short one (64 to 128 values per block
# scanned fastest, about 3.5 us a value at n = 10 and 100).
_SCAN_BLOCK = 64


class UnsupportedOrnessError(ValueError):
    """Orness 0 or 1 requested from the maximum-entropy method, whose
    objective requires every weight strictly positive."""


class CalibrationError(RuntimeError):
    """Exponential preset failed to converge."""

    def __init__(self, message, parameter, residual):
        super().__init__(message)
        self.parameter = parameter
        self.residual = residual


class MaxentInstabilityError(RuntimeError):
    """Maximum-entropy solve broke down numerically (the known failure
    region near extreme orness for large n)."""

    def __init__(self, message, orness, n, residual=None):
        super().__init__(message)
        self.orness = orness
        self.n = n
        self.residual = residual


@dataclass(frozen=True)
class CalibrationResult:
    """How the exponential parameter was preset: its value, the orness of
    the returned vector and the number of bisection halvings."""

    parameter: float
    achieved_orness: float
    iterations: int


# ---------------------------------------------------------------------------
# Exponential family
# ---------------------------------------------------------------------------

def _geometric_rows(q, n: int) -> np.ndarray:
    """q^j for j < n, one row per value of the sequence ``q``, as a running
    product: cell j is exactly fl(cell[j-1] * q), +0.0 once one underflows."""
    w = np.empty((len(q), n))
    w.T[:] = q  # row i filled with q[i]
    w[:, 0] = 1.0
    return np.multiply.accumulate(w, axis=1, out=w)


def _exponential_rows(a: np.ndarray, n: int, and_like: np.ndarray) -> np.ndarray:
    """Geometric weights, one row per parameter in the 1-d array ``a``.
    The or-like row is w_i = a(1-a)^(i-1) for i < n and w_n = (1-a)^(n-1),
    which telescope to 1; the and-like row is the same row reversed, and
    it is returned where the boolean array ``and_like`` is True.  The row is
    built from the rounded ratio q = fl(1 - a) and scaled by 1 - q, exact,
    so it telescopes where 1 - a is not a double."""
    q = 1.0 - a
    w = _geometric_rows(q, n)
    w[:, : n - 1] *= (1.0 - q)[:, np.newaxis]
    # libm's pow: the running product loses the a^2 term for a near 0.
    w[:, n - 1] = [x ** (n - 1) for x in q.tolist()]
    w[and_like] = w[and_like, ::-1]
    return w


def exponential_raw(a: float, n: int, kind: str = "or-like") -> WeightVector:
    """Geometric weight vector with shape parameter ``a`` in [0, 1].

    ``kind`` is "or-like" (mass leans toward the largest input for high
    ``a``) or "and-like" (the reverse of the same construction).
    """
    a, n = _check_number(a, "parameter a", 0.0, 1.0, "[0, 1]"), _check_n(n, 2)
    if kind not in ("or-like", "and-like"):
        raise ValueError(f"kind must be 'or-like' or 'and-like'; got {kind!r}")
    and_like = np.array([kind == "and-like"])
    return WeightVector(_exponential_rows(np.array([a], dtype=float), n, and_like)[0])


def _or_like_orness(a, n: int, lib=math):
    """Orness of the or-like row at parameter ``a`` in (0, 1), from the
    geometric series: 1 - (1 - a)(1 - (1 - a)^(n-1)) / ((n - 1) a).  With
    ``lib=np``, ``a`` is an array and numpy's log1p and expm1 take the
    place of libm's, a few ulps apart."""
    return 1.0 - (1.0 - a) * -lib.expm1((n - 1) * lib.log1p(-a)) / ((n - 1) * a)


# Below this many targets the bisection runs one target at a time: a
# grid's numpy passes cost about 350-400 us per call, the loop about
# 12-16 us per target (measured crossover: 23 to 28 targets at n = 5 to
# 1000).
_GRID_BISECTION_MIN = 25


def _calibrated_exponential_array(orness: np.ndarray, n: int):
    """One dyadic bisection on the parameter per target in the 1-d array
    ``orness``.  Returns the weights (one row per target) and the
    parameters; every target takes ``_HALVINGS`` halvings.

    Or-like orness rises 0 -> 1 with a; and-like falls 1 -> 0, and its
    row is the or-like row reversed.  Each halving is decided by
    :func:`_or_like_orness`; within ``_SCREEN_MARGIN`` of the target, by
    the orness (``core._orness_rows``) of the midpoint's oriented row.

    From ``_GRID_BISECTION_MIN`` targets on, the targets are halved
    together (:func:`_calibrated_grid`); below it, one at a time in Python
    floats.  The two give the same bits: their closed forms differ by a
    few ulps, far inside the margin, so a decision outside it is the same
    and one inside it is made by the same exact row."""
    if orness.size >= _GRID_BISECTION_MIN:
        a = _calibrated_grid(orness, n)
    else:
        a = np.empty(orness.size)
        for i, target in enumerate(orness.tolist()):
            or_like = target > 0.5
            # The interval starts as [0, 1] and is halved exactly at each
            # step, so lo + width/2 is the midpoint (lo + hi)/2 bit for bit.
            lo, width = 0.0, 1.0
            for _ in range(_HALVINGS):
                mid = lo + 0.5 * width
                val = _or_like_orness(mid, n)
                if not or_like:
                    val = 1.0 - val
                # Written as "not >" so that a NaN target is measured too.
                if not abs(val - target) > _SCREEN_MARGIN:
                    row = _exponential_rows(np.array([mid]), n, np.array([not or_like]))
                    (val,) = _orness_rows(row)
                if (val < target) == or_like:
                    lo = mid
                width *= 0.5
            a[i] = lo + 0.5 * width
    return _exponential_rows(a, n, ~(orness > 0.5)), a


def _calibrated_grid(orness: np.ndarray, n: int) -> np.ndarray:
    """The parameters of :func:`_calibrated_exponential_array`, every target
    halved at once: each halving is a few numpy passes over the grid, and
    one call builds the exact rows of every target within the margin."""
    or_like = orness > 0.5
    and_like = ~or_like
    lo, width = np.zeros(orness.size), 1.0
    for _ in range(_HALVINGS):
        mid = lo + 0.5 * width
        val = _or_like_orness(mid, n, np)
        val = np.where(or_like, val, 1.0 - val)
        near = np.flatnonzero(~(np.abs(val - orness) > _SCREEN_MARGIN))
        if near.size:
            val[near] = _orness_rows(_exponential_rows(mid[near], n, and_like[near]))
        lo = np.where((val < orness) == or_like, mid, lo)
        width *= 0.5
    return lo + 0.5 * width


def exponential_weights(orness: float, n: int):
    """Exponential weights calibrated so the achieved orness matches.

    Returns ``(WeightVector, CalibrationResult)``; the result's
    ``achieved_orness`` is the orness of the returned vector, measured as
    every report row measures it.  Raises :class:`CalibrationError` if
    the 40 halvings leave the orness more than ``ORNESS_TOL`` off: valid
    requests from about n = 2*10^4 on, where 2^-40 pins the small
    parameter too coarsely (see ROADMAP.md).
    """
    orness, n = _check_orness(orness), _check_n(n, 2)
    w, a = _calibrated_exponential_array(np.array([orness], dtype=float), n)
    vec, a = WeightVector(w[0]), float(a[0])
    achieved = _orness(vec)
    residual = abs(achieved - orness)
    if not residual <= ORNESS_TOL:
        raise CalibrationError(
            f"exponential preset did not converge: best parameter {a:.17g} "
            f"leaves orness residual {residual:.3g}",
            parameter=a,
            residual=residual,
        )
    return vec, CalibrationResult(parameter=a, achieved_orness=achieved, iterations=_HALVINGS)


def _no_preset_exponential_array(orness: np.ndarray, n: int) -> np.ndarray:
    # Parameter used directly, no calibration: the classical shortcut whose
    # achieved orness drifts from the request away from the endpoints.
    # Or-like with a = orness above 0.5, and-like with a = 1 - orness below.
    and_like = orness <= 0.5
    return _exponential_rows(np.where(and_like, 1.0 - orness, orness), n, and_like)


def exponential_weights_no_preset(orness: float, n: int) -> WeightVector:
    """Exponential weights with the shape parameter set to the requested
    orness directly (no calibration).  Exact only at 0 and 1; included to
    mirror the no-preset rows of the timing comparison."""
    orness, n = _check_orness(orness), _check_n(n, 2)
    return WeightVector(_no_preset_exponential_array(np.array([orness], dtype=float), n)[0])


# ---------------------------------------------------------------------------
# Maximum entropy
# ---------------------------------------------------------------------------

def _newton_bisection(func, dfunc, lo, hi, flo):
    """Root of ``func`` bracketed in [lo, hi], where ``flo`` is ``func(lo)``,
    finite, nonzero and of the opposite sign to ``func(hi)``; Newton steps
    when they stay in the bracket and halve it fast enough, bisection
    otherwise.  Signs and finiteness are read by plain comparisons, so a
    Python-float ``func`` makes no numpy call.  The caller sets numpy's
    warning policy for ``func`` and ``dfunc``."""
    x = 0.5 * (lo + hi)
    dx_old = abs(hi - lo)
    dx = dx_old
    f = func(x)
    for _ in range(_NEWTON_MAX_ITER):
        df = dfunc(x)
        newton_ok = (
            df != 0.0
            and math.isfinite(df)
            and math.isfinite(f)
            and ((x - hi) * df - f) * ((x - lo) * df - f) < 0.0
            and abs(2.0 * f) <= abs(dx_old * df)
        )
        if newton_ok:
            dx_old = dx
            dx = f / df
            x_new = x - dx
        else:
            dx_old = dx
            dx = 0.5 * (hi - lo)
            x_new = lo + dx
        if abs(dx) < _NEWTON_XTOL * max(1.0, abs(x_new)):
            return x_new
        x = x_new
        f = func(x)
        if f == 0.0 or not math.isfinite(f):
            return x
        if (f > 0.0 and flo > 0.0) or (f < 0.0 and flo < 0.0):
            lo = x
        else:
            hi = x
    return x


def _ipow(x, k: int):
    """x^k for an integer k >= 1 by binary powering: multiplications only,
    so a Python float and each cell of a numpy array take the same IEEE
    operations and round alike on every host."""
    result = None
    while True:
        if k & 1:
            result = x if result is None else result * x
        k >>= 1
        if not k:
            return result
        x = x * x


def _maxent_polynomial(A, n: int):
    # First-weight equation of the analytic maximum-entropy solution:
    #   w1 * (A + 1 - n*w1)^n = A^(n-1) * ((A - n)*w1 + 1).
    # w1 = 1/n (the uniform solution) is always a root; the interior root
    # above 1/n is the one wanted for a > 0.5.  Every power is _ipow's, so
    # F at a scan point is bit for bit F at that Python float, also where A
    # is a column of values and w a row of points per value.
    B = A + 1.0
    power = _ipow(A, n - 1)

    def F(w):
        return w * _ipow(B - n * w, n) - power * ((A - n) * w + 1.0)

    def dF(w):
        base = B - n * w
        p = _ipow(base, n - 1)
        return p * base - n * n * w * p - power * (A - n)

    return F, dF


def _maxent_brackets(A: list, n: int) -> list:
    """Per value in the list ``A`` of (n - 1)*a, the sign change of F
    nearest the interior root among ``_BRACKET_SCAN_POINTS`` points of the
    admissible interval (1/n, 1/(n - A)): (lo, hi, F(lo)) with both ends
    finite, nonzero and of opposite sign, or None.  One pass over a
    (values x points) grid, whose points are np.linspace's, start + i*step
    with the interval's end last.  A lone value stays a Python float and
    its points one 1-d row, which keeps a one-value call as fast as a scan
    of its own.  The caller sets numpy's warning policy."""
    lo = 1.0 / n
    grid = len(A) > 1
    A = np.array(A)[:, np.newaxis] if grid else A[0]
    hi = 1.0 / (n - A)
    ws = _SCAN_STEPS * ((hi - lo) / (_BRACKET_SCAN_POINTS - 1))
    ws += lo
    ws[..., -1:] = hi
    vals = _maxent_polynomial(A, n)[0](ws)
    sgn = np.sign(vals) * np.isfinite(vals)  # 0 where F is not finite
    flips = sgn[..., :-1] * sgn[..., 1:] < 0
    # Each row's last sign change, found from the row's end.
    end = flips.shape[-1] - 1
    if not grid:
        i = end - flips[::-1].argmax()
        return [(ws.item(i), ws.item(i + 1), vals.item(i)) if flips[i] else None]
    return [
        (ws.item(r, i), ws.item(r, i + 1), vals.item(r, i)) if flips[r, i] else None
        for r, i in enumerate((end - flips[:, ::-1].argmax(axis=1)).tolist())
    ]


def _rebuild_from_first_weight(w1: float, A: float, n: int):
    """Weights implied by a candidate first weight: the last weight wn from
    the two constraints, then the geometric row of ratio q = (wn/w1)^(1/(n-1))
    divided in place by its sum; q is a Python float from libm, not numpy."""
    num = (A - n) * w1 + 1.0
    den = A + 1.0 - n * w1
    if w1 <= 0.0 or num <= 0.0 or den <= 0.0:
        return None
    (w,) = _geometric_rows([(num / den / w1) ** (1.0 / (n - 1))], n)
    return np.divide(w, w.sum(), out=w)


def _constraint_residual(w1: float, a: float, A: float, n: int):
    w = _rebuild_from_first_weight(w1, A, n)
    if w is None:
        return None
    return _orness_rows(w[np.newaxis])[0] - a


def _polish_first_weight(a: float, A: float, n: int, lo: float, hi: float) -> float:
    """Bisection on the achieved-orness residual of the rebuilt vector over
    (``lo``, ``hi``) pulled in by a few ulps.  Cleans up the near-0.5
    region where the polynomial has a near-double root, and solves
    outright where it gave no bracket; only called when the rebuild map
    is trustworthy."""
    lo, hi = lo * (1.0 + 1e-15), hi * (1.0 - 1e-15)
    if _constraint_residual(lo, a, A, n) >= 0.0:
        # Even the smallest step above 1/n overshoots: the target is
        # within rounding of 0.5 and the solution is the uniform vector.
        return 1.0 / n
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            # lo and hi are adjacent floats: no step can narrow them.
            break
        r = _constraint_residual(mid, a, A, n)
        # Within 1e-17, stop at a midpoint that meets the tolerance; a miss or None halves on.
        if r is not None and hi - lo <= 1e-17 and abs(r) <= ORNESS_TOL:
            return mid
        if r is None or r > 0.0:
            hi = mid
        elif r < 0.0:
            lo = mid
        else:
            return mid
    return 0.5 * (lo + hi)


def _maxent_solve(a: float, n: int, bracket):
    """Maximum-entropy weights of size ``n`` >= 3 at a folded orness ``a``
    in [0.5, 1) (true by construction of :func:`_maxent_rows`' solve set),
    or None where the solve finds no valid root.

    With A = (n - 1)*a, the first weight lies in the admissible interval
    (1/n, 1/(n - A)): uniform weights at 1/n, a zero last weight at
    1/(n - A).  Newton solves the scan's ``bracket`` and the polish
    searches the whole interval."""
    A = (n - 1) * a
    lo, hi = 1.0 / n, 1.0 / (n - A)
    # At large n the polynomial overflows to inf or NaN, which the scan and
    # the search pass over.  With no sign change, start from the uniform
    # 1/n and let the polish below find the root.
    w1 = lo if bracket is None else _newton_bisection(*_maxent_polynomial(A, n), *bracket)
    w = _rebuild_from_first_weight(w1, A, n)
    # The last weight's numerator subtracts nearly equal terms at extreme
    # orness; once it sits at rounding scale the rebuilt family is fiction
    # and no amount of polishing should "succeed".
    if w is not None and (A - n) * w1 + 1.0 > 1e-12:
        if abs(_orness_rows(w[np.newaxis])[0] - a) > 1e-10:
            w1 = _polish_first_weight(a, A, n, lo, hi)
            w = _rebuild_from_first_weight(w1, A, n)
    return w


def _maxent_rows(orness: np.ndarray, n: int) -> np.ndarray:
    """Maximum-entropy weights of size ``n``, one row per value of the 1-d
    array ``orness`` (no validation).  Orness 0.5, and 0 < orness < 1 at
    n = 2, have closed forms.  Every other row is the solve of its folded
    value a (1 - orness below 0.5, the row then reversed), NaN where that
    finds no root or a is 1.0 (orness 0, 1 and <= 2^-54), outside the
    solver's [0.5, 1).  Each a is solved once, after one scan
    (:func:`_maxent_brackets`) per block of ``_SCAN_BLOCK`` values.  A
    one-value call touches none of the matrix in its solve."""
    w = np.empty((orness.size, n))
    values = orness.tolist()
    folded = [1.0 - v if v < 0.5 else v for v in values]
    # 1 - 0.49999999999999994 rounds to 0.5: that is solved, not uniform.
    solved = {a: None for v, a in zip(values, folded) if v != 0.5 and a < 1.0}
    todo = list(solved) if n > 2 else []
    for k in range(0, len(todo), _SCAN_BLOCK):
        block = todo[k : k + _SCAN_BLOCK]
        with np.errstate(over="ignore", invalid="ignore"):
            brackets = _maxent_brackets([(n - 1) * a for a in block], n)
        for a, bracket in zip(block, brackets):
            solved[a] = _maxent_solve(a, n, bracket)
    for row, value, a in zip(w, values, folded):
        x = solved.get(a)
        if n == 2 and 0.0 < value < 1.0:
            row[:] = value, 1.0 - value
        elif value == 0.5:
            row[:] = 1.0 / n
        elif x is None:
            row[:] = np.nan
        else:
            row[:] = x[::-1] if value < 0.5 else x
    return w


def maxent_weights(orness: float, n: int) -> WeightVector:
    """Weights maximizing dispersion subject to the requested orness: the
    one row of :func:`_maxent_rows` at ``orness``.

    Raises :class:`UnsupportedOrnessError` for orness 0 or 1 and
    :class:`MaxentInstabilityError` whenever the solve cannot certify the
    result: no root found (as for every orness <= 2^-54 at n >= 3, which
    folds to 1.0), achieved orness off by more than ``ORNESS_TOL`` or
    weights outside [0, 1].  An invalid vector is never returned silently.
    """
    orness, n = _check_orness(orness), _check_n(n, 2)
    if orness in (0.0, 1.0):
        raise UnsupportedOrnessError(
            "maximum-entropy weights require 0 < orness < 1: the entropy "
            "objective needs every weight strictly positive, so the min and "
            "max operators are out of reach"
        )
    (w,) = _maxent_rows(np.array([orness]), n)
    try:
        if np.isnan(w).all():
            raise ValueError("no valid root of the first-weight equation")
        vec = WeightVector(w)
    except ValueError as exc:
        raise MaxentInstabilityError(
            f"maximum-entropy solve unstable at orness={orness} n={n}: {exc}",
            orness=orness,
            n=n,
        ) from exc
    residual = abs(_orness(vec) - orness)
    if residual > ORNESS_TOL:
        raise MaxentInstabilityError(
            f"maximum-entropy solve unstable at orness={orness} n={n}: "
            f"achieved-orness residual {residual:.3g} exceeds {ORNESS_TOL:g}",
            orness=orness,
            n=n,
            residual=residual,
        )
    return vec


__all__ = [
    "CalibrationError",
    "CalibrationResult",
    "MaxentInstabilityError",
    "ORNESS_TOL",
    "UnsupportedOrnessError",
    "exponential_raw",
    "exponential_weights",
    "exponential_weights_no_preset",
    "maxent_weights",
]
