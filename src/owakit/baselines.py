"""Comparison methods: Yager's exponential family and maximum-entropy weights.

The exponential family fixes a geometric shape for the weights and needs
its internal parameter calibrated ("preset") to hit a requested orness;
calibration here is bisection on the monotone parameter-to-orness map,
run for a whole array of requested values at once.

The maximum-entropy method maximizes dispersion subject to the orness
constraint.  The optimum has geometric structure, which reduces the whole
problem to one polynomial equation in the first weight, solved by a
safeguarded Newton/bisection hybrid.  Where the polynomial overflows
(large n) and no root can be bracketed, the first weight is found
instead by bisection on the achieved orness of the rebuilt geometric
vector.  Near extreme orness and large n the problem becomes
ill-conditioned (catastrophic cancellation between terms of order
A**(n-1)); results that fail validation raise a flagged error instead of
returning garbage.
"""

from dataclasses import dataclass

import numpy as np

from .core import WeightVector, _check_n, _check_request, _orness_array

# Successful results must reproduce the requested orness this closely.
ORNESS_TOL = 1e-9

# Halvings of the exponential parameter's bracket [0, 1]: 2^-40 <= 1e-12,
# so every calibrated parameter is pinned to within 1e-12.
_HALVINGS = 40
_NEWTON_XTOL = 1e-15
_NEWTON_MAX_ITER = 120
_BRACKET_SCAN_POINTS = 400


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

def _exponential_rows(a: np.ndarray, n: int, and_like=None) -> np.ndarray:
    """Or-like geometric weights, one row per parameter in the 1-d array
    ``a``: w_i = a(1-a)^(i-1) for i < n and w_n = (1-a)^(n-1), which
    telescope to 1.  The and-like vector is the same row reversed; the
    rows where the boolean array ``and_like`` is True come back reversed."""
    w = np.empty((a.size, n))
    base = 1.0 - a
    np.power(base[:, np.newaxis], np.arange(n - 1), out=w[:, : n - 1])
    w *= a[:, np.newaxis]
    # Python's float ** per value: numpy's array power differs in the last bit.
    w[:, n - 1] = [b ** (n - 1) for b in base.tolist()]
    if and_like is not None:
        w[and_like] = w[and_like, ::-1]
    return w


def exponential_raw(a: float, n: int, kind: str = "or-like") -> WeightVector:
    """Geometric weight vector with shape parameter ``a`` in [0, 1].

    ``kind`` is "or-like" (mass leans toward the largest input for high
    ``a``) or "and-like" (the reverse of the same construction).
    """
    if not 0.0 <= a <= 1.0:
        raise ValueError(f"parameter a must be in [0, 1]; got {a}")
    n = _check_n(n, 2)
    if kind not in ("or-like", "and-like"):
        raise ValueError(f"kind must be 'or-like' or 'and-like'; got {kind!r}")
    and_like = np.array([kind == "and-like"])
    return WeightVector(_exponential_rows(np.array([a], dtype=float), n, and_like)[0])


def _calibrated_exponential_array(orness: np.ndarray, n: int):
    """Bisection on the parameter for every target in the 1-d array
    ``orness`` at once.  Returns the weights (one row per target) and the
    parameters; every target takes ``_HALVINGS`` halvings."""
    or_like = orness > 0.5
    # Or-like orness rises 0 -> 1 with a; and-like falls 1 -> 0.  An
    # and-like row is an or-like row reversed, so its orness weighs the
    # or-like row with the coefficients reversed.  Each row's products are
    # summed on their own, so no row's result depends on the others.
    coef = np.arange(n - 1, -1, -1, dtype=float)
    coefs = np.where(or_like[:, np.newaxis], coef, coef[::-1])
    # Every interval starts as [0, 1] and is halved exactly at each step,
    # so all rows share one width hi - lo and only lo is kept per row.
    # These sums of dyadic numbers are exact: lo + width/2 is the midpoint
    # (lo + hi)/2 bit for bit.
    lo, width = np.zeros(orness.size), 1.0
    for _ in range(_HALVINGS):
        mid = lo + 0.5 * width
        products = _exponential_rows(mid, n)
        products *= coefs
        val = np.add.reduce(products, axis=1) / (n - 1)
        lo = np.where((val < orness) == or_like, mid, lo)
        width *= 0.5
    a = lo + 0.5 * width
    return _exponential_rows(a, n, ~or_like), a


def exponential_weights(orness: float, n: int):
    """Exponential weights calibrated so the achieved orness matches.

    Returns ``(WeightVector, CalibrationResult)``; the result's
    ``achieved_orness`` is the orness of the returned vector, measured as
    every report row measures it.  Raises :class:`CalibrationError` if
    bisection cannot reach the requested orness within tolerance (does
    not happen for valid inputs; the map is continuous and monotone on
    [0, 1]).
    """
    orness, n = _check_request(orness, n, 2)
    w, a = _calibrated_exponential_array(np.array([orness], dtype=float), n)
    vec, a = WeightVector(w[0]), float(a[0])
    achieved = _orness_array(vec.w)
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
    orness, n = _check_request(orness, n, 2)
    return WeightVector(_no_preset_exponential_array(np.array([orness], dtype=float), n)[0])


# ---------------------------------------------------------------------------
# Maximum entropy
# ---------------------------------------------------------------------------

def _newton_bisection(func, dfunc, lo, hi):
    """Root of ``func`` bracketed in [lo, hi]; Newton steps when they stay
    in the bracket and halve it fast enough, bisection otherwise."""
    flo = func(lo)
    fhi = func(hi)
    if flo == 0.0:
        return lo
    if fhi == 0.0:
        return hi
    if np.sign(flo) == np.sign(fhi):
        raise ValueError("root not bracketed")
    x = 0.5 * (lo + hi)
    dx_old = abs(hi - lo)
    dx = dx_old
    f = func(x)
    for _ in range(_NEWTON_MAX_ITER):
        df = dfunc(x)
        with np.errstate(over="ignore", invalid="ignore"):
            newton_ok = (
                df != 0.0
                and np.isfinite(df)
                and np.isfinite(f)
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
        if f == 0.0 or not np.isfinite(f):
            return x
        if np.sign(f) == np.sign(flo):
            lo = x
        else:
            hi = x
    return x


def _maxent_polynomial(a: float, n: int):
    # First-weight equation of the analytic maximum-entropy solution:
    #   w1 * (A + 1 - n*w1)^n = A^(n-1) * ((A - n)*w1 + 1),   A = (n-1)*a.
    # w1 = 1/n (the uniform solution) is always a root; the interior root
    # above 1/n is the one wanted for a > 0.5.
    A = (n - 1) * a
    B = A + 1.0
    logA = (n - 1) * np.log(A)

    def F(w):
        with np.errstate(over="ignore", invalid="ignore"):
            return w * (B - n * w) ** n - np.exp(logA) * ((A - n) * w + 1.0)

    def dF(w):
        with np.errstate(over="ignore", invalid="ignore"):
            base = B - n * w
            return base**n - n * n * w * base ** (n - 1) - np.exp(logA) * (A - n)

    return F, dF, A


def _maxent_bracket(F, n, A):
    # The admissible interval is (1/n, 1/(n-A)); scan from the high end for
    # the sign change nearest the interior root.
    lo = 1.0 / n
    hi = 1.0 / (n - A)
    ws = np.linspace(lo, hi, _BRACKET_SCAN_POINTS)
    with np.errstate(over="ignore", invalid="ignore"):
        vals = F(ws)
    sgn = np.sign(vals)
    ok = np.isfinite(vals[:-1]) & np.isfinite(vals[1:])
    flips = np.where(ok & (sgn[:-1] * sgn[1:] < 0))[0]
    if flips.size == 0:
        return None
    i = flips[-1]
    return float(ws[i]), float(ws[i + 1])


def _rebuild_from_first_weight(w1: float, a: float, n: int):
    """Weights implied by a candidate first weight: the last weight from
    the two constraints, geometric interpolation in between (done in logs
    so large n does not underflow intermediate powers)."""
    A = (n - 1) * a
    num = (A - n) * w1 + 1.0
    den = A + 1.0 - n * w1
    if w1 <= 0.0 or num <= 0.0 or den <= 0.0:
        return None
    wn = num / den
    j = np.arange(n)
    logw = ((n - 1 - j) * np.log(w1) + j * np.log(wn)) / (n - 1)
    w = np.exp(logw)
    return w / w.sum()


def _rebuild_is_trustworthy(w1: float, a: float, n: int) -> bool:
    # The last-weight formula subtracts nearly equal terms at extreme
    # orness; once the difference sits at rounding scale the rebuilt
    # family is fiction and no amount of polishing should "succeed".
    A = (n - 1) * a
    num = (A - n) * w1 + 1.0
    return num > 1e-12 * max(1.0, abs((A - n) * w1))


def _constraint_residual(w1: float, a: float, n: int):
    w = _rebuild_from_first_weight(w1, a, n)
    if w is None:
        return None
    return _orness_array(w) - a


def _polish_first_weight(w1: float, a: float, n: int) -> float:
    """Bisection directly on the achieved-orness residual of the rebuilt
    vector.  Cleans up the ill-conditioned near-0.5 region where the
    first-weight polynomial has a near-double root, and solves outright
    when the polynomial gave no bracket; only called when the rebuild map
    is trustworthy."""
    A = (n - 1) * a
    lo = (1.0 / n) * (1.0 + 1e-15)
    hi = (1.0 / (n - A)) * (1.0 - 1e-15)
    r_lo = _constraint_residual(lo, a, n)
    if r_lo is None:
        return w1
    if r_lo >= 0.0:
        # Even the smallest step above 1/n overshoots: the target is
        # within rounding of 0.5 and the solution is the uniform vector.
        return 1.0 / n
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            # lo and hi are adjacent floats: no step can narrow them.
            break
        r = _constraint_residual(mid, a, n)
        if r is None or r > 0.0:
            hi = mid
        elif r < 0.0:
            lo = mid
        else:
            return mid
        if hi - lo <= 1e-17 * max(1.0, hi):
            break
    return 0.5 * (lo + hi)


def _maxent_array(orness: float, n: int) -> np.ndarray:
    if n == 2:
        return np.array([orness, 1.0 - orness])
    if orness == 0.5:
        return np.full(n, 1.0 / n)
    mirrored = orness < 0.5
    a = 1.0 - orness if mirrored else orness

    F, dF, A = _maxent_polynomial(a, n)
    bracket = _maxent_bracket(F, n, A)
    if bracket is None:
        # No sign change (the polynomial overflows at large n): start from
        # the uniform 1/n and let the orness bisection below find the root.
        w1 = 1.0 / n
    else:
        w1 = _newton_bisection(F, dF, bracket[0], bracket[1])
    w = _rebuild_from_first_weight(w1, a, n)
    if w is not None and _rebuild_is_trustworthy(w1, a, n):
        if abs(_orness_array(w) - a) > 1e-10:
            w1 = _polish_first_weight(w1, a, n)
            w = _rebuild_from_first_weight(w1, a, n)
    if w is not None and mirrored:
        w = w[::-1]
    return w


def _maxent_rows(orness: np.ndarray, n: int) -> np.ndarray:
    """Maximum-entropy weights of size ``n``, one row per value of the 1-d
    array ``orness`` (no validation).  A row is NaN at orness 0 and 1,
    which the entropy objective cannot reach, and wherever the solve
    finds no root."""
    w = np.full((orness.size, n), np.nan)
    for row, a in zip(w, orness.tolist()):
        if 0.0 < a < 1.0:
            solved = _maxent_array(a, n)
            if solved is not None:
                row[:] = solved
    return w


def maxent_weights(orness: float, n: int) -> WeightVector:
    """Weights maximizing dispersion subject to the requested orness.

    Raises :class:`UnsupportedOrnessError` for orness 0 or 1 and
    :class:`MaxentInstabilityError` whenever the solve cannot certify the
    result (achieved orness off by more than ``ORNESS_TOL`` or weights
    outside [0, 1]); an invalid vector is never returned silently.
    """
    orness, n = _check_request(orness, n, 2)
    if orness in (0.0, 1.0):
        raise UnsupportedOrnessError(
            "maximum-entropy weights require 0 < orness < 1: the entropy "
            "objective needs every weight strictly positive, so the min and "
            "max operators are out of reach"
        )
    w = _maxent_array(orness, n)
    try:
        if w is None:
            raise ValueError("no valid root of the first-weight equation")
        vec = WeightVector(w)
    except ValueError as exc:
        raise MaxentInstabilityError(
            f"maximum-entropy solve unstable at orness={orness} n={n}: {exc}",
            orness=orness,
            n=n,
        ) from exc
    residual = abs(_orness_array(vec.w) - orness)
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
