"""Core OWA machinery: weight vectors, aggregation, orness and dispersion."""

import numbers
import operator
import warnings
from dataclasses import dataclass
from math import isfinite

import numpy as np

# Closed-form weight constructions should be exact to rounding.
WEIGHT_SUM_TOL = 1e-12
# Linear-family shape exponent when none is given: the steepest slope.
DEFAULT_BETA = 1.5
# The native float64 dtype; a byte-swapped '>f8' is another object.
_FLOAT64 = np.dtype(float)


class DimensionMismatchError(ValueError):
    """Raised when a weight vector and an input vector disagree in length."""


def _real_array(values, name: str) -> np.ndarray:
    """``values`` as a float array; ValueError naming ``name`` unless it is 1-d, non-empty
    and real (no bools, even among a list's floats, and no strings or complex values).  May
    share the caller's buffer: an exact native-float64 1-d ndarray is returned as is."""
    if type(values) is np.ndarray and values.dtype is _FLOAT64 and values.ndim == 1 and values.size:
        return values
    arr = np.asarray(values)
    items = values if isinstance(values, (list, tuple)) else arr.flat if arr.dtype == object else ()
    if arr.dtype.kind == "b" or not {bool, np.bool_}.isdisjoint(map(type, items)):
        raise ValueError(f"{name} must be real numbers, not bools")
    if arr.dtype.kind not in "iuf" and not all(isinstance(v, numbers.Real) for v in arr.flat):
        raise ValueError(f"{name} must be real numbers; got dtype {arr.dtype}")
    arr = arr.astype(float, copy=False)
    if arr.ndim != 1 or arr.size < 1:
        raise ValueError(f"{name} must be a non-empty 1-d sequence")
    return arr


def _check_finite(arr: np.ndarray, name: str) -> None:
    """ValueError naming ``name`` unless every value of ``arr`` is finite."""
    if not np.isfinite(arr).all():
        raise ValueError(f"{name} must be finite")


def _simplex_rows(rows: np.ndarray) -> list:
    """Per row of ``rows``, a non-empty 2-d float array holding one weight
    vector per row: None, or the message naming its fault, a weight
    outside [0, 1] or a sum off 1, both by more than ``WEIGHT_SUM_TOL``.
    One pass takes each row's min, max and sum once.  NaN and +-inf fail
    the range check before the sum is read, so a sum that overflows or is
    NaN warns nothing.  ``rows`` is only read."""
    with np.errstate(over="ignore", invalid="ignore"):
        totals = rows.sum(axis=1)
    problems = []
    for low, high, total in zip(
        rows.min(axis=1).tolist(), rows.max(axis=1).tolist(), totals.tolist()
    ):
        if not (low >= -WEIGHT_SUM_TOL and high <= 1.0 + WEIGHT_SUM_TOL):
            problems.append(f"weights must lie in [0, 1]; got range [{low:.17g}, {high:.17g}]")
        elif not abs(total - 1.0) <= WEIGHT_SUM_TOL:
            problems.append(f"weights must sum to 1; got {total:.17g}")
        else:
            problems.append(None)
    return problems


@dataclass(frozen=True, eq=False)
class WeightVector:
    """An OWA weight vector.

    ``w[0]`` is paired with the largest ordered input.  Construction
    validates the simplex invariants: every weight in [0, 1] and the
    weights summing to 1 within ``WEIGHT_SUM_TOL``.  It keeps a
    read-only copy clipped to [0, 1]; -0.0 stays -0.0.
    """

    w: np.ndarray

    def __post_init__(self):
        arr = _real_array(self.w, "weights")
        (problem,) = _simplex_rows(arr[np.newaxis])
        if problem is not None:
            # Non-finite weights fail the range test; name them first.
            _check_finite(arr, "weights")
            raise ValueError(problem)
        arr = arr.clip(0.0, 1.0)
        arr.flags.writeable = False
        object.__setattr__(self, "w", arr)

    @property
    def n(self) -> int:
        return self.w.size

    def reversed(self) -> "WeightVector":
        """The mirror operator: weight order flipped end to end."""
        return WeightVector(self.w[::-1])

    def __len__(self) -> int:
        return self.w.size

    def __iter__(self):
        return iter(self.w)


@dataclass(frozen=True)
class OrnessTarget:
    """A requested orness in [0, 1] plus the shape exponent of the
    linear family (defaults to ``DEFAULT_BETA``)."""

    orness: float
    beta: float = DEFAULT_BETA

    def __post_init__(self):
        object.__setattr__(self, "orness", _check_orness(self.orness))
        object.__setattr__(self, "beta", _check_beta(self.beta))


def _check_number(value, name: str, low: float, high: float, interval: str) -> float:
    """``value`` as a plain float; ValueError naming ``name`` unless it is
    a number (not a bool, a string, None or an array) in [``low``,
    ``high``], which NaN is not."""
    try:
        if isinstance(value, (bool, np.bool_)):
            raise TypeError
        in_range = low <= value <= high
        number = float(value)
    except (TypeError, ValueError):
        raise ValueError(f"{name} must be a number; got {value!r}") from None
    if not in_range:
        raise ValueError(f"{name} must be in {interval}; got {value}")
    return number


def _check_orness(orness: float) -> float:
    """``orness`` as a plain float; ValueError unless it is a number in [0, 1]."""
    return _check_number(orness, "orness", 0.0, 1.0, "[0, 1]")


def _check_beta(beta: float) -> float:
    """``beta`` as a plain float; ValueError unless it is a number in
    [1, 1.5], where every linear weight is >= 0."""
    return _check_number(beta, "beta", 1.0, 1.5, "[1.0, 1.5]")


def _check_alpha(alpha: float) -> float:
    """``alpha`` as a plain float; ValueError unless it is a number in [0, 0.5]."""
    return _check_number(alpha, "alpha", 0.0, 0.5, "[0, 0.5]")


@dataclass(frozen=True, eq=False)
class InputVector:
    """Values to aggregate, kept as a read-only copy, in any order."""

    x: np.ndarray

    def __post_init__(self):
        arr = _real_array(self.x, "inputs")
        _check_finite(arr, "inputs")
        # A list or tuple was copied by the conversion; anything else
        # (an ndarray, a buffer such as array.array) may still be shared.
        if not isinstance(self.x, (list, tuple)) and np.may_share_memory(arr, self.x):
            arr = arr.copy()
        arr.flags.writeable = False
        object.__setattr__(self, "x", arr)

    @property
    def n(self) -> int:
        return self.x.size


def orness(w: WeightVector) -> float:
    """Degree to which ``w`` behaves like the maximum (OR) operator.

    Returns (1/(n-1)) * sum((n-i) * w_i), in [0, 1], or 0.5 with a
    warning for the degenerate n = 1 operator (see :func:`_orness_rows`).
    """
    return _orness_rows(_checked_weights(w)[np.newaxis])[0]


def _orness_rows(w: np.ndarray) -> list:
    """Orness of each row of the 2-d float array ``w``: the :func:`_row_sums` of w_i * (n - 1 - i)
    over n - 1, as floats; at n = 1 (min, max and mean at once) 0.5 by convention, one warning."""
    n = w.shape[1]
    if n == 1:
        message = "orness of a length-1 weight vector is degenerate; returning 0.5 by convention"
        warnings.warn(message, stacklevel=3)
        return [0.5] * len(w)
    sums = _row_sums(w, lambda c, k: c * (_DESCENDING[-c.shape[1] :] + (n - k - c.shape[1])))
    return [s / (n - 1) for s in sums.tolist()]


# Row sums take this many columns at a time (on a row at n >= 10^5 2^12 and 2^13 were slower,
# 2^14 to 2^16 tied; a 101-row chunk is 13 MB).  Shifting _DESCENDING costs 1/3 of an arange.
_SUM_COLUMNS = 2**14
_DESCENDING = np.arange(_SUM_COLUMNS - 1, -1, -1.0)


def _row_sums(w: np.ndarray, terms) -> np.ndarray:
    """Per row of the 2-d array ``w``, the sum of the new arrays ``terms(chunk, k)`` makes of its
    column chunks w[:, k : k + _SUM_COLUMNS]: pairwise within a chunk (numpy's sum), the chunk sums
    left to right.  A row sums the same alone or in a grid, and no BLAS call is made."""
    total = None
    for k in range(0, w.shape[1], _SUM_COLUMNS):
        sums = np.add.reduce(terms(w[:, k : k + _SUM_COLUMNS], k), axis=1)
        total = sums if total is None else total + sums
    return total


def _check_n(n, min_n: int, name: str = "n") -> int:
    """``n`` as a plain int; ValueError naming ``name`` unless it is an
    integer (numpy integers included, bools not) of at least ``min_n``."""
    try:
        if isinstance(n, bool):
            raise TypeError
        index = operator.index(n)
    except TypeError:
        raise ValueError(f"{name} must be an integer; got {n!r}") from None
    if index < min_n:
        raise ValueError(f"{name} must be >= {min_n}; got {n}")
    return index


def dispersion(w: WeightVector) -> float:
    """Shannon-style entropy -sum(w_i ln w_i), with 0 ln 0 = 0.

    Ranges from 0 (single atom) to ln n (uniform weights).
    """
    return _dispersion_rows(_checked_weights(w)[np.newaxis])[0]


def _dispersion_rows(w: np.ndarray) -> list:
    """Dispersion of each row of the 2-d float array ``w``, as floats, unvalidated: 0.0 less the
    :func:`_row_sums` of w_i ln w_i, with +0.0 for a weight <= 0, so a single atom gives +0.0."""

    def terms(c, k):
        t = np.log(c)
        t *= c
        np.copyto(t, 0.0, where=c <= 0.0)
        return t

    with np.errstate(divide="ignore", invalid="ignore"):
        return [0.0 - s for s in _row_sums(w, terms).tolist()]


def _checked_weights(w) -> np.ndarray:
    """The weight array of ``w``; ValueError unless ``w`` is a :class:`WeightVector`."""
    if not isinstance(w, WeightVector):
        raise ValueError(f"w must be a WeightVector; got {type(w).__name__}")
    return w.w


def aggregate(w: WeightVector, x) -> float:
    """Aggregate ``x`` with the OWA operator ``w``.

    ``x`` may be an :class:`InputVector` or any 1-d sequence; the caller
    need not pre-order anything and ``x`` is never written.  An exact
    native-float64 1-d non-empty ndarray is taken as it is, in line.
    ``-x`` is copied once and sorted ascending in place, which puts ``x``
    in descending order.  The ends of that sort give the finite check:
    +inf in ``x`` becomes -inf and sorts first, -inf becomes +inf and
    sorts last, and NaN sorts last, so ``x`` is finite exactly when both
    ends are.  The dot product's own refusal checks the lengths.
    """
    if not isinstance(w, WeightVector):
        _checked_weights(w)  # raises the one message for a wrong ``w``
    ww = w.w
    # _real_array's own first test, in line: the call it saves is most of
    # what this wrapper costs on a small row.
    if type(x) is np.ndarray and x.dtype is _FLOAT64 and x.ndim == 1 and x.size:
        xs = x
    else:
        xs = x.x if isinstance(x, InputVector) else _real_array(x, "inputs")
    negated = -xs
    negated.sort()
    # Before the dot product: numpy warns on an inf times a zero weight.
    if not (isfinite(negated.item(0)) and isfinite(negated.item(-1))):
        _check_finite(xs, "inputs")
    # Each product w_i * -x_i is the exact negation of w_i * x_i, and
    # round-to-nearest is sign-symmetric, so the sum in the same order is
    # the exact negation of the sum over the descending x.  ``0.0 -`` gives
    # that sum back and maps a zero of either sign to +0.0, as ``w @ x``
    # does (``dot`` alone returns -0.0 for w = [1.0], x = [-0.0]).
    try:
        return 0.0 - float(ww.dot(negated))
    except ValueError:  # the lengths differ
        raise DimensionMismatchError(
            f"weight vector has length {ww.size} but input vector has length {xs.size}"
        ) from None


def uniform_weights(n: int) -> WeightVector:
    """The simple-average operator of size ``n``, an integer >= 1."""
    n = _check_n(n, 1)
    return WeightVector(np.full(n, 1.0 / n))
